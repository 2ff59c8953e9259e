/**
 * @file
 * The serve_scan and serve_point workloads: an in-process
 * serve::Server over the full 423,624-row index, driven over TCP by an
 * open-loop generator (seeded Poisson arrivals, latency timed from each
 * request's scheduled send).
 *
 * Phases of one untraced run, after set-up and a short warm-up:
 *   nominal   the workload's nominal rate; p50/p99 and generator lag
 *   burst     a fixed seeded batch released at once with a bounded
 *             in-flight window; its drain time is the workload's
 *             wall_s, the inverse of saturated throughput
 *   ladder    fixed rates above nominal until one misses the latency
 *             limit or builds a backlog; the last passing rate is
 *             capacity_qps
 * The traced run replaces the ladder by direct, spanned calls into
 * the query kernels and the serve engine, so every per-layer time is
 * a library call the benchmark itself made.
 */

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <functional>
#include <iterator>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "client/serve_client.hh"
#include "common/json_out.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/signal.hh"
#include "common/socket.hh"
#include "common/table.hh"
#include "query/dataset_index.hh"
#include "serve/engine.hh"
#include "serve/json.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

namespace perfbench
{

namespace
{

using etpu::Rng;
using etpu::SocketFd;
namespace serve = etpu::serve;
namespace query = etpu::query;

/** Server worker threads: fixed, never derived from the machine. */
constexpr unsigned serverWorkers = 2;

/** Per-workload load shape. */
struct LoadShape
{
    double nominalQps;      //!< open-loop rate of the nominal phase
    size_t burstRequests;   //!< fixed batch whose drain is wall_s
    size_t burstWindow;     //!< in-flight bound during a burst
    double limitMs;         //!< tail-latency limit for capacity
    std::vector<double> ladderQps;
    double ladderStepSeconds;
};

// Saturated throughput on a 4-core x86 host with 2 server workers is
// ~360 qps for the scan mix and ~15K qps for the point mix; each
// nominal rate sits well below it, high enough that an 8 s phase holds
// 1,000 requests (ten beyond p99).
const LoadShape scanShape = {
    125.0, 500, 16, 400.0, {160, 200, 250, 300, 400, 500, 650}, 0.75,
};

const LoadShape pointShape = {
    2000.0, 12000, 64, 25.0,
    {3200, 4800, 6400, 9600, 12800, 16000}, 0.5,
};

/** Tiny variants for the self-test: same phases, few requests. */
LoadShape
tinyShape(LoadShape s)
{
    s.burstRequests = 40;
    s.ladderQps.resize(2);
    s.ladderStepSeconds = 0.2;
    return s;
}

/** Generator inputs derived once from the full index (see prepare). */
struct Inputs
{
    /** Metric name -> 1001 quantiles (q[i] = value at i/1000). */
    std::map<std::string, std::vector<double>> quantiles;
    std::vector<std::string> cells;
};

Inputs
loadInputs(const std::string &dir)
{
    Inputs in;
    std::ifstream q(dir + "/quantiles.txt");
    std::string line;
    while (std::getline(q, line)) {
        std::istringstream ss(line);
        std::string name;
        ss >> name;
        std::vector<double> v;
        double x = 0.0;
        while (ss >> x)
            v.push_back(x);
        if (v.size() != 1001)
            etpu_fatal("quantile table ", dir, "/quantiles.txt is damaged");
        in.quantiles[name] = std::move(v);
    }
    std::ifstream c(dir + "/cells.txt");
    while (std::getline(c, line))
        in.cells.push_back(line);
    if (in.quantiles.empty() || in.cells.empty())
        etpu_fatal("missing generator inputs in ", dir);
    return in;
}

/** Metrics a generated filter or top-k ranks by. */
const char *const filterMetrics[] = {
    "accuracy", "params",     "macs",       "depth",
    "width",    "conv3x3",    "latency@V1", "latency@V2",
    "latency@V3", "energy@V1", "energy@V2",
};

/** Pareto objective pairs over the three configurations. */
const char *const paretoPairs[] = {
    "accuracy:max,latency@V1:min", "accuracy:max,latency@V2:min",
    "accuracy:max,latency@V3:min", "latency@V1:min,energy@V1:min",
    "latency@V2:min,energy@V2:min", "accuracy:max,energy@V1:min",
};

/** Discrete group-by keys and the aggregates bucket requests ask for. */
const char *const groupKeys[] = {"depth", "width", "conv3x3", "winner"};
const char *const aggLists[] = {
    "accuracy", "accuracy,latency@V1", "latency@V2,energy@V2",
    "accuracy,latency@V1,latency@V2,latency@V3",
};

/**
 * Parameter draws for the k-th request of one kind. Each discrete
 * choice cycles through its options from a seeded offset, and each
 * continuous value falls in the k-th of a fixed number of strata,
 * jittered by the seed. Scripts of one size then carry nearly the same
 * parameter mix whatever the seed, so their cost is steady from seed
 * to seed, while every request still changes with the seed.
 */
struct Draw
{
    Rng &rng;
    uint64_t k;      //!< ordinal of the request within its kind
    uint64_t offset; //!< per-script seeded rotation of the cycles

    /** Option (k + salt) of @p n, rotated by the offset. */
    size_t cycle(size_t n, uint64_t salt = 0) const
    {
        return static_cast<size_t>((k + offset + salt) % n);
    }
    /** A point of [0, 1) in stratum k mod @p strata. */
    double stratum(uint64_t strata, uint64_t salt = 0) const
    {
        return (static_cast<double>((k + salt) % strata) + rng.uniform()) /
               static_cast<double>(strata);
    }
};

template <typename T, size_t N>
const T &
pick(const Draw &d, const T (&arr)[N], uint64_t salt = 0)
{
    return arr[d.cycle(N, salt)];
}

/**
 * One filter clause whose selectivity falls log-uniformly in [lo, hi],
 * thresholded on the column's own quantiles.
 */
std::string
filterClause(const Draw &d, const Inputs &in, double lo, double hi,
             uint64_t salt)
{
    constexpr size_t metrics = std::size(filterMetrics);
    const std::string name = pick(d, filterMetrics, salt);
    const std::vector<double> &q = in.quantiles.at(name);
    double share = std::exp(std::log(lo) + (std::log(hi) - std::log(lo)) *
                                               d.stratum(16, salt));
    bool below = d.cycle(2 * metrics, salt) < metrics;
    size_t i = static_cast<size_t>(
        std::lround((below ? share : 1.0 - share) * 1000.0));
    std::ostringstream ss;
    ss.precision(17);
    ss << name << (below ? "<=" : ">=") << q[std::min<size_t>(i, 1000)];
    return ss.str();
}

/** A filter expression spanning ~0.1%..90% selectivity. */
std::string
filterExpr(const Draw &d, const Inputs &in)
{
    if (d.cycle(10) >= 3)
        return filterClause(d, in, 0.001, 0.9, 0);
    return filterClause(d, in, 0.03, 0.95, 3) + "," +
           filterClause(d, in, 0.03, 0.95, 7);
}

/** Kind of each generated request, for per-op accounting. */
enum class Op : uint8_t
{
    Ping,
    Count,
    Rows,
    TopK,
    Pareto,
    Bucket,
    Characterize,
};
constexpr size_t numOps = 7;
const char *const opNames[numOps] = {
    "ping", "count", "rows", "topk", "pareto", "bucket", "characterize",
};

struct ScriptRequest
{
    Op op = Op::Ping;
    std::string line; //!< no trailing newline; carries "id"
};

/** Request variants of the two mixes. */
enum class Kind : uint8_t
{
    Count,          //!< filtered count
    Rows,           //!< filtered rows, limit 1..32
    FilteredTopK,   //!< filtered top-k, k 1..20
    Pareto,         //!< unfiltered pareto over one objective pair
    FilteredPareto, //!< filtered pareto
    Bucket,         //!< unfiltered group-by with 1..4 aggregates
    FilteredBucket, //!< filtered group-by
    Ping,
    TopK,           //!< unfiltered top-k from a warmed sort order
    Characterize,   //!< 1..8 cells drawn from the space
};

/**
 * Weight of each kind in a workload's mix. The op shares follow the
 * dashboard stream of bench/bench_serve.cc (per 8 requests: count 2,
 * topk 2, rows, pareto, bucket and characterize 1 each). The scan mix
 * keeps its scan ops (characterize moves to serve_point) and splits
 * pareto and bucket evenly between unfiltered and filtered requests;
 * the point mix keeps topk 2 : characterize 1 and adds ping at the
 * weight of one stream slot. The two even splits and the ping weight
 * have no source; the traced run prints each op's share of execute
 * time (exec_share.<op>) so the weighting can be checked.
 */
const std::pair<Kind, int> scanMix[] = {
    {Kind::Count, 4},          {Kind::Rows, 2},
    {Kind::FilteredTopK, 4},   {Kind::Pareto, 1},
    {Kind::FilteredPareto, 1}, {Kind::Bucket, 1},
    {Kind::FilteredBucket, 1},
};
const std::pair<Kind, int> pointMix[] = {
    {Kind::Ping, 1},
    {Kind::TopK, 2},
    {Kind::Characterize, 1},
};

/** Draw one request of kind @p kind. */
ScriptRequest
makeRequest(const Draw &d, Kind kind, uint64_t id, const Inputs &in)
{
    Rng &rng = d.rng;
    ScriptRequest r;
    std::string &line = r.line;
    line = "{\"id\":" + std::to_string(id) + ",\"op\":";
    auto filter = [&] {
        line += ",\"filter\":" + etpu::jsonQuote(filterExpr(d, in));
    };
    auto order = [&] {
        line += std::string(",\"by\":\"") + pick(d, filterMetrics, 1) +
                "\",\"order\":\"" + (rng.uniformInt(2) ? "asc" : "desc") +
                "\"";
    };
    switch (kind) {
      case Kind::Count:
        r.op = Op::Count;
        line += "\"count\"";
        filter();
        break;
      case Kind::Rows:
        r.op = Op::Rows;
        line += "\"rows\",\"limit\":" +
                std::to_string(1 + rng.uniformInt(32));
        filter();
        break;
      case Kind::FilteredTopK:
        r.op = Op::TopK;
        line += "\"topk\",\"k\":" + std::to_string(1 + rng.uniformInt(20));
        order();
        filter();
        break;
      case Kind::Pareto:
      case Kind::FilteredPareto:
        r.op = Op::Pareto;
        line += std::string("\"pareto\",\"objectives\":\"") +
                pick(d, paretoPairs) + "\"";
        if (kind == Kind::FilteredPareto)
            filter();
        break;
      case Kind::Bucket:
      case Kind::FilteredBucket:
        r.op = Op::Bucket;
        line += std::string("\"bucket\",\"key\":\"") +
                pick(d, groupKeys) + "\",\"agg\":\"" +
                aggLists[d.cycle(std::size(aggLists) *
                                 std::size(groupKeys)) /
                         std::size(groupKeys)] +
                "\"";
        if (kind == Kind::FilteredBucket)
            filter();
        break;
      case Kind::Ping:
        r.op = Op::Ping;
        line += "\"ping\"";
        break;
      case Kind::TopK:
        r.op = Op::TopK;
        line += "\"topk\",\"k\":" + std::to_string(1 + rng.uniformInt(50));
        order();
        break;
      case Kind::Characterize: {
          r.op = Op::Characterize;
          line += "\"characterize\",\"cells\":[";
          uint64_t n = 1 + d.cycle(8);
          for (uint64_t i = 0; i < n; i++) {
              if (i)
                  line += ",";
              line += etpu::jsonQuote(
                  in.cells[rng.uniformInt(in.cells.size())]);
          }
          line += "]";
          break;
      }
    }
    line += "}";
    return r;
}

/**
 * A seeded script of @p n requests with exact mix quotas in shuffled
 * order, so a script's cost does not hinge on how many expensive
 * requests the seed happened to draw.
 */
std::vector<ScriptRequest>
makeScript(uint64_t seed, bool scan, size_t n, const Inputs &in)
{
    Rng rng(seed);
    std::vector<Kind> kinds;
    auto fill = [&](const auto &mix) {
        size_t total = 0;
        for (const auto &entry : mix)
            total += static_cast<size_t>(entry.second);
        for (const auto &[kind, weight] : mix) {
            size_t quota =
                (n * static_cast<size_t>(weight) + total / 2) / total;
            kinds.insert(kinds.end(), quota, kind);
        }
        kinds.resize(n, mix[0].first);
    };
    if (scan)
        fill(scanMix);
    else
        fill(pointMix);
    for (size_t i = n; i > 1; i--)
        std::swap(kinds[i - 1], kinds[rng.uniformInt(i)]);
    const uint64_t offset = rng.uniformInt(1 << 20);
    std::map<Kind, uint64_t> ordinal;
    std::vector<ScriptRequest> script;
    script.reserve(n);
    for (size_t i = 0; i < n; i++) {
        Draw d{rng, ordinal[kinds[i]]++, offset};
        script.push_back(makeRequest(d, kinds[i], i, in));
    }
    return script;
}

/** Poisson arrival offsets (seconds from phase start) at @p qps. */
std::vector<double>
poissonSchedule(uint64_t seed, size_t n, double qps)
{
    Rng rng(seed);
    std::vector<double> due(n);
    double t = 0.0;
    for (size_t i = 0; i < n; i++) {
        due[i] = t;
        t += -std::log(1.0 - rng.uniform()) / qps;
    }
    return due;
}

/** Responses kept per phase for the byte-identity check. */
constexpr size_t maxSampledPerPhase = 128;

/** Outcome of one open-loop phase. */
struct PhaseResult
{
    size_t sent = 0;
    size_t ok = 0;
    size_t failed = 0;
    size_t overloaded = 0; //!< failed with the "overloaded" code
    /** Per request, ms from scheduled send to response; NaN = failed. */
    std::vector<double> latencyMs;
    std::vector<double> lagMs; //!< generator lateness per send
    double wallS = 0.0;        //!< phase start to last response
    /** Raw response lines by request id (sampled ids only). */
    std::map<uint64_t, std::string> sampled;
    std::vector<std::string> problems;

    std::vector<double> okLatencies() const
    {
        std::vector<double> v;
        for (double x : latencyMs) {
            if (!std::isnan(x))
                v.push_back(x);
        }
        return v;
    }
};

/** The generator's connections (at most nproc). */
std::vector<SocketFd>
openConnections(uint16_t port, unsigned n)
{
    std::vector<SocketFd> conns;
    for (unsigned i = 0; i < n; i++) {
        SocketFd fd = etpu::connectTcp(port, 2000);
        if (!fd.valid())
            etpu_fatal("cannot connect to the benchmark server");
        conns.push_back(std::move(fd));
    }
    return conns;
}

/**
 * Run one phase: send script[i] at start + due[i] (open loop), or as
 * soon as fewer than @p window requests are in flight when window is
 * non-zero (a burst). A sender and a poll()ing receiver are the
 * generator's only threads.
 */
PhaseResult
runPhase(std::vector<SocketFd> &conns,
         const std::vector<ScriptRequest> &script,
         const std::vector<double> &due, size_t window,
         const std::function<bool(uint64_t)> &sample, Trace &trace,
         const std::string &span_name)
{
    const size_t n = script.size();
    PhaseResult res;
    res.sent = n;
    res.latencyMs.assign(n, std::nan(""));
    res.lagMs.reserve(n);
    std::vector<Clock::time_point> sendAt(n);
    std::vector<std::pair<Clock::time_point, std::string>> received;
    received.reserve(n);
    std::atomic<size_t> answered{0};
    std::atomic<bool> sendFailed{false};

    const Clock::time_point start = Clock::now();
    auto due_at = [&](size_t i) {
        return start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(due[i]));
    };
    std::thread sender([&] {
        for (size_t i = 0; i < n; i++) {
            if (window) {
                while (i - answered.load(std::memory_order_acquire) >=
                       window) {
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(20));
                }
            } else {
                std::this_thread::sleep_until(due_at(i));
            }
            Clock::time_point now = Clock::now();
            sendAt[i] = window ? now : due_at(i);
            if (!window) {
                res.lagMs.push_back(
                    std::chrono::duration<double, std::milli>(
                        now - due_at(i))
                        .count());
            }
            std::string wire = script[i].line + "\n";
            if (!etpu::writeAll(conns[i % conns.size()].get(), wire)) {
                sendFailed.store(true);
                return;
            }
        }
    });

    // Receiver: runs on this thread until every request is answered
    // or the deadline passes.
    const Clock::time_point deadline =
        due_at(n - 1) + std::chrono::seconds(30);
    std::vector<std::string> carry(conns.size());
    std::vector<pollfd> fds(conns.size());
    for (size_t c = 0; c < conns.size(); c++)
        fds[c] = {conns[c].get(), POLLIN, 0};
    std::vector<char> buf(1 << 16);
    while (received.size() < n && Clock::now() < deadline &&
           !sendFailed.load()) {
        int rc = ::poll(fds.data(), fds.size(), 50);
        if (rc <= 0)
            continue;
        for (size_t c = 0; c < conns.size(); c++) {
            if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            ssize_t got = ::read(fds[c].fd, buf.data(), buf.size());
            if (got <= 0) {
                res.problems.push_back("server closed a connection");
                sendFailed.store(true);
                break;
            }
            Clock::time_point now = Clock::now();
            carry[c].append(buf.data(), static_cast<size_t>(got));
            size_t pos = 0;
            for (size_t nl; (nl = carry[c].find('\n', pos)) !=
                            std::string::npos;
                 pos = nl + 1) {
                received.emplace_back(now,
                                      carry[c].substr(pos, nl - pos));
                answered.fetch_add(1, std::memory_order_release);
            }
            carry[c].erase(0, pos);
        }
    }
    sender.join();
    res.wallS = secondsSince(start);

    // Validate every response with the strict protocol parser.
    std::vector<bool> seen(n, false);
    for (const auto &[at, line] : received) {
        std::string error;
        auto doc = serve::parseJson(line, &error);
        const serve::JsonValue *id = doc ? doc->find("id") : nullptr;
        const serve::JsonValue *status =
            doc ? doc->find("status") : nullptr;
        if (!doc || !id || !id->isNumber() || !status ||
            !status->isString() || id->number < 0 ||
            id->number >= static_cast<double>(n) ||
            seen[static_cast<size_t>(id->number)]) {
            res.problems.push_back("malformed or duplicate response: " +
                                   line.substr(0, 120));
            continue;
        }
        auto i = static_cast<size_t>(id->number);
        seen[i] = true;
        if (status->string != "ok") {
            // A refusal is a failed request; any other error is a bug.
            const serve::JsonValue *code = doc->find("code");
            if (code && code->isString() && code->string == "overloaded")
                res.overloaded++;
            else
                res.problems.push_back("error response: " +
                                       line.substr(0, 160));
            continue;
        }
        res.ok++;
        res.latencyMs[i] =
            std::chrono::duration<double, std::milli>(at - sendAt[i])
                .count();
        if (trace.enabled())
            trace.record(span_name, sendAt[i], at, i + 1);
        if (sample(i))
            res.sampled[i] = line;
    }
    // Keep the lowest sampled ids: the same set on every run.
    while (res.sampled.size() > maxSampledPerPhase)
        res.sampled.erase(std::prev(res.sampled.end()));
    res.failed = n - res.ok;
    if (received.size() < n) {
        res.problems.push_back(std::to_string(n - received.size()) +
                               " requests never answered");
    }
    return res;
}

/** A started server with its run() thread; stops on destruction. */
class RunningServer
{
  public:
    explicit RunningServer(const std::string &dataset)
    {
        serve::ServerOptions o;
        o.workers = serverWorkers;
        o.engine.datasetPath = dataset;
        server_ = std::make_unique<serve::Server>(std::move(o));
        if (!server_->start())
            etpu_fatal("cannot bind the benchmark server socket");
        thread_ = std::thread([this] { server_->run(); });
    }
    ~RunningServer()
    {
        server_->requestStop();
        thread_.join();
        // The stop request is process-wide; clear it for the next
        // server.
        etpu::resetShutdownSignals();
    }
    RunningServer(const RunningServer &) = delete;
    RunningServer &operator=(const RunningServer &) = delete;

    uint16_t port() const { return server_->port(); }
    const serve::ServerCounters &counters() const
    {
        return server_->counters();
    }

  private:
    std::unique_ptr<serve::Server> server_;
    std::thread thread_;
};

/** One ping over a fresh connection; false if not answered ok. */
bool
pingOnce(uint16_t port)
{
    SocketFd fd = etpu::connectTcp(port, 2000);
    if (!fd.valid() || !etpu::writeAll(fd.get(), "{\"op\":\"ping\"}\n"))
        return false;
    std::string carry;
    std::string line;
    if (etpu::readLineDeadline(fd.get(), carry, line, 1 << 16, 10'000) !=
        etpu::LineRead::Ok) {
        return false;
    }
    auto doc = serve::parseJson(line);
    const serve::JsonValue *status = doc ? doc->find("status") : nullptr;
    return status && status->isString() && status->string == "ok";
}

/** Re-execute a sampled request in-process: the expected bytes. */
std::string
expectedResponse(serve::ServeEngine &engine, const std::string &line)
{
    serve::ParsedRequest p = serve::parseRequest(line);
    if (!p.ok)
        return "unparseable: " + p.error;
    if (p.req.op != serve::RequestOp::Characterize)
        return engine.execute(p.req);
    std::vector<std::vector<std::string>> rows;
    engine.characterize(p.req.cells, 0, rows);
    return serve::okResponse(
        p.req.id, serve::rowsPayload(serve::ServeEngine::characterizeHeader(),
                                     rows, p.req.cells.size()));
}

/** Host times of one engine-call pass over a request script. */
struct EngineTimes
{
    std::vector<double> parseUs;
    std::vector<std::vector<double>> execUs =
        std::vector<std::vector<double>>(numOps);
    std::vector<double> perCellUs; //!< characterize, per cell
    double wallS = 0.0;
    bool allParsed = true;
};

/**
 * Parse every request of @p script, then execute it in-process (or
 * characterize its cells), with one span per call.
 */
EngineTimes
engineCalls(serve::ServeEngine &engine,
            const std::vector<ScriptRequest> &script, Trace &trace)
{
    EngineTimes out;
    std::vector<std::vector<std::string>> rows;
    auto start = Clock::now();
    for (size_t i = 0; i < script.size(); i++) {
        const ScriptRequest &r = script[i];
        auto t0 = Clock::now();
        serve::ParsedRequest p = [&] {
            auto span = trace.scope("serve.parseRequest", i + 1);
            return serve::parseRequest(r.line);
        }();
        auto t1 = Clock::now();
        out.parseUs.push_back(seconds(t1 - t0) * 1e6);
        if (!p.ok) {
            out.allParsed = false;
            continue;
        }
        std::vector<double> &exec = out.execUs[static_cast<size_t>(r.op)];
        if (p.req.op == serve::RequestOp::Characterize) {
            rows.clear();
            auto span = trace.scope("tpusim.characterize", i + 1);
            engine.characterize(p.req.cells, 0, rows);
            double us = secondsSince(t1) * 1e6;
            exec.push_back(us);
            out.perCellUs.push_back(
                us / static_cast<double>(p.req.cells.size()));
        } else {
            auto span = trace.scope(std::string("serve.execute.") +
                                        opNames[static_cast<size_t>(r.op)],
                                    i + 1);
            std::string response = engine.execute(p.req);
            exec.push_back(secondsSince(t1) * 1e6);
        }
    }
    out.wallS = secondsSince(start);
    return out;
}

/**
 * Fold a phase's tallies and problems into the report. With
 * @p excuse_overloaded (the capacity ladder, which pushes past
 * capacity on purpose) an "overloaded" refusal is not a failed
 * operation; every other problem still fails the run.
 */
void
account(Report &report, const PhaseResult &r, const std::string &phase,
        bool excuse_overloaded = false)
{
    report.attempted += r.sent;
    report.failed += r.failed - (excuse_overloaded ? r.overloaded : 0);
    for (const std::string &p : r.problems)
        report.check(false, phase + ": " + p);
}

/**
 * Requests of the scan script replayed by the traced per-layer calls
 * (10 cycles of the 14-request mix).
 */
constexpr size_t scanLayerRequests = 140;

/** p99 of generator lateness above which a rate is not reported. */
constexpr double maxGenLagMs = 5.0;

} // namespace

void
runServe(const RunOptions &opts, bool scan, Trace &trace, Report &report)
{
    const LoadShape shape =
        opts.tiny ? tinyShape(scan ? scanShape : pointShape)
                  : (scan ? scanShape : pointShape);
    const std::string dataset = opts.inputPath + "/full.bin";
    const Inputs in = loadInputs(opts.inputPath);
    // The generator holds at most nproc connections.
    const unsigned nconn =
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    etpu::resetShutdownSignals();

    // Set-up: server start (cache stream, index build, sort-order
    // warm-up, worker pool) until the first ping is answered.
    std::vector<double> setup;
    std::unique_ptr<RunningServer> server;
    for (int i = 0; i < 3; i++) {
        server.reset();
        auto t0 = Clock::now();
        server = std::make_unique<RunningServer>(dataset);
        bool ok = pingOnce(server->port());
        setup.push_back(secondsSince(t0));
        report.check(ok, "set-up ping was not answered ok");
    }
    Report::setSample(report.endToEnd, "setup_s", setup, "s");

    std::vector<SocketFd> conns = openConnections(server->port(), nconn);
    const std::function<bool(uint64_t)> sampled = [&](uint64_t id) {
        return deriveSeed(opts.seed, 0x5a3d + id) % 16 == 0;
    };
    const std::function<bool(uint64_t)> none = [](uint64_t) {
        return false;
    };
    std::map<std::string, std::pair<std::string, std::string>> checks;
    auto keepSamples = [&](const std::string &phase,
                           const std::vector<ScriptRequest> &script,
                           const PhaseResult &r) {
        for (const auto &[id, line] : r.sampled)
            checks[phase + "#" + std::to_string(id)] = {script[id].line,
                                                       line};
    };

    // Warm-up: first touches of every code path, untimed.
    Trace off(false);
    {
        auto script = makeScript(deriveSeed(opts.seed, 1), scan, 64, in);
        runPhase(conns, script, std::vector<double>(script.size(), 0.0),
                 8, none, off, "");
    }

    // Nominal phase: --seconds of Poisson arrivals at the nominal
    // rate (the self-test's tiny run sends at least 50).
    const size_t nominal_n = std::max<size_t>(
        50, static_cast<size_t>(shape.nominalQps * opts.seconds));
    auto nominal_script =
        makeScript(deriveSeed(opts.seed, 2), scan, nominal_n, in);
    auto nominal_due = poissonSchedule(deriveSeed(opts.seed, 3), nominal_n,
                                       shape.nominalQps);
    PhaseResult nominal = runPhase(conns, nominal_script, nominal_due, 0,
                                   sampled, trace, "serve.request");
    account(report, nominal, "nominal");
    keepSamples("nominal", nominal_script, nominal);
    std::vector<double> lag = nominal.lagMs;
    std::sort(lag.begin(), lag.end());
    const double lag_p99 = percentile(lag, 99.0);
    Report::set(report.extra, "gen_lag_p99_ms", lag_p99, "ms");
    Report::set(report.perLayer, "bench.gen_lag_ms", lag_p99, "ms");
    std::vector<double> lat = nominal.okLatencies();
    std::sort(lat.begin(), lat.end());
    // The nominal rate is the ladder's first rung.
    bool nominal_ok = false;
    if (lag_p99 > maxGenLagMs) {
        std::cout << "nominal phase refused: the generator ran "
                  << lag_p99 << " ms late at p99\n";
    } else {
        Report::setSample(report.extra, "p50_ms", lat, "ms");
        double tail = supportedTailPercentile(lat.size());
        const std::string name = "p" + etpu::fmtDouble(tail, 0) + "_ms";
        Report::set(report.extra, name, percentile(lat, tail), "ms");
        report.extra[name].summary.n = lat.size();
        nominal_ok = nominal.failed == 0 &&
                     percentile(lat, tail) <= shape.limitMs;
    }

    // Burst phase: wall_s is the median drain time of one fixed
    // seeded batch under a bounded in-flight window.
    auto burst_script = makeScript(deriveSeed(opts.seed, 4), scan,
                                   shape.burstRequests, in);
    std::vector<double> burst_wall;
    const int bursts = opts.trace ? 1 : 4;
    for (int b = 0; b < bursts; b++) {
        PhaseResult r = runPhase(
            conns, burst_script,
            std::vector<double>(burst_script.size(), 0.0),
            shape.burstWindow, b == 0 ? sampled : none, off, "");
        account(report, r, "burst");
        if (b == 0)
            keepSamples("burst", burst_script, r);
        burst_wall.push_back(r.wallS);
    }
    Report::setSample(report.endToEnd, "wall_s", burst_wall, "s");

    // Refusals outside the ladder fail the run; the ladder probes
    // past capacity on purpose.
    const uint64_t overloaded = server->counters().overloaded.load();

    // Capacity ladder (untraced runs): fixed rates, each a fresh
    // Poisson schedule; stop at the first rate that misses. 0 means
    // even the nominal rate missed.
    if (!opts.trace) {
        double capacity = nominal_ok ? shape.nominalQps : 0.0;
        size_t rung = 0;
        for (double qps : nominal_ok ? shape.ladderQps
                                     : std::vector<double>()) {
            size_t reqs = static_cast<size_t>(qps * shape.ladderStepSeconds);
            auto script = makeScript(deriveSeed(opts.seed, 100 + rung),
                                     scan, reqs, in);
            auto due = poissonSchedule(deriveSeed(opts.seed, 200 + rung),
                                       reqs, qps);
            rung++;
            PhaseResult r = runPhase(conns, script, due, 0, none, off, "");
            account(report, r, "ladder " + etpu::fmtDouble(qps, 0) + " qps",
                    true);
            std::vector<double> l = r.okLatencies();
            std::vector<double> sorted_lag = r.lagMs;
            std::sort(sorted_lag.begin(), sorted_lag.end());
            std::sort(l.begin(), l.end());
            double p = supportedTailPercentile(l.size());
            // Backlog: the last quarter of the schedule waits far
            // longer than the first.
            auto quarter = [&](size_t q) {
                std::vector<double> v;
                for (size_t i = q * reqs / 4; i < (q + 1) * reqs / 4; i++) {
                    v.push_back(std::isnan(r.latencyMs[i])
                                    ? shape.limitMs * 10
                                    : r.latencyMs[i]);
                }
                return summarize(v).median;
            };
            bool backlog =
                quarter(3) > std::max(2.0 * quarter(0),
                                      quarter(0) + shape.limitMs / 4);
            bool late = percentile(sorted_lag, 99.0) > maxGenLagMs;
            bool pass = !late && r.failed == 0 && !backlog &&
                        percentile(l, p) <= shape.limitMs;
            std::cout << "ladder " << qps << " qps: p"
                      << etpu::fmtDouble(p, 0) << " "
                      << etpu::fmtDouble(percentile(l, p), 2) << " ms, "
                      << r.failed << " failed"
                      << (backlog ? ", backlog grows" : "")
                      << (late ? ", generator late (refused)" : "")
                      << (pass ? "" : " -> stop") << "\n";
            if (!pass)
                break;
            capacity = qps;
        }
        Report::set(report.extra, "capacity_qps", capacity, "1/s");
        Report::set(report.extra, "limit_ms", shape.limitMs, "ms");
    }
    const double rss = peakRssMb();

    // Ping round trip through the retrying client (closed loop).
    if (opts.trace) {
        etpu::client::ClientOptions co;
        co.port = server->port();
        etpu::client::ServeClient cli(co);
        std::vector<double> rtt;
        for (int i = 0; i < 200; i++) {
            auto t0 = Clock::now();
            auto span = trace.scope("serve.ping_rtt");
            etpu::client::CallResult r = cli.call("{\"op\":\"ping\"}");
            rtt.push_back(secondsSince(t0) * 1e6);
            report.check(r.answered && r.ok, "closed-loop ping failed");
        }
        Report::setSample(report.perLayer, "serve.ping_rtt_us", rtt, "us");
        Report::set(report.perLayer, "serve.retries",
                    static_cast<double>(cli.counters().retries), "count");
        Report::set(report.perLayer, "serve.overloaded",
                    static_cast<double>(overloaded), "count");
    }
    conns.clear();
    server.reset();
    Report::set(report.endToEnd, "peak_rss_mb", rss, "MiB");
    report.check(overloaded == 0,
                 "the server refused " + std::to_string(overloaded) +
                     " requests as overloaded");

    // Byte-identity of a seeded sample against in-process execution.
    serve::EngineOptions eo;
    eo.datasetPath = dataset;
    serve::ServeEngine engine(eo, 1);
    size_t mismatches = 0;
    for (const auto &[key, pair] : checks) {
        // Response lines are compared with their newline restored.
        if (expectedResponse(engine, pair.first) != pair.second + "\n") {
            if (mismatches++ < 3) {
                report.check(false, key + " differs from in-process "
                                          "execution: " +
                                          pair.second.substr(0, 120));
            }
        }
    }
    report.check(mismatches == 0, std::to_string(mismatches) +
                                      " sampled responses differ");
    report.check(!checks.empty(), "no response was sampled for checking");
    std::cout << "checked " << checks.size()
              << " sampled responses byte for byte against in-process "
                 "execution\n";

    if (!opts.trace)
        return;

    // Traced per-layer calls, on the head of the nominal script: the
    // scan mix's pareto requests make the whole script too slow to
    // replay.
    const std::vector<ScriptRequest> layer_script(
        nominal_script.begin(),
        nominal_script.begin() +
            static_cast<std::ptrdiff_t>(std::min(
                nominal_script.size(),
                scan ? scanLayerRequests : nominal_script.size())));
    {
        query::DatasetIndex idx;
        auto t0 = Clock::now();
        {
            auto span = trace.scope("query.buildFromCache");
            if (!query::DatasetIndex::buildFromCache(dataset, idx))
                etpu_fatal("cannot load ", dataset);
        }
        Report::set(report.perLayer, "query.index_load_s",
                    secondsSince(t0), "s");
        std::vector<double> pareto, bucket, filter, count, topk, matched;
        std::vector<uint32_t> rows;
        for (const ScriptRequest &r : layer_script) {
            serve::ParsedRequest p = serve::parseRequest(r.line);
            if (!p.ok)
                continue;
            const serve::Request &q = p.req;
            auto t = Clock::now();
            switch (q.op) {
              case serve::RequestOp::Count: {
                  auto span = trace.scope("query.count");
                  idx.filterRows(q.filter, rows);
                  count.push_back(secondsSince(t) * 1e6);
                  matched.push_back(static_cast<double>(rows.size()));
                  break;
              }
              case serve::RequestOp::Rows: {
                  auto span = trace.scope("query.filterRows");
                  idx.filterRows(q.filter, rows);
                  filter.push_back(secondsSince(t) * 1e6);
                  matched.push_back(static_cast<double>(rows.size()));
                  break;
              }
              case serve::RequestOp::TopK: {
                  auto span = trace.scope("query.topK");
                  idx.topK(q.by, q.k, q.order, rows, &q.filter);
                  topk.push_back(secondsSince(t) * 1e6);
                  break;
              }
              case serve::RequestOp::Pareto: {
                  auto span = trace.scope("query.paretoFront");
                  idx.paretoFront(q.objectives, rows, &q.filter);
                  pareto.push_back(secondsSince(t) * 1e6);
                  break;
              }
              case serve::RequestOp::Bucket: {
                  auto span = trace.scope("query.groupBy");
                  query::GroupAggregate g =
                      idx.groupBy(q.bucketKey, q.aggs, &q.filter);
                  bucket.push_back(secondsSince(t) * 1e6);
                  static_cast<void>(g);
                  break;
              }
              default:
                break;
            }
        }
        auto put = [&](const char *name, const std::vector<double> &v,
                       const char *unit) {
            if (!v.empty())
                Report::setSample(report.perLayer, name, v, unit);
        };
        put("query.pareto_us", pareto, "us");
        put("query.bucket_us", bucket, "us");
        put("query.filter_us", filter, "us");
        put("query.count_us", count, "us");
        put("query.topk_us", topk, "us");
        put("query.rows_matched", matched, "count");
    }

    // Serve engine calls: parse, then execute or characterize. After
    // an untraced warm-up pass (first sort orders), the pass runs
    // untraced, then traced, for bench.trace_overhead; the per-layer
    // times come from the traced pass.
    engineCalls(engine, layer_script, off);
    const EngineTimes plain = engineCalls(engine, layer_script, off);
    const EngineTimes timed = engineCalls(engine, layer_script, trace);
    report.check(timed.allParsed, "generated request does not parse");
    Report::set(report.perLayer, "bench.trace_overhead",
                timed.wallS / plain.wallS - 1.0, "share");
    Report::setSample(report.perLayer, "serve.parse_us", timed.parseUs,
                      "us");
    std::vector<double> op_median(numOps, 0.0);
    double exec_total = 0.0;
    for (size_t o = 0; o < numOps; o++) {
        for (double us : timed.execUs[o])
            exec_total += us;
    }
    for (size_t o = 0; o < numOps; o++) {
        if (timed.execUs[o].empty())
            continue;
        Report::setSample(report.perLayer,
                          std::string("serve.execute_us.") + opNames[o],
                          timed.execUs[o], "us");
        op_median[o] = summarize(timed.execUs[o]).median;
        double sum = 0.0;
        for (double us : timed.execUs[o])
            sum += us;
        Report::set(report.extra, std::string("exec_share.") + opNames[o],
                    sum / exec_total, "share");
    }
    if (!timed.perCellUs.empty()) {
        Report::setSample(report.perLayer, "tpusim.characterize_us",
                          timed.perCellUs, "us");
    }
    // Queue wait: what a client waited beyond the op's own execute
    // time, averaged over the nominal phase.
    double wait_sum = 0.0;
    size_t wait_n = 0;
    for (size_t i = 0; i < nominal_script.size(); i++) {
        if (std::isnan(nominal.latencyMs[i]))
            continue;
        size_t o = static_cast<size_t>(nominal_script[i].op);
        wait_sum += std::max(0.0, nominal.latencyMs[i] -
                                      op_median[o] / 1000.0);
        wait_n++;
    }
    if (wait_n) {
        Report::set(report.perLayer, "serve.queue_wait_ms",
                    wait_sum / static_cast<double>(wait_n), "ms");
    }
}

/** Write the generator inputs next to the prepared full cache. */
void
writeServeInputs(const std::string &dir, const std::string &dataset)
{
    etpu::nas::Dataset ds;
    if (!etpu::nas::Dataset::load(dataset, ds))
        etpu_fatal("cannot load ", dataset);
    const query::DatasetIndex idx = query::DatasetIndex::build(ds);
    std::ofstream q(dir + "/quantiles.txt", std::ios::trunc);
    q.precision(17);
    for (const char *name : filterMetrics) {
        auto m = query::parseMetric(name);
        if (!m)
            etpu_fatal("unknown metric ", name);
        std::vector<double> col = idx.column(*m);
        std::sort(col.begin(), col.end());
        q << name;
        for (int i = 0; i <= 1000; i++) {
            q << ' '
              << col[static_cast<size_t>(i) * (col.size() - 1) / 1000];
        }
        q << '\n';
    }
    std::ofstream c(dir + "/cells.txt", std::ios::trunc);
    for (const etpu::nas::ModelRecord &r : ds.records)
        c << r.spec.str() << '\n';
    q.flush();
    c.flush();
    if (!q || !c)
        etpu_fatal("cannot write generator inputs to ", dir);
}

} // namespace perfbench
