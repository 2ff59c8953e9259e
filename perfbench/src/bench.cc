#include "bench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <unordered_map>

#include "common/hash.hh"
#include "common/json_out.hh"

namespace perfbench
{

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

double
secondsSince(Clock::time_point start)
{
    return seconds(Clock::now() - start);
}

Summary
summarize(std::vector<double> values)
{
    Summary s;
    s.n = values.size();
    if (values.empty())
        return s;
    std::sort(values.begin(), values.end());
    s.median = percentile(values, 50.0);
    if (values.size() < 2) {
        s.q1 = s.q3 = s.median;
        return s;
    }
    // statistics.quantiles(values, n=4) with the default "exclusive"
    // method: position j*(n+1)/4, 1-based, clamped to the ends.
    auto at = [&](double pos) {
        double n = static_cast<double>(values.size());
        pos = std::clamp(pos, 1.0, n);
        size_t lo = static_cast<size_t>(pos) - 1;
        size_t hi = std::min(lo + 1, values.size() - 1);
        double frac = pos - std::floor(pos);
        return values[lo] + (values[hi] - values[lo]) * frac;
    };
    double n1 = static_cast<double>(values.size()) + 1.0;
    s.q1 = at(n1 / 4.0);
    s.q3 = at(3.0 * n1 / 4.0);
    return s;
}

double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double
supportedTailPercentile(size_t n)
{
    for (double p : {99.0, 95.0, 90.0, 50.0}) {
        if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0)
            return p;
    }
    return 0.0;
}

namespace
{

/** Innermost open span per thread, for implicit parenting. */
thread_local std::vector<uint64_t> openSpans;

} // namespace

Trace::Scope::~Scope()
{
    if (trace_)
        trace_->close(id_);
}

Trace::Scope
Trace::scope(const std::string &name, uint64_t request)
{
    if (!enabled_)
        return Scope(nullptr, 0);
    Span s;
    s.name = name;
    s.parent = openSpans.empty() ? 0 : openSpans.back();
    s.request = request;
    s.start = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    s.id = nextId_++;
    openSpans.push_back(s.id);
    spans_.push_back(std::move(s));
    return Scope(this, spans_.back().id);
}

void
Trace::close(uint64_t id)
{
    Clock::time_point now = Clock::now();
    if (!openSpans.empty() && openSpans.back() == id)
        openSpans.pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    // Span ids are dense and 1-based in recording order.
    spans_[id - 1].end = now;
}

void
Trace::record(const std::string &name, Clock::time_point start,
              Clock::time_point end, uint64_t request)
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    Span s;
    s.name = name;
    s.id = nextId_++;
    s.request = request;
    s.start = start;
    s.end = end;
    spans_.push_back(std::move(s));
}

double
Trace::totalSeconds(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    double total = 0.0;
    for (const Span &s : spans_) {
        if (s.name == name)
            total += seconds(s.end - s.start);
    }
    return total;
}

void
Trace::layerSelfTime(std::map<std::string, double> &self_s,
                     std::map<std::string, uint64_t> &calls) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::unordered_map<uint64_t, double> child_s;
    for (const Span &s : spans_) {
        if (s.parent)
            child_s[s.parent] += seconds(s.end - s.start);
    }
    for (const Span &s : spans_) {
        std::string layer = s.name.substr(0, s.name.find('.'));
        double self = seconds(s.end - s.start);
        if (auto it = child_s.find(s.id); it != child_s.end())
            self -= it->second;
        self_s[layer] += std::max(0.0, self);
        calls[layer]++;
    }
}

bool
Trace::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path, std::ios::trunc);
    for (const Span &s : spans_) {
        auto us = [&](Clock::time_point t) {
            return std::chrono::duration<double, std::micro>(t - origin_)
                .count();
        };
        out << "{\"name\":" << etpu::jsonQuote(s.name)
            << ",\"id\":" << s.id << ",\"parent\":" << s.parent
            << ",\"request\":" << s.request
            << ",\"start_us\":" << etpu::jsonNumber(us(s.start))
            << ",\"end_us\":" << etpu::jsonNumber(us(s.end)) << "}\n";
    }
    out.flush();
    return static_cast<bool>(out);
}

namespace
{

/** Every per-layer metric, with its unit; see README.md. */
const std::pair<const char *, const char *> perLayerMetrics[] = {
    {"nasbench.enumerate_s", "s"},
    {"nasbench.build_network_us", "us"},
    {"tpusim.lower_us", "us"},
    {"tpusim.annotate_simulate_us", "us"},
    {"tpusim.characterize_us", "us"},
    {"pipeline.build_s", "s"},
    {"pipeline.write_s", "s"},
    {"pipeline.records", "count"},
    {"runtime.speedup", "x"},
    {"runtime.batch_eval_us", "us"},
    {"query.index_load_s", "s"},
    {"query.pareto_us", "us"},
    {"query.bucket_us", "us"},
    {"query.filter_us", "us"},
    {"query.count_us", "us"},
    {"query.topk_us", "us"},
    {"query.rows_matched", "count"},
    {"serve.parse_us", "us"},
    {"serve.ping_rtt_us", "us"},
    {"serve.execute_us.ping", "us"},
    {"serve.execute_us.count", "us"},
    {"serve.execute_us.rows", "us"},
    {"serve.execute_us.topk", "us"},
    {"serve.execute_us.pareto", "us"},
    {"serve.execute_us.bucket", "us"},
    {"serve.execute_us.characterize", "us"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.overloaded", "count"},
    {"serve.retries", "count"},
    {"search.driver_us_per_proposal", "us"},
    {"search.eval_us", "us"},
    {"search.proposals", "count"},
    {"search.sim_evals", "count"},
    {"search.memo_hit_ratio", "share"},
    {"search.pool_index_s", "s"},
    {"search.truth_s", "s"},
    {"bench.gen_lag_ms", "ms"},
    {"bench.trace_overhead", "share"},
};

/** Layers whose span self time and span count are reported. */
const char *const tracedLayers[] = {
    "nasbench", "tpusim", "pipeline", "runtime",
    "query",    "serve",  "search",
};

} // namespace

Report::Report()
{
    for (const auto &[name, unit] : perLayerMetrics)
        set(perLayer, name, 0.0, unit);
    for (const char *layer : tracedLayers) {
        set(perLayer, std::string(layer) + ".self_ms", 0.0, "ms");
        set(perLayer, std::string(layer) + ".spans", 0.0, "count");
    }
}

void
Report::set(std::map<std::string, Metric> &group, const std::string &name,
            double value, const std::string &unit)
{
    Metric m;
    m.value = value;
    m.unit = unit;
    m.summary.n = 1;
    m.summary.median = m.summary.q1 = m.summary.q3 = value;
    group[name] = std::move(m);
}

void
Report::setSample(std::map<std::string, Metric> &group,
                  const std::string &name,
                  const std::vector<double> &samples,
                  const std::string &unit)
{
    Metric m;
    m.summary = summarize(samples);
    m.value = m.summary.median;
    m.unit = unit;
    group[name] = std::move(m);
}

void
Report::check(bool ok, const std::string &what)
{
    if (!ok)
        failures.push_back(what);
}

double
peakRssMb()
{
    struct rusage ru
    {
    };
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

uint64_t
deriveSeed(uint64_t seed, uint64_t stream)
{
    return etpu::mix64(seed * 0x9e3779b97f4a7c15ull + stream);
}

} // namespace perfbench
