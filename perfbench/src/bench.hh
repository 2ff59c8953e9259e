/**
 * @file
 * Shared machinery of the seeded benchmark: sample summaries, the
 * in-memory span trace, the metric report and the per-workload entry
 * points. Every timing here is host time (std::chrono::steady_clock);
 * simulated statistics are only ever checked for identity.
 */

#ifndef ETPU_PERFBENCH_BENCH_HH
#define ETPU_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** Duration in seconds. */
double seconds(Clock::duration d);

/** Median and quartiles of a sample, as statistics.quantiles(n=4). */
struct Summary
{
    size_t n = 0;
    double median = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;
};

/** Summarize @p values (exclusive-method quartiles, like Python). */
Summary summarize(std::vector<double> values);

/**
 * Value at percentile @p p (0..100) of @p sorted, linear
 * interpolation between closest ranks; 0 for an empty sample.
 */
double percentile(const std::vector<double> &sorted, double p);

/**
 * The highest of p99, p95, p90 and p50 that leaves at least ten
 * samples beyond it in a sample of @p n, so a reported tail is never
 * an extrapolation. Returns 0 when not even p50 qualifies.
 */
double supportedTailPercentile(size_t n);

/**
 * In-memory span trace. Spans record name, start, end, the span that
 * caused them and a request id shared by the spans of one request;
 * they stay in memory and are written out once, when the run ends. A
 * disabled trace records nothing (one branch per call site).
 */
class Trace
{
  public:
    struct Span
    {
        std::string name;
        uint64_t id = 0;
        uint64_t parent = 0; //!< 0 = root
        uint64_t request = 0;
        Clock::time_point start;
        Clock::time_point end;
    };

    /** Open span: closes itself at scope exit. */
    class Scope
    {
      public:
        Scope(Trace *trace, uint64_t id) : trace_(trace), id_(id) {}
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Trace *trace_;
        uint64_t id_;
    };

    explicit Trace(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /**
     * Open a span nested under the innermost span still open on this
     * thread.
     */
    Scope scope(const std::string &name, uint64_t request = 0);

    /** Record an already finished span (cross-thread requests). */
    void record(const std::string &name, Clock::time_point start,
                Clock::time_point end, uint64_t request);

    /** Sum of the durations of spans named @p name, in seconds. */
    double totalSeconds(const std::string &name) const;

    /**
     * Self time per layer (the span-name prefix before the first
     * '.'): each span's duration minus the part its direct children
     * cover. Also counts spans per layer.
     */
    void layerSelfTime(std::map<std::string, double> &self_s,
                       std::map<std::string, uint64_t> &calls) const;

    /** Write every span as JSON lines to @p path. */
    bool write(const std::string &path) const;

  private:
    void close(uint64_t id);

    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    uint64_t nextId_ = 1;
    Clock::time_point origin_ = Clock::now();
};

/** One reported metric. */
struct Metric
{
    double value = 0.0;
    std::string unit;
    /** Distribution behind @c value, when it is a sample median. */
    Summary summary;
};

/**
 * Everything one run measured: end-to-end and per-layer metrics by
 * name, the operation tallies and the correctness verdict.
 */
struct Report
{
    std::map<std::string, Metric> endToEnd;
    std::map<std::string, Metric> perLayer;
    /** Figures printed for the reader but not part of the JSON line. */
    std::map<std::string, Metric> extra;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures;

    /** Declare every per-layer metric at 0 (idle layers stay 0). */
    Report();

    /** Set @p name in @p group to a single value. */
    static void set(std::map<std::string, Metric> &group,
                    const std::string &name, double value,
                    const std::string &unit);
    /** Set @p name in @p group to the median of @p samples. */
    static void setSample(std::map<std::string, Metric> &group,
                          const std::string &name,
                          const std::vector<double> &samples,
                          const std::string &unit);

    /** Record a correctness check; a false one fails the run. */
    void check(bool ok, const std::string &what);

    bool correct() const { return failures.empty(); }
};

/** Options shared by every workload. */
struct RunOptions
{
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Tiny inputs for the self-test (no pinned digests apply). */
    bool tiny = false;
    /** The prepared full-space dataset cache (serve workloads). */
    std::string inputPath;
    /** Directory for the run's own files (caches, trace). */
    std::string scratchDir;
};

/** Worker threads of the library's parallel loops: fixed, not nproc. */
constexpr unsigned libraryThreads = 4;

void runCampaign(const RunOptions &opts, Trace &trace, Report &report);
void runServe(const RunOptions &opts, bool scan, Trace &trace,
              Report &report);
void runSearch(const RunOptions &opts, Trace &trace, Report &report);

/**
 * Write the serve generators' inputs into @p dir: per-metric quantile
 * tables of the full index (filter thresholds) and every cell string
 * (characterize requests).
 */
void writeServeInputs(const std::string &dir, const std::string &dataset);

/** Peak resident set size of this process so far, MiB. */
double peakRssMb();

/** Deterministic 64-bit stream derived from the benchmark seed. */
uint64_t deriveSeed(uint64_t seed, uint64_t stream);

} // namespace perfbench

#endif // ETPU_PERFBENCH_BENCH_HH
