/**
 * @file
 * The campaign workload: the paper's characterization campaign end to
 * end. Enumerate the full 423,624-cell space, then build the dataset
 * with pipeline::buildDatasetSharded on the simulator backend into a
 * scratch cache. The input does not depend on the seed; the seed only
 * picks the cells the traced per-stage breakdown samples.
 *
 * Correctness: every finished cache must match a pinned CRC-32 of its
 * bytes (a speed-only change cannot move a simulated statistic), and
 * the last one must reload strictly with every record.
 */

#include <cstdio>
#include <fstream>
#include <iterator>

#include "bench.hh"
#include "common/checksum.hh"
#include "common/rng.hh"
#include "nasbench/enumerator.hh"
#include "pipeline/builder.hh"
#include "tpusim/eval_context.hh"

namespace perfbench
{

namespace
{

namespace nas = etpu::nas;
namespace pipeline = etpu::pipeline;
namespace sim = etpu::sim;

/** Shard count of the full cache (the automatic count, pinned). */
constexpr size_t campaignShards = 7;

/** CRC-32 of the finished full-space cache file's bytes. */
constexpr uint32_t fullCacheCrc = 0xa5e1d0ea;
/** The same for the tiny (<= 5 vertices) space of the self-test. */
constexpr uint32_t tinyCacheCrc = 0x20a722e2;

nas::SpaceLimits
spaceLimits(bool tiny)
{
    nas::SpaceLimits limits;
    if (tiny)
        limits.maxVertices = 5;
    return limits;
}

uint32_t
fileCrc(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    return etpu::crc32(bytes.data(), bytes.size());
}

void
removeCache(const std::string &path)
{
    std::remove(path.c_str());
    std::remove(pipeline::partialPath(path).c_str());
    std::remove(pipeline::manifestPath(path).c_str());
}

/**
 * One campaign: enumeration through the renamed final cache. Returns
 * its host seconds and sets @p setup_s to those of its set-up, the
 * enumeration that produces its input before any simulation.
 */
double
campaignOnce(const RunOptions &opts, const std::string &path,
             Trace &trace, Report &report, size_t &records, double &setup_s)
{
    removeCache(path);
    auto t0 = Clock::now();
    std::vector<nas::CellSpec> cells;
    {
        auto span = trace.scope("nasbench.enumerateCells");
        cells = nas::enumerateCells(spaceLimits(opts.tiny), nullptr,
                                    libraryThreads);
    }
    setup_s = secondsSince(t0);
    pipeline::ShardedBuildOptions o;
    o.threads = libraryThreads;
    o.shards = campaignShards;
    pipeline::ShardedBuildResult r;
    {
        auto span = trace.scope("pipeline.buildDatasetSharded");
        r = pipeline::buildDatasetSharded(cells, path, o);
    }
    double s = secondsSince(t0);
    records = r.records;
    report.attempted++;
    bool ok = r.finished && r.records == cells.size();
    uint32_t crc = fileCrc(path);
    uint32_t want = opts.tiny ? tinyCacheCrc : fullCacheCrc;
    if (crc != want) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "0x%08x (pinned 0x%08x)", crc,
                      want);
        report.check(false, std::string("cache digest ") + buf);
        ok = false;
    }
    if (!ok)
        report.failed++;
    return s;
}

/**
 * Build, lower, annotate and simulate every cell of @p sample on one
 * thread, one span per stage call. Returns the pass's host seconds and
 * sets @p checksum to the sum of the simulated latencies.
 */
double
stagePass(const std::vector<nas::CellSpec> &sample, Trace &trace,
          double &checksum)
{
    std::vector<sim::Compiler> compilers;
    std::vector<sim::Simulator> simulators;
    for (const auto &cfg : etpu::arch::allConfigs()) {
        compilers.emplace_back(cfg);
        simulators.emplace_back(cfg);
    }
    nas::Network net;
    sim::Program prog;
    sim::SimScratch scratch;
    checksum = 0.0;
    auto t0 = Clock::now();
    for (size_t i = 0; i < sample.size(); i++) {
        {
            auto span = trace.scope("nasbench.buildNetworkInto", i + 1);
            nas::buildNetworkInto(sample[i], net);
        }
        {
            auto span = trace.scope("tpusim.Compiler::lower", i + 1);
            sim::Compiler::lower(net, &sample[i], prog);
        }
        auto span = trace.scope("tpusim.annotate+Simulator::run", i + 1);
        for (size_t c = 0; c < simulators.size(); c++) {
            compilers[c].annotate(net, prog);
            checksum += simulators[c].run(prog, scratch).latencyMs;
        }
    }
    return secondsSince(t0);
}

} // namespace

void
runCampaign(const RunOptions &opts, Trace &trace, Report &report)
{
    const std::string path = opts.scratchDir + "/campaign.bin";
    const size_t expected = opts.tiny ? 2532 : 423624;

    // setup_s is the median over the campaigns of their set-up, the
    // enumeration; wall_s (campaign_s) the median of whole campaigns.
    std::vector<double> walls, setups;
    size_t records = 0;
    const size_t min_campaigns = opts.trace ? 1 : 3;
    auto start = Clock::now();
    Trace off(false);
    while (walls.size() < min_campaigns ||
           secondsSince(start) < opts.seconds) {
        // The traced run's one campaign carries the spans.
        double setup_s = 0.0;
        walls.push_back(campaignOnce(opts, path, opts.trace ? trace : off,
                                     report, records, setup_s));
        setups.push_back(setup_s);
        if (opts.trace)
            break;
    }
    Report::setSample(report.endToEnd, "setup_s", setups, "s");
    Report::setSample(report.endToEnd, "wall_s", walls, "s");
    Report::setSample(report.extra, "campaign_s", walls, "s");
    Report::set(report.endToEnd, "peak_rss_mb", peakRssMb(), "MiB");
    report.check(records == expected, "campaign record count");

    // Strict reload of the finished cache.
    {
        nas::Dataset ds;
        bool loaded = nas::Dataset::load(path, ds);
        report.check(loaded && ds.size() == expected,
                     "the finished cache does not reload strictly");
    }

    if (!opts.trace) {
        removeCache(path);
        return;
    }

    Report::set(report.perLayer, "nasbench.enumerate_s",
                trace.totalSeconds("nasbench.enumerateCells"), "s");
    removeCache(path);

    std::vector<nas::CellSpec> cells =
        nas::enumerateCells(spaceLimits(opts.tiny), nullptr, libraryThreads);

    // Build and write separately: the two halves the sharded builder
    // overlaps.
    {
        auto t0 = Clock::now();
        nas::Dataset ds;
        {
            auto span = trace.scope("pipeline.buildDataset");
            ds = pipeline::buildDataset(cells, libraryThreads);
        }
        auto t1 = Clock::now();
        {
            auto span = trace.scope("pipeline.Dataset::save");
            ds.save(path, campaignShards);
        }
        Report::set(report.perLayer, "pipeline.build_s", seconds(t1 - t0),
                    "s");
        Report::set(report.perLayer, "pipeline.write_s", secondsSince(t1),
                    "s");
        Report::set(report.perLayer, "pipeline.records",
                    static_cast<double>(ds.size()), "count");
        report.check(fileCrc(path) ==
                         (opts.tiny ? tinyCacheCrc : fullCacheCrc),
                     "Dataset::save bytes differ from the sharded build");
        removeCache(path);
    }

    // Per-stage costs on a seeded sample, single-threaded, one span
    // per call. The pass runs untraced, then traced, for
    // bench.trace_overhead; the per-stage times come from the spans.
    etpu::Rng rng(deriveSeed(opts.seed, 7));
    std::vector<nas::CellSpec> sample;
    const size_t sample_n = opts.tiny ? 256 : 4096;
    for (size_t i = 0; i < sample_n; i++)
        sample.push_back(cells[rng.uniformInt(cells.size())]);
    {
        // A first untraced pass warms the caches for the two timed ones.
        double warm = 0.0, plain_sum = 0.0, traced_sum = 0.0;
        stagePass(sample, off, warm);
        double plain = stagePass(sample, off, plain_sum);
        double traced = stagePass(sample, trace, traced_sum);
        report.check(warm > 0.0 && plain_sum == warm && traced_sum == warm,
                     "simulated latencies differ between stage passes");
        Report::set(report.perLayer, "bench.trace_overhead",
                    traced / plain - 1.0, "share");
        double n = static_cast<double>(sample.size());
        Report::set(report.perLayer, "nasbench.build_network_us",
                    trace.totalSeconds("nasbench.buildNetworkInto") / n * 1e6,
                    "us");
        Report::set(report.perLayer, "tpusim.lower_us",
                    trace.totalSeconds("tpusim.Compiler::lower") / n * 1e6,
                    "us");
        Report::set(
            report.perLayer, "tpusim.annotate_simulate_us",
            trace.totalSeconds("tpusim.annotate+Simulator::run") / n * 1e6,
            "us");
    }

    // Task-runtime scaling: buildDataset at one worker against all.
    {
        std::vector<nas::CellSpec> big;
        const size_t big_n = opts.tiny ? 1024 : 32768;
        for (size_t i = 0; i < big_n; i++)
            big.push_back(cells[rng.uniformInt(cells.size())]);
        auto t0 = Clock::now();
        {
            auto span = trace.scope("runtime.buildDataset@1");
            pipeline::buildDataset(big, 1);
        }
        auto t1 = Clock::now();
        {
            auto span = trace.scope("runtime.buildDataset@N");
            pipeline::buildDataset(big, libraryThreads);
        }
        Report::set(report.perLayer, "runtime.speedup",
                    seconds(t1 - t0) / secondsSince(t1), "x");
    }
}

} // namespace perfbench
