/**
 * @file
 * The search workload: pool-mode search::runSearch over the full
 * space with the simulator backend, latency on V1 against accuracy, at
 * a fixed budget of 40,000 simulations (~9.4% of exhaustive). Each
 * unit of work is one simulated-annealing run followed by one
 * evolutionary run with a search seed drawn from the benchmark seed;
 * the unit repeats with the same seed and every repeat must produce a
 * byte-identical front. Unlike the campaign, the driver, not bulk
 * evaluation, takes most of the time here.
 */

#include <cstdio>
#include <iostream>

#include "bench.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "nasbench/enumerator.hh"
#include "search/evaluate.hh"
#include "search/search.hh"

namespace perfbench
{

namespace
{

namespace nas = etpu::nas;
namespace search = etpu::search;

const std::vector<search::Objective> objectives = {
    {search::Metric::Latency, false},
    {search::Metric::Accuracy, true},
};

/** Timed set-ups per untraced run, and the fewest SA+EVO pairs. */
constexpr int searchSetups = 2;
constexpr size_t minPairs = 3;

/** The pool, its membership index and the exhaustive true front. */
struct SearchSetup
{
    std::vector<nas::CellSpec> pool;
    search::SearchSpace space;
    std::vector<search::FrontCell> truth;
};

void
setUp(const RunOptions &opts, Trace &trace, SearchSetup &s)
{
    nas::SpaceLimits limits;
    if (opts.tiny)
        limits.maxVertices = 5;
    {
        auto span = trace.scope("nasbench.enumerateCells");
        s.pool = nas::enumerateCells(limits, nullptr, libraryThreads);
    }
    {
        auto span = trace.scope("search.makePoolSpace");
        s.space = search::makePoolSpace(s.pool, limits);
    }
    auto span = trace.scope("search.exhaustiveFront");
    s.truth = search::exhaustiveFront(s.pool, objectives, 0, libraryThreads);
}

/** Exact bytes of a front: cell strings and round-trip values. */
std::string
frontBytes(const std::vector<search::FrontCell> &front)
{
    std::string out;
    char buf[64];
    for (const search::FrontCell &f : front) {
        std::snprintf(buf, sizeof buf, " %.17g %.17g\n", f.x, f.y);
        out += f.cell.str() + buf;
    }
    return out;
}

/** One SA run then one EVO run; returns their results. */
std::vector<search::SearchResult>
searchPair(const RunOptions &opts, const SearchSetup &s, uint64_t seed,
           Trace &trace)
{
    std::vector<search::SearchResult> out;
    for (search::Algo algo :
         {search::Algo::Annealing, search::Algo::Evolution}) {
        search::SearchOptions o;
        o.seed = seed;
        o.budget = opts.tiny ? 250 : 40000;
        o.algo = algo;
        o.config = 0;
        o.objectives = objectives;
        o.threads = libraryThreads;
        auto span = trace.scope(std::string("search.runSearch.") +
                                search::algoName(algo));
        out.push_back(search::runSearch(s.space, o));
    }
    return out;
}

/**
 * Evaluate every batch of @p batches, one span per call. Returns the
 * pass's host seconds and appends each batch's cost to @p batch_us.
 */
double
evaluateBatches(search::SimEvaluator &evaluator,
                const std::vector<std::vector<nas::CellSpec>> &batches,
                Trace &trace, std::vector<double> &batch_us)
{
    std::vector<search::CellMetrics> out(batches.front().size());
    auto start = Clock::now();
    for (const std::vector<nas::CellSpec> &batch : batches) {
        auto t0 = Clock::now();
        auto span = trace.scope("search.SimEvaluator::evaluateBatch");
        evaluator.evaluateBatch(batch.data(), batch.size(), out.data());
        batch_us.push_back(secondsSince(t0) * 1e6);
    }
    return secondsSince(start);
}

} // namespace

void
runSearch(const RunOptions &opts, Trace &trace, Report &report)
{
    // Set-up, repeated: enumerate, pool index, exhaustive truth.
    SearchSetup s;
    std::vector<double> setup;
    const int setups = opts.trace ? 1 : searchSetups;
    for (int i = 0; i < setups; i++) {
        s = SearchSetup();
        auto t0 = Clock::now();
        setUp(opts, trace, s);
        setup.push_back(secondsSince(t0));
    }
    Report::setSample(report.endToEnd, "setup_s", setup, "s");

    const uint64_t seed = deriveSeed(opts.seed, 11) % 1000000007u + 1;
    std::vector<double> walls;
    std::string reference[2];
    double recovery[2] = {0.0, 0.0};
    search::SearchStats stats[2];
    auto start = Clock::now();
    // At least minPairs pairs; another only if it should end within
    // --seconds. The traced run makes two: the first with spans, the
    // second for the identity check.
    const size_t min_pairs = opts.trace ? 2 : minPairs;
    Trace off(false);
    while (walls.size() < min_pairs ||
           secondsSince(start) + walls.back() <= opts.seconds) {
        auto t0 = Clock::now();
        auto results = searchPair(opts, s, seed, walls.empty() ? trace : off);
        walls.push_back(secondsSince(t0));
        for (size_t a = 0; a < 2; a++) {
            report.attempted++;
            std::string bytes = frontBytes(results[a].front);
            if (reference[a].empty()) {
                reference[a] = bytes;
                recovery[a] =
                    search::frontRecovery(results[a].front, s.truth);
                stats[a] = results[a].stats;
            } else if (bytes != reference[a]) {
                report.failed++;
                report.check(false, std::string(search::algoName(
                                        a ? search::Algo::Evolution
                                          : search::Algo::Annealing)) +
                                        " front differs across repeats");
            }
            report.check(!results[a].front.empty(), "empty search front");
        }
        if (opts.trace && walls.size() == min_pairs)
            break;
    }
    Report::setSample(report.endToEnd, "wall_s", walls, "s");
    Report::setSample(report.extra, "search_s", walls, "s");
    Report::set(report.extra, "front_recovery_sa", recovery[0], "share");
    Report::set(report.extra, "front_recovery_evo", recovery[1], "share");
    Report::set(report.extra, "true_front_points",
                static_cast<double>(s.truth.size()), "count");
    Report::set(report.endToEnd, "peak_rss_mb", peakRssMb(), "MiB");
    std::cout << "search seed " << seed << ": true front "
              << s.truth.size() << " points, recovery sa "
              << etpu::fmtDouble(recovery[0], 4) << ", evo "
              << etpu::fmtDouble(recovery[1], 4) << "\n";

    if (!opts.trace)
        return;

    Report::set(report.perLayer, "nasbench.enumerate_s",
                trace.totalSeconds("nasbench.enumerateCells"), "s");
    Report::set(report.perLayer, "search.pool_index_s",
                trace.totalSeconds("search.makePoolSpace"), "s");
    Report::set(report.perLayer, "search.truth_s",
                trace.totalSeconds("search.exhaustiveFront"), "s");

    // Batch evaluation cost, on 24-cell batches drawn from the pool.
    // After an untraced warm-up pass, the same batches run untraced,
    // then traced, for bench.trace_overhead; the batch costs come from
    // the traced pass.
    search::SimEvaluator evaluator(libraryThreads);
    std::vector<std::vector<nas::CellSpec>> batches(200);
    etpu::Rng rng(deriveSeed(opts.seed, 12));
    for (std::vector<nas::CellSpec> &batch : batches) {
        for (int i = 0; i < 24; i++)
            batch.push_back(s.pool[rng.uniformInt(s.pool.size())]);
    }
    std::vector<double> batch_us;
    evaluateBatches(evaluator, batches, off, batch_us);
    batch_us.clear();
    double plain = evaluateBatches(evaluator, batches, off, batch_us);
    batch_us.clear();
    double traced = evaluateBatches(evaluator, batches, trace, batch_us);
    Report::set(report.perLayer, "bench.trace_overhead",
                traced / plain - 1.0, "share");
    Report::setSample(report.perLayer, "runtime.batch_eval_us", batch_us,
                      "us");
    double per_cell_us = summarize(batch_us).median / 24.0;
    uint64_t proposals = stats[0].proposals + stats[1].proposals;
    uint64_t sims = stats[0].simEvals + stats[1].simEvals;
    uint64_t memo = stats[0].memoHits + stats[1].memoHits;
    double eval_us = per_cell_us * static_cast<double>(sims);
    double pair_us = walls[0] * 1e6;
    Report::set(report.perLayer, "search.eval_us", eval_us, "us");
    Report::set(report.perLayer, "search.driver_us_per_proposal",
                (pair_us - eval_us) / static_cast<double>(proposals), "us");
    Report::set(report.perLayer, "search.proposals",
                static_cast<double>(proposals), "count");
    Report::set(report.perLayer, "search.sim_evals",
                static_cast<double>(sims), "count");
    Report::set(report.perLayer, "search.memo_hit_ratio",
                static_cast<double>(memo) / static_cast<double>(proposals),
                "share");
}

} // namespace perfbench
