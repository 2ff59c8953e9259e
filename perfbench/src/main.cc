/**
 * @file
 * etpu_perfbench: the library-level half of the seeded benchmark (see
 * ../README.md). perfbench/run.py builds this binary, prepares the
 * shared inputs once and turns the "result" line printed here into the
 * benchmark's final JSON line.
 *
 *   etpu_perfbench prepare --dir DIR [--tiny]
 *       Build the full-space (--tiny: <= 5 vertices) dataset cache and
 *       the serve generators' inputs into DIR (atomically: DIR.tmp,
 *       then a rename).
 *   etpu_perfbench run --workload W --seed N --seconds S --trace 0|1
 *                      --inputs DIR --scratch DIR [--tiny]
 *       Run one workload and print a metric table, the machine
 *       fingerprint and a "result {...}" line.
 */

#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hh"
#include "common/env.hh"
#include "common/json_out.hh"
#include "common/logging.hh"
#include "common/simd.hh"
#include "common/table.hh"
#include "nasbench/enumerator.hh"
#include "pipeline/builder.hh"

namespace
{

using namespace perfbench;
namespace fs = std::filesystem;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/** nproc, CPU model, SIMD tier, compiler and build type, as JSON. */
std::string
fingerprint()
{
    return "{\"nproc\":" +
           std::to_string(std::thread::hardware_concurrency()) +
           ",\"cpu\":" + etpu::jsonQuote(cpuModel()) +
           ",\"simd\":" +
           etpu::jsonQuote(etpu::simdTierName(etpu::simdTier())) +
           ",\"compiler\":" + etpu::jsonQuote(__VERSION__) +
           ",\"build_type\":" + etpu::jsonQuote(PERFBENCH_BUILD_TYPE) +
           "}";
}

std::string
metricsJson(const std::map<std::string, Metric> &group)
{
    std::string out = "{";
    for (const auto &[name, m] : group) {
        if (out.size() > 1)
            out += ",";
        out += etpu::jsonQuote(name) +
               ":{\"value\":" + etpu::jsonNumber(m.value) +
               ",\"unit\":" + etpu::jsonQuote(m.unit) + "}";
    }
    return out + "}";
}

void
printTable(const std::string &title,
           const std::map<std::string, Metric> &group)
{
    etpu::AsciiTable t(title);
    t.header({"metric", "unit", "median", "q1", "q3", "n"});
    for (const auto &[name, m] : group) {
        t.row({name, m.unit, etpu::fmtDouble(m.value, 6),
               etpu::fmtDouble(m.summary.q1, 6),
               etpu::fmtDouble(m.summary.q3, 6),
               std::to_string(m.summary.n)});
    }
    t.print(std::cout);
}

int
prepare(const std::string &dir, bool tiny)
{
    const std::string tmp = dir + ".tmp";
    fs::remove_all(tmp);
    fs::create_directories(tmp);
    etpu::nas::SpaceLimits limits;
    if (tiny)
        limits.maxVertices = 5;
    auto cells = etpu::nas::enumerateCells(limits);
    etpu::pipeline::ShardedBuildOptions o;
    o.shards = 7;
    auto r = etpu::pipeline::buildDatasetSharded(cells, tmp + "/full.bin", o);
    if (!r.finished || r.records != cells.size())
        etpu_fatal("preparing the full dataset cache failed");
    writeServeInputs(tmp, tmp + "/full.bin");
    fs::remove_all(dir);
    fs::rename(tmp, dir);
    std::cout << "prepared " << r.records << " records in " << dir << "\n";
    return 0;
}

int
run(const std::string &workload, const RunOptions &opts)
{
    Trace trace(opts.trace);
    Report report;
    std::cout << "workload " << workload << ", seed " << opts.seed
              << ", " << opts.seconds << " s, trace " << opts.trace
              << (opts.tiny ? ", tiny" : "") << "\n";
    auto t0 = Clock::now();
    if (workload == "campaign")
        runCampaign(opts, trace, report);
    else if (workload == "serve_scan")
        runServe(opts, true, trace, report);
    else if (workload == "serve_point")
        runServe(opts, false, trace, report);
    else if (workload == "search")
        runSearch(opts, trace, report);
    else
        etpu_fatal("unknown workload ", workload);

    Report::set(report.extra, "fail_share",
                report.attempted ? static_cast<double>(report.failed) /
                                       static_cast<double>(report.attempted)
                                 : 0.0,
                "share");
    Report::set(report.extra, "run_s", secondsSince(t0), "s");
    if (opts.trace) {
        std::map<std::string, double> self_s;
        std::map<std::string, uint64_t> calls;
        trace.layerSelfTime(self_s, calls);
        for (const auto &[layer, s] : self_s) {
            if (!report.perLayer.count(layer + ".self_ms"))
                continue;
            Report::set(report.perLayer, layer + ".self_ms", s * 1e3, "ms");
            Report::set(report.perLayer, layer + ".spans",
                        static_cast<double>(calls[layer]), "count");
        }
        std::string path = opts.scratchDir + "/trace." + workload + "." +
                           std::to_string(opts.seed) + ".jsonl";
        if (!trace.write(path))
            etpu_fatal("cannot write the trace to ", path);
        std::cout << "trace spans written to " << path << "\n";
        printTable("per-layer (traced run)", report.perLayer);
    } else {
        printTable("end-to-end", report.endToEnd);
    }
    printTable("workload figures", report.extra);
    for (const std::string &f : report.failures)
        std::cout << "CHECK FAILED: " << f << "\n";
    std::cout << "fingerprint " << fingerprint() << "\n";
    std::cout << "result {\"correct\":"
              << (report.correct() ? "true" : "false")
              << ",\"attempted\":" << report.attempted
              << ",\"failed\":" << report.failed
              << ",\"end_to_end\":" << metricsJson(report.endToEnd)
              << ",\"per_layer\":" << metricsJson(report.perLayer)
              << ",\"extra\":" << metricsJson(report.extra) << "}\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        etpu_fatal("usage: etpu_perfbench prepare|run ...");
    const std::string mode = argv[1];
    std::string workload;
    std::string dir;
    RunOptions opts;
    for (int i = 2; i < argc; i++) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                etpu_fatal("missing value for ", arg);
            return argv[++i];
        };
        auto count = [&]() {
            std::string text = next();
            auto n = etpu::parseInt(text);
            if (!n || *n < 0)
                etpu_fatal(arg, " expects a count >= 0, got ", text);
            return static_cast<uint64_t>(*n);
        };
        if (arg == "--dir")
            dir = next();
        else if (arg == "--workload")
            workload = next();
        else if (arg == "--seed")
            opts.seed = count();
        else if (arg == "--seconds")
            opts.seconds = static_cast<double>(count());
        else if (arg == "--trace")
            opts.trace = count() != 0;
        else if (arg == "--inputs")
            opts.inputPath = next();
        else if (arg == "--scratch")
            opts.scratchDir = next();
        else if (arg == "--tiny")
            opts.tiny = true;
        else
            etpu_fatal("unknown argument ", arg);
    }
    if (mode == "prepare") {
        if (dir.empty())
            etpu_fatal("prepare needs --dir");
        return prepare(dir, opts.tiny);
    }
    if (mode != "run" || workload.empty() || opts.scratchDir.empty())
        etpu_fatal("run needs --workload and --scratch");
    fs::create_directories(opts.scratchDir);
    return run(workload, opts);
}
