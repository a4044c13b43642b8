/**
 * @file
 * perfbench: one workload of the repository benchmark per run.
 *
 *   perfbench --workload table1_sweep|gap_corpus|serve_mixed
 *             --seed N --seconds S --trace 0|1
 *
 * Prints the run context, every metric by name with its unit, the
 * work counters and the output fingerprint, then one final line
 * `result {json}` with everything the wrapper (perfbench/run.py)
 * needs. Exits 1 when a correctness check failed (failed operations
 * are counted, not fatal; see Result), 2 on bad usage or a build that
 * must not be measured (assertions enabled).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hh"

using namespace perfbench;

namespace
{

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\n",
                 msg);
    return 2;
}

/** JSON string literal for @p s (names and units are plain ASCII). */
std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/**
 * The end-to-end metrics every workload reports, under one name each:
 * the workload's own metric (left) and the scale to the common unit.
 * BENCHMARK.json lists the common names.
 */
struct Alias
{
    const char *common;
    const char *unit;
    const char *table1;
    const char *gap;
    const char *serve;
    double serveScale;
};

const Alias END_TO_END[] = {
    {"memory_mb", "MB", "rss_peak_mb", "gap.op_heap_p95_mb", "rss_peak_mb",
     1.0},
    {"throughput_per_s", "1/s", "sweep.items_per_s",
     "gap.exact_verdicts_per_s", "serve.replay_rps", 1.0},
    {"primary_typical_ms", "ms", "sweep.rmca_item_p50_ms",
     "gap.exact_verdict_geomean_ms", "serve.hit_service_p50_us", 1e-3},
    {"primary_tail_ms", "ms", "sweep.rmca_item_p95_ms",
     "gap.exact_verdict_p95_ms", "serve.hit_service_p99_us", 1e-3},
    {"secondary_typical_ms", "ms", "sweep.baseline_item_p50_ms",
     "gap.sat_verdict_geomean_ms", "serve.miss_service_p50_ms", 1.0},
    {"secondary_tail_ms", "ms", "sweep.baseline_item_p95_ms",
     "gap.sat_verdict_p95_ms", "serve.miss_service_p99_ms", 1.0},
    {"quality_ratio", "ratio", "sweep.cycles_per_op",
     "gap.ii_over_certified", "serve.ii_over_mii", 1.0},
};

/** Per-layer metrics and their units; a layer a workload does not
 * exercise reads 0. */
const std::pair<const char *, const char *> PER_LAYER[] = {
    {"ddg.calls", "count"}, {"ddg.busy_ms", "ms"}, {"cme.bind_ms", "ms"},
    {"cme.queries", "count"}, {"cme.busy_ms", "ms"},
    {"cme.query_p50_us", "us"}, {"rmca.calls", "count"},
    {"rmca.self_ms", "ms"}, {"rmca.ii_attempts", "count"},
    {"rmca.ii_over_mii", "ratio"}, {"rmca.no_schedule", "count"},
    {"baseline.self_ms", "ms"}, {"exact.calls", "count"},
    {"exact.busy_ms", "ms"}, {"exact.nodes", "count"},
    {"exact.nodes_per_ms", "1/ms"}, {"exact.unknown", "count"},
    {"sat.calls", "count"}, {"sat.busy_ms", "ms"},
    {"sat.conflicts", "count"}, {"sat.conflicts_per_ms", "1/ms"},
    {"sat.unknown", "count"}, {"sim.calls", "count"}, {"sim.busy_ms", "ms"},
    {"sim.ops_executed", "count"}, {"sim.mcycles", "Mcycles"},
    {"harness.pool_busy_share", "ratio"},
    {"harness.pool_imbalance", "ratio"}, {"harness.self_ms", "ms"},
    {"svc.raw_probe_us", "us"}, {"svc.parse_us", "us"},
    {"svc.raw_hit_share", "ratio"}, {"svc.cache_hit_share", "ratio"},
    {"svc.batch_miss_rmca_ms", "ms"}, {"svc.batch_miss_verify_ms", "ms"},
    {"svc.batch_hit_us", "us"}, {"svc.self_ms", "ms"},
    {"svc.reactor_idle_rtt_us", "us"},
    {"svc.reactor_hit_wait_p99_us", "us"}, {"svc.tcp_hit_p50_us", "us"},
    {"svc.tcp_hit_p99_us", "us"}, {"svc.tcp_miss_p50_ms", "ms"},
    {"svc.tcp_miss_p99_ms", "ms"}, {"svc.state_decode_ms", "ms"},
    {"svc.state_bytes", "bytes"}, {"svc.cache_entries", "count"},
    {"svc.loop_contexts", "count"}, {"unattributed_ms", "ms"},
    {"traced_total_ms", "ms"}, {"trace_overhead_ms", "ms"},
};

} // namespace

int
main(int argc, char **argv)
{
#ifndef NDEBUG
    std::fprintf(stderr, "perfbench: refusing to measure a build with "
                         "assertions enabled (NDEBUG is not defined)\n");
    return 2;
#endif
    Args args;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value, nullptr, 0);
        } else if (flag == "--seconds") {
            args.seconds = std::atof(value);
        } else if (flag == "--trace") {
            args.trace = std::strcmp(value, "0") != 0;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload)
        return usage("--workload is required");
    if (args.seconds <= 0.0)
        return usage("--seconds must be positive");

    Result res;
    if (args.workload == "table1_sweep")
        res = runTable1Sweep(args);
    else if (args.workload == "gap_corpus")
        res = runGapCorpus(args);
    else if (args.workload == "serve_mixed")
        res = runServeMixed(args);
    else
        return usage(("unknown workload " + args.workload).c_str());
    if (!res.metrics.count("rss_peak_mb"))
        res.set("rss_peak_mb", rssPeakMb(), "MB");
    const double fail_rate =
        res.attempted > 0 ? static_cast<double>(res.failed) /
                                static_cast<double>(res.attempted)
                          : 1.0;
    res.set("fail_rate", fail_rate, "ratio");
    if (args.trace) {
        for (const auto &[name, unit] : PER_LAYER) {
            const auto it = res.metrics.find(name);
            res.set(name, it == res.metrics.end() ? 0.0 : it->second.first,
                    unit);
        }
    } else {
        res.set("ok_share", 1.0 - fail_rate, "ratio");
        for (const Alias &a : END_TO_END) {
            const bool serve = args.workload == "serve_mixed";
            const char *own = args.workload == "table1_sweep" ? a.table1
                              : serve                         ? a.serve
                                                              : a.gap;
            const auto it = res.metrics.find(own);
            if (it != res.metrics.end())
                res.set(a.common,
                        it->second.first * (serve ? a.serveScale : 1.0),
                        a.unit);
        }
    }

    std::printf("build %s %s\n", PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);
    for (const auto &[name, mv] : res.metrics)
        std::printf("metric %s %.6g %s\n", name.c_str(), mv.first,
                    mv.second.c_str());
    for (const auto &[name, v] : res.counters)
        std::printf("counter %s %lld\n", name.c_str(),
                    static_cast<long long>(v));
    std::printf("fingerprint 0x%016llx\n",
                static_cast<unsigned long long>(res.fingerprint));
    for (const std::string &f : res.failures)
        std::fprintf(stderr, "%s\n", f.c_str());

    std::string json = "{\"workload\": " + quote(args.workload) +
                       ", \"seed\": " + std::to_string(args.seed) +
                       ", \"trace\": " + (args.trace ? "1" : "0") +
                       ", \"attempted\": " + std::to_string(res.attempted) +
                       ", \"failed\": " + std::to_string(res.failed) +
                       ", \"incorrect\": " + std::to_string(res.incorrect) +
                       ", \"build_type\": " + quote(PERFBENCH_BUILD_TYPE) +
                       ", \"compiler\": " + quote(PERFBENCH_COMPILER) +
                       ", \"fingerprint\": \"";
    char fp[32];
    std::snprintf(fp, sizeof fp, "0x%016llx",
                  static_cast<unsigned long long>(res.fingerprint));
    json += fp;
    json += "\", \"metrics\": {";
    bool first = true;
    for (const auto &[name, mv] : res.metrics) {
        char num[64];
        std::snprintf(num, sizeof num, "%.17g", mv.first);
        json += (first ? "" : ", ") + quote(name) + ": {\"value\": " + num +
                ", \"unit\": " + quote(mv.second) + "}";
        first = false;
    }
    json += "}, \"counters\": {";
    first = true;
    for (const auto &[name, v] : res.counters) {
        json += (first ? "" : ", ") + quote(name) + ": " +
                std::to_string(v);
        first = false;
    }
    json += "}}";
    std::printf("result %s\n", json.c_str());
    return res.incorrect == 0 ? 0 : 1;
}
