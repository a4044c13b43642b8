/**
 * @file
 * table1_sweep: the paper's headline sweep. Every loop of the eight
 * builtin suites plus a seeded `gen:` suite of one builtin suite's
 * size (4 loops), over {unified, 2-cluster, 4-cluster} x {baseline, rmca} x
 * thresholds {1.0, 0.75, 0.25, 0.0}, CME locality, on a 2-worker
 * ParallelDriver. Each pass rebuilds the Workbench (set-up) and runs
 * the sweep.
 *
 * A reference sweep of the builtin suites goes through
 * harness::runSuiteSweep (sweep_bench's table1 sweep). The timed passes
 * run every item through the layers' public functions on
 * ParallelDriver::run — scheduleWithBackend, ModuloSchedule::validate,
 * simulateLoop — because runSuiteSweep aborts the whole sweep on a loop
 * the heuristic cannot schedule, and the seeded suite holds such loops
 * on some seeds: each fails its item instead. Their builtin part must
 * reproduce the reference. The traced pass runs the same items with
 * every call a span (the set-up through ddg::Ddg::build and
 * LocalityRegistry::bind, the CME queries through a forwarding
 * analysis) and must reproduce the untraced fingerprint.
 */

#include <cstdio>
#include <memory>

#include "bench.hh"
#include "cme/provider.hh"
#include "cme/stream.hh"
#include "common/strutil.hh"
#include "gen/generator.hh"
#include "harness/experiment.hh"
#include "machine/presets.hh"
#include "sched/backend.hh"
#include "workloads/workloads.hh"

using namespace mvp;

namespace perfbench
{
namespace
{

constexpr int JOBS = 2;
constexpr int GEN_LOOPS = 4;   ///< a builtin suite has 4 loops
/** sweep_bench's pinned fingerprint of the builtin-only sweep. */
constexpr std::uint64_t TABLE1_PIN = 0x681960411cb6c089ULL;

std::vector<harness::RunConfig>
sweepConfigs()
{
    std::vector<harness::RunConfig> configs;
    for (const auto &machine :
         {makeUnified(), makeTwoCluster(), makeFourCluster()})
        for (const char *backend : {"baseline", "rmca"})
            for (double thr : {1.00, 0.75, 0.25, 0.00}) {
                harness::RunConfig cfg;
                cfg.machine = machine;
                cfg.backend = backend;
                cfg.locality = "cme";
                cfg.threshold = thr;
                configs.push_back(cfg);
            }
    return configs;
}

/** The builtin suites plus the `gen:` suite drawn from @p seed. */
std::vector<std::string>
workloadNames(std::uint64_t seed)
{
    std::vector<std::string> names = workloads::benchmarkNames();
    // The gen: spec takes a signed 64-bit seed.
    names.push_back("gen:seed=" +
                    std::to_string(gen::deriveSeed(seed, 0) >> 1) +
                    "+loops=" + std::to_string(GEN_LOOPS));
    return names;
}

/** Fold per-item results (config-major) into one SuiteResult per
 * config, like runSuiteSweep. */
std::vector<harness::SuiteResult>
mergeSuites(std::vector<harness::LoopRunResult> &&results,
            std::size_t n_configs)
{
    const std::size_t per_config = results.size() / n_configs;
    std::vector<harness::SuiteResult> out(n_configs);
    for (std::size_t i = 0; i < results.size(); ++i) {
        harness::SuiteResult &suite = out[i / per_config];
        harness::LoopRunResult &r = results[i];
        suite.compute += r.sim.computeCycles;
        suite.stall += r.sim.stallCycles;
        auto &per = suite.perBenchmark[r.benchmark];
        per.first += r.sim.computeCycles;
        per.second += r.sim.stallCycles;
        suite.loops.push_back(std::move(r));
    }
    return out;
}

/** Deterministic summary of one sweep's results. */
struct SweepSummary
{
    std::uint64_t fingerprint = 0;
    std::uint64_t builtinFingerprint = 0;
    std::int64_t cycles = 0;          ///< simulated compute + stall
    std::int64_t opsExecuted = 0;
    std::int64_t failedItems = 0;     ///< items with no schedule
    std::int64_t rmcaNoSchedule = 0;
    std::int64_t rmcaIiAttempts = 0;
    std::int64_t rmcaIi = 0;
    std::int64_t rmcaMii = 0;
};

SweepSummary
summarise(const std::vector<harness::SuiteResult> &suites,
          const std::vector<harness::RunConfig> &configs)
{
    const std::vector<std::string> builtin = workloads::benchmarkNames();
    SweepSummary s;
    std::string all;
    std::string builtin_all;
    for (std::size_t c = 0; c < suites.size(); ++c) {
        const harness::SuiteResult &suite = suites[c];
        all += harness::formatSuiteResult(suite);
        s.cycles += suite.total();
        harness::SuiteResult only;
        for (const auto &loop : suite.loops) {
            s.opsExecuted += loop.sim.opsExecuted;
            s.failedItems += loop.sched.ok ? 0 : 1;
            if (configs[c].backend == "rmca") {
                s.rmcaNoSchedule += loop.sched.ok ? 0 : 1;
                s.rmcaIiAttempts += loop.sched.stats.iiAttempts;
                s.rmcaIi += loop.sched.schedule.ii();
                s.rmcaMii += loop.sched.stats.mii;
            }
            if (std::find(builtin.begin(), builtin.end(), loop.benchmark) ==
                builtin.end())
                continue;
            only.compute += loop.sim.computeCycles;
            only.stall += loop.sim.stallCycles;
            auto &per = only.perBenchmark[loop.benchmark];
            per.first += loop.sim.computeCycles;
            per.second += loop.sim.stallCycles;
            only.loops.push_back(loop);
        }
        builtin_all += harness::formatSuiteResult(only);
    }
    s.fingerprint = fnv1a(all);
    s.builtinFingerprint = fnv1a(builtin_all);
    return s;
}

/**
 * One sweep over every (config, loop) item on @p driver, config-major:
 * schedule, validate, simulate, each call a span when tracing is on.
 * @p item_ms receives each item's time on its worker, @p pool_wall_ms
 * the wall time of ParallelDriver::run. When @p count is set the
 * items are counted as operations, and an item the heuristic cannot
 * schedule as a failed one. An illegal schedule makes the run
 * incorrect. Returns the suite results in runSuiteSweep's order.
 */
std::vector<harness::SuiteResult>
sweepPass(const std::vector<LoopView> &loops,
          const std::vector<harness::RunConfig> &configs,
          harness::ParallelDriver &driver, Result &res, bool count,
          std::vector<double> &item_ms, double &pool_wall_ms)
{
    const std::size_t per_config = loops.size();
    std::vector<harness::LoopRunResult> results(per_config *
                                                configs.size());
    std::vector<std::string> illegal(results.size());
    item_ms.assign(results.size(), 0.0);
    const auto pool_start = Clock::now();
    {
        TraceScope pool("harness.pool", -1, driver.jobs());
        traceSetRemoteParent(pool.id());
        driver.run(results.size(), [&](std::size_t i,
                                       sched::SchedContext &ctx) {
            const auto t0 = Clock::now();
            TraceScope item("harness.item", static_cast<std::int64_t>(i));
            const harness::RunConfig &cfg = configs[i / per_config];
            const LoopView &lv = loops[i % per_config];
            harness::LoopRunResult &r = results[i];
            r.benchmark = *lv.benchmark;
            r.loop = lv.nest->name();
            TimedLocality timed(*lv.cme);
            sched::SchedulerOptions opt;
            opt.missThreshold = cfg.threshold;
            opt.locality = traceOn() ? &timed : lv.cme;
            {
                TraceScope span(cfg.backend == "rmca" ? "rmca"
                                                      : "baseline",
                                static_cast<std::int64_t>(i));
                r.sched = sched::scheduleWithBackend(
                    cfg.backend, *lv.ddg, cfg.machine, opt, ctx);
            }
            if (r.sched.ok) {
                illegal[i] = r.sched.schedule.validate(*lv.ddg, cfg.machine);
                if (illegal[i].empty()) {
                    TraceScope span("sim", static_cast<std::int64_t>(i));
                    r.sim = sim::simulateLoop(*lv.ddg, r.sched.schedule,
                                              cfg.machine);
                }
            }
            item_ms[i] = msSince(t0);
        });
        traceSetRemoteParent(-1);
    }
    pool_wall_ms = msSince(pool_start);
    if (count)
        res.attempted += static_cast<std::int64_t>(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        const harness::LoopRunResult &r = results[i];
        const std::string where = r.loop + " on " +
                                  configs[i / per_config].machine.name +
                                  " (" + configs[i / per_config].backend +
                                  ")";
        if (!r.sched.ok && count)
            res.fail(where + ": " + r.sched.error);
        else if (!illegal[i].empty())
            res.wrong(where + ": illegal schedule: " + illegal[i]);
    }
    return mergeSuites(std::move(results), configs.size());
}

/** Per-layer metrics of one traced pass. */
PassMetrics
layerMetrics(const std::vector<Span> &spans, double total_ms, int jobs,
             Result &res)
{
    const auto fold = foldSpans(spans);
    PassMetrics m;
    const SpanStats ddg = spanStats(fold, "ddg");
    const SpanStats bind = spanStats(fold, "cme.bind");
    const SpanStats query = spanStats(fold, "cme.query");
    const SpanStats rmca = spanStats(fold, "rmca");
    const SpanStats base = spanStats(fold, "baseline");
    const SpanStats sim = spanStats(fold, "sim");
    const SpanStats pool = spanStats(fold, "harness.pool");
    const SpanStats item = spanStats(fold, "harness.item");
    m["ddg.calls"] = static_cast<double>(ddg.calls);
    m["ddg.busy_ms"] = ddg.selfMs;
    m["cme.bind_ms"] = bind.selfMs;
    m["cme.queries"] = static_cast<double>(query.calls);
    m["cme.busy_ms"] = query.selfMs;
    m["cme.query_p50_us"] = median(query.durUs);
    m["rmca.calls"] = static_cast<double>(rmca.calls);
    m["rmca.self_ms"] = rmca.selfMs;
    m["baseline.self_ms"] = base.selfMs;
    m["sim.calls"] = static_cast<double>(sim.calls);
    m["sim.busy_ms"] = sim.selfMs;

    // Pool: busy share and imbalance across the workers' item time.
    std::map<int, double> worker_ms;
    for (const Span &s : spans)
        if (std::string_view(s.name) == "harness.item")
            worker_ms[s.thread] +=
                static_cast<double>(s.endNs - s.startNs) / 1e6;
    double max_w = 0.0;
    double sum_w = 0.0;
    for (const auto &[t, ms] : worker_ms) {
        max_w = std::max(max_w, ms);
        sum_w += ms;
    }
    m["harness.pool_busy_share"] =
        pool.busyMs > 0.0 ? item.busyMs / (jobs * pool.busyMs) : 0.0;
    m["harness.pool_imbalance"] =
        sum_w > 0.0 ? max_w / (sum_w / jobs) : 0.0;
    m["harness.self_ms"] = pool.selfMs + item.selfMs;

    m["unattributed_ms"] = unattributedMs(fold, total_ms, res);
    m["traced_total_ms"] = total_ms;
    return m;
}

} // namespace

std::vector<std::unique_ptr<PreparedLoop>>
prepareTraced(const std::vector<std::string> &names)
{
    // Any Table-1 preset provides the (shared) operation latencies.
    const MachineConfig lat_machine = makeUnified();
    std::vector<std::unique_ptr<PreparedLoop>> entries;
    for (auto &bench : workloads::resolveWorkloads(names)) {
        for (auto &nest : bench.loops) {
            auto e = std::make_unique<PreparedLoop>();
            e->benchmark = bench.name;
            e->nest = std::move(nest);
            {
                TraceScope span("ddg");
                e->ddg = std::make_unique<ddg::Ddg>(
                    ddg::Ddg::build(e->nest, lat_machine));
                e->ddg->sccs();
            }
            e->streams = std::make_shared<cme::StreamCache>(e->nest);
            {
                TraceScope span("cme.bind");
                e->cme = cme::LocalityRegistry::instance().bind(
                    "cme", e->nest, e->streams);
            }
            entries.push_back(std::move(e));
        }
    }
    return entries;
}

Result
runTable1Sweep(const Args &args)
{
    Result res;
    const std::vector<harness::RunConfig> configs = sweepConfigs();
    const std::vector<std::string> names = workloadNames(args.seed);
    harness::ParallelDriver driver(JOBS);

    // Reference: runSuiteSweep over the builtin suites, untimed (it
    // also warms the pool and the code). Every pass's builtin part must
    // reproduce it.
    std::uint64_t builtin_ref = 0;
    {
        harness::Workbench bench(workloads::benchmarkNames());
        std::string all;
        for (const auto &suite :
             harness::runSuiteSweep(bench, configs, {}, driver))
            all += harness::formatSuiteResult(suite);
        builtin_ref = fnv1a(all);
    }
    std::printf("table1 builtin fingerprint 0x%016llx (%s sweep_bench's "
                "pinned 0x%016llx)\n",
                static_cast<unsigned long long>(builtin_ref),
                builtin_ref == TABLE1_PIN ? "matches" : "DIFFERS from",
                static_cast<unsigned long long>(TABLE1_PIN));

    // Timed passes: fresh Workbench (set-up), then the sweep. Every
    // pass must repeat the first; only the first counts operations, so
    // `attempted` and `failed` do not depend on how many passes fit.
    std::vector<double> setup_ms;
    std::vector<double> pass_ms;
    std::vector<double> rate, rmca_p50, rmca_p95, base_p50, base_p95;
    SweepSummary ref;
    std::size_t items = 0;
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(args.seconds);
    const auto untraced_until =
        args.trace ? Clock::now() + std::chrono::duration<double>(
                                        args.seconds / 4)
                   : deadline;
    for (int pass = 0;; ++pass) {
        const auto t0 = Clock::now();
        harness::Workbench bench(names);
        setup_ms.push_back(msSince(t0));
        std::vector<double> item_ms;
        double pool_ms = 0.0;
        const auto suites = sweepPass(views(bench), configs, driver, res,
                                      pass == 0, item_ms, pool_ms);
        pass_ms.push_back(pool_ms);
        rate.push_back(static_cast<double>(item_ms.size()) /
                       (pool_ms / 1000.0));
        std::vector<double> rmca, base;
        const std::size_t per_config = item_ms.size() / configs.size();
        for (std::size_t i = 0; i < item_ms.size(); ++i)
            (configs[i / per_config].backend == "rmca" ? rmca : base)
                .push_back(item_ms[i]);
        rmca_p50.push_back(median(rmca));
        rmca_p95.push_back(pct(rmca, 95.0));
        base_p50.push_back(median(base));
        base_p95.push_back(pct(base, 95.0));
        const SweepSummary s = summarise(suites, configs);
        if (pass == 0) {
            ref = s;
            items = item_ms.size();
            if (s.builtinFingerprint != builtin_ref)
                res.wrong("the builtin part of the sweep differs from "
                          "runSuiteSweep's");
        } else if (s.fingerprint != ref.fingerprint ||
                   s.opsExecuted != ref.opsExecuted ||
                   s.rmcaIiAttempts != ref.rmcaIiAttempts) {
            res.wrong("pass " + std::to_string(pass) +
                      " does not repeat pass 0");
        }
        if (pass >= 2 && Clock::now() >= untraced_until)
            break;
    }
    res.fingerprint = ref.fingerprint;
    res.counters["sweep.items"] = static_cast<std::int64_t>(items);
    res.counters["sweep.failed_items"] = ref.failedItems;
    res.counters["rmca.no_schedule"] = ref.rmcaNoSchedule;
    res.counters["sweep.sim_cycles"] = ref.cycles;
    res.counters["sim.ops_executed"] = ref.opsExecuted;
    res.counters["rmca.ii_attempts"] = ref.rmcaIiAttempts;

    if (!args.trace) {
        res.set("setup_s", median(setup_ms) / 1000.0, "s");
        res.set("sweep.items_per_s", median(rate), "1/s");
        res.set("sweep.rmca_item_p50_ms", median(rmca_p50), "ms");
        res.set("sweep.rmca_item_p95_ms", median(rmca_p95), "ms");
        res.set("sweep.baseline_item_p50_ms", median(base_p50), "ms");
        res.set("sweep.baseline_item_p95_ms", median(base_p95), "ms");
        res.set("sweep.sim_mcycles", static_cast<double>(ref.cycles) / 1e6,
                "Mcycles");
        // Cycles per executed operation: the input fixes the operations,
        // the schedules only the cycles, so lower is always better.
        res.set("sweep.cycles_per_op",
                static_cast<double>(ref.cycles) /
                    static_cast<double>(ref.opsExecuted),
                "ratio");
        res.set("sweep.passes", static_cast<double>(pass_ms.size()),
                "count");
        return res;
    }

    // Traced passes: same items, every layer call a span.
    const double untraced_ms = median(pass_ms) + median(setup_ms);
    std::vector<PassMetrics> per_pass;
    std::vector<double> traced_ms;
    traceEnable(true);
    for (int pass = 0;; ++pass) {
        traceDrain();
        const auto t0 = Clock::now();
        const auto loops = prepareTraced(names);
        std::vector<double> item_ms;
        double pool_wall_ms = 0.0;
        const auto suites = sweepPass(views(loops), configs, driver, res,
                                      false, item_ms, pool_wall_ms);
        const double wall = msSince(t0);
        traced_ms.push_back(wall);
        const auto spans = traceDrain();
        const double total = wall + (driver.jobs() - 1) * pool_wall_ms;
        per_pass.push_back(layerMetrics(spans, total, driver.jobs(), res));
        if (summarise(suites, configs).fingerprint != ref.fingerprint)
            res.wrong("traced pass fingerprint differs from untraced");
        if (pass >= 1 && Clock::now() >= deadline)
            break;
    }
    traceEnable(false);
    setPassMedians(per_pass, res);
    res.set("trace_overhead_ms", median(traced_ms) - untraced_ms, "ms");
    res.set("rmca.ii_attempts", static_cast<double>(ref.rmcaIiAttempts),
            "count");
    res.set("rmca.ii_over_mii",
            ref.rmcaMii > 0 ? static_cast<double>(ref.rmcaIi) /
                                  static_cast<double>(ref.rmcaMii)
                            : 0.0,
            "ratio");
    res.set("rmca.no_schedule", static_cast<double>(ref.rmcaNoSchedule),
            "count");
    res.set("sim.ops_executed", static_cast<double>(ref.opsExecuted),
            "count");
    res.set("sim.mcycles", static_cast<double>(ref.cycles) / 1e6, "Mcycles");
    return res;
}

} // namespace perfbench
