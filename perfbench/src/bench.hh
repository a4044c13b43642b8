/**
 * @file
 * Shared pieces of the perfbench driver: run arguments, the result
 * every workload fills in, sample statistics, and the in-memory span
 * recorder the traced runs use.
 *
 * Tracing model. A span is one timed call into a layer's public
 * function, recorded from the benchmark's own code (the library is
 * not instrumented). Spans nest per thread; a span opened on a pool
 * worker with no open parent on that thread is parented to the
 * "remote parent" the main thread published (the ParallelDriver::run
 * span). A span's self time is its duration times its weight minus
 * the durations of its children; the weight of a pool span is the
 * worker count, so the pool's self time is its idle + hand-off
 * capacity. Spans are kept in memory and folded into per-layer
 * metrics when the run ends.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cme/locality.hh"
#include "cme/stream.hh"
#include "ddg/ddg.hh"
#include "harness/experiment.hh"
#include "ir/loop.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
msSince(Clock::time_point from)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - from)
        .count();
}

/** Percentile @p p (0..100) of @p v, linear interpolation. */
inline double
pct(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = lo + 1 < v.size() ? lo + 1 : lo;
    return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

inline double
median(const std::vector<double> &v)
{
    return pct(v, 50.0);
}

/** Command-line arguments of one run. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/**
 * What one workload run reports.
 *
 * Two kinds of failure. A *failed operation* is one the program did not
 * complete: an error result or reply (a loop the heuristic cannot
 * schedule), a request without a reply, or an optimality certificate
 * that a legal schedule of lower II refutes. Failed operations are
 * counted (`failed`, `ok_share`) and the run is still scored. An
 * *incorrect* run produced output that must not be scored: an illegal
 * schedule, a reply that differs from the offline pipeline, a pass that
 * does not repeat itself, a traced run that does not reproduce the
 * untraced one, or layer times that do not add up.
 */
struct Result
{
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::int64_t incorrect = 0;
    /** First few failure messages (stderr). */
    std::vector<std::string> failures;

    /** End-to-end metrics, named as the workload defines them. */
    std::map<std::string, std::pair<double, std::string>> metrics;
    /** Deterministic work counters: repeat exactly at a fixed seed. */
    std::map<std::string, std::int64_t> counters;
    /** Output fingerprint: equal across runs at a fixed seed, and
     * equal between the traced and untraced run. */
    std::uint64_t fingerprint = 0;

    /** One operation failed. */
    void fail(const std::string &message)
    {
        ++failed;
        note("failed: " + message);
    }
    /** A correctness check failed: the run is not scored. */
    void wrong(const std::string &message)
    {
        ++incorrect;
        note("incorrect: " + message);
    }
    void note(const std::string &message)
    {
        if (failures.size() < 12)
            failures.push_back(message);
    }
    void set(const std::string &name, double value, const char *unit)
    {
        metrics[name] = {value, unit};
    }
};

/** Peak resident set size of this process, in MB. */
double rssPeakMb();

/** Start counting heap bytes in use (heap.cc); it stays on. */
void heapCountingOn();
/** Reset the high-water mark to the bytes in use now, and return them. */
std::int64_t heapMark();
/** The most bytes in use since the last heapMark(). */
std::int64_t heapHigh();

/** Folds @p next into @p h (FNV-1a over a 64-bit value). */
inline std::uint64_t
foldHash(std::uint64_t h, std::uint64_t next)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (next >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

// ------------------------------------------------------------- tracing

/** One recorded call. */
struct Span
{
    const char *name = nullptr;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int64_t id = 0;
    std::int64_t parent = -1;   ///< -1: a root
    std::int64_t op = -1;       ///< operation id (item, loop, request)
    int weight = 1;             ///< threads the span stands for
    int thread = 0;             ///< recording thread's index
};

/** Whether spans are recorded (set once, before any worker starts). */
void traceEnable(bool on);
bool traceOn();

/**
 * RAII span. When tracing is off it costs one branch. @p name must be
 * a string literal (spans keep the pointer).
 */
class TraceScope
{
  public:
    explicit TraceScope(const char *name, std::int64_t op = -1,
                        int weight = 1);
    ~TraceScope();
    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

    /** This span's id (valid when tracing is on). */
    std::int64_t id() const { return id_; }

  private:
    std::int64_t id_ = -1;
    std::size_t slot_ = 0;
};

/**
 * Parent spans opened on other threads without a local parent to
 * @p id (-1 clears). The main thread sets it around
 * ParallelDriver::run.
 */
void traceSetRemoteParent(std::int64_t id);

/** Every span recorded so far, from every thread; clears the buffers. */
std::vector<Span> traceDrain();

/** Per-name aggregates of a span set. */
struct SpanStats
{
    std::int64_t calls = 0;
    double selfMs = 0.0;
    double busyMs = 0.0;              ///< sum of durations
    std::vector<double> durUs;        ///< one per call
};

/** Group @p spans by name and compute self times. */
std::map<std::string, SpanStats> foldSpans(const std::vector<Span> &spans);

/** The aggregates of span @p name in @p fold (empty when none ran). */
inline SpanStats
spanStats(const std::map<std::string, SpanStats> &fold, const char *name)
{
    const auto it = fold.find(name);
    return it == fold.end() ? SpanStats{} : it->second;
}

/**
 * Forwarding locality analysis: every CME query becomes a `cme.query`
 * span. Passed through SchedulerOptions::locality in traced runs only.
 */
class TimedLocality : public mvp::cme::LocalityAnalysis
{
  public:
    explicit TimedLocality(mvp::cme::LocalityAnalysis &inner)
        : inner_(inner)
    {
    }
    const mvp::ir::LoopNest &loop() const override
    {
        return inner_.loop();
    }
    double missesPerIteration(const std::vector<mvp::OpId> &set,
                              const mvp::CacheGeom &geom) override
    {
        TraceScope span("cme.query");
        return inner_.missesPerIteration(set, geom);
    }
    double missRatio(const std::vector<mvp::OpId> &set, mvp::OpId op,
                     const mvp::CacheGeom &geom) override
    {
        TraceScope span("cme.query");
        return inner_.missRatio(set, op, geom);
    }

  private:
    mvp::cme::LocalityAnalysis &inner_;
};

/** One traced pass's per-layer metrics, by name. */
using PassMetrics = std::map<std::string, double>;

/**
 * Set every metric of @p passes to its median over them. Call counts
 * (`*.calls`, `cme.queries`) are work counters: they must repeat
 * exactly in every pass (a failure otherwise) and are also recorded
 * as counters.
 */
void setPassMedians(const std::vector<PassMetrics> &passes, Result &res);

/**
 * The time of a traced run no layer span accounts for: @p
 * traced_total_ms minus the self times in @p fold. Records a failure
 * in @p res when the layer times do not add up (a span overrunning
 * its parent, or self times exceeding the total).
 */
double unattributedMs(const std::map<std::string, SpanStats> &fold,
                      double traced_total_ms, Result &res);

/**
 * One loop prepared the way harness::Workbench prepares an entry (DDG
 * with warm SCC tables, a stream cache, a bound CME analysis), but
 * through the layers' public functions so each call is a span
 * (`ddg`, `cme.bind`).
 */
struct PreparedLoop
{
    std::string benchmark;
    mvp::ir::LoopNest nest;
    std::unique_ptr<mvp::ddg::Ddg> ddg;
    std::shared_ptr<mvp::cme::StreamCache> streams;
    std::unique_ptr<mvp::cme::LocalityAnalysis> cme;
};

/** Prepare every loop of the workloads @p names, Workbench order. */
std::vector<std::unique_ptr<PreparedLoop>>
prepareTraced(const std::vector<std::string> &names);

/** A prepared loop, whichever way it was prepared. */
struct LoopView
{
    const std::string *benchmark;
    const mvp::ir::LoopNest *nest;
    const mvp::ddg::Ddg *ddg;
    mvp::cme::LocalityAnalysis *cme;
};

inline std::vector<LoopView>
views(const mvp::harness::Workbench &bench)
{
    std::vector<LoopView> out;
    for (const auto &e : bench.entries())
        out.push_back({&e->benchmark, &e->nest, e->ddg.get(),
                       e->locality("cme")});
    return out;
}

inline std::vector<LoopView>
views(const std::vector<std::unique_ptr<PreparedLoop>> &loops)
{
    std::vector<LoopView> out;
    for (const auto &e : loops)
        out.push_back({&e->benchmark, &e->nest, e->ddg.get(), e->cme.get()});
    return out;
}

/** Workloads. */
Result runTable1Sweep(const Args &args);
Result runGapCorpus(const Args &args);
Result runServeMixed(const Args &args);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
