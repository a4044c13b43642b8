#include <sys/resource.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "bench.hh"

namespace perfbench
{

double
rssPeakMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;   // KiB on Linux
}

namespace
{

std::atomic<bool> g_on{false};
std::atomic<std::int64_t> g_remote_parent{-1};

/** One thread's spans plus its stack of open ones. */
struct ThreadBuf
{
    int index = 0;
    std::vector<Span> spans;
    std::vector<std::size_t> open;
};

std::mutex g_bufs_mu;   ///< guards g_bufs (not the buffers' contents)
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;

ThreadBuf &
threadBuf()
{
    thread_local ThreadBuf *buf = nullptr;
    if (buf == nullptr) {
        std::lock_guard<std::mutex> lock(g_bufs_mu);
        g_bufs.push_back(std::make_unique<ThreadBuf>());
        buf = g_bufs.back().get();
        buf->index = static_cast<int>(g_bufs.size() - 1);
        buf->spans.reserve(1 << 16);
    }
    return *buf;
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

} // namespace

void
traceEnable(bool on)
{
    g_on.store(on);
}

bool
traceOn()
{
    return g_on.load(std::memory_order_relaxed);
}

TraceScope::TraceScope(const char *name, std::int64_t op, int weight)
{
    if (!traceOn())
        return;
    ThreadBuf &buf = threadBuf();
    slot_ = buf.spans.size();
    id_ = (static_cast<std::int64_t>(buf.index) << 40) |
          static_cast<std::int64_t>(slot_);
    Span s;
    s.name = name;
    s.id = id_;
    s.parent = buf.open.empty()
                   ? g_remote_parent.load(std::memory_order_acquire)
                   : buf.spans[buf.open.back()].id;
    s.op = op;
    s.weight = weight;
    s.thread = buf.index;
    buf.open.push_back(slot_);
    buf.spans.push_back(s);
    buf.spans.back().startNs = nowNs();
}

TraceScope::~TraceScope()
{
    if (id_ < 0)
        return;
    ThreadBuf &buf = threadBuf();
    if (slot_ < buf.spans.size())   // not drained while open
        buf.spans[slot_].endNs = nowNs();
    buf.open.pop_back();
}

void
traceSetRemoteParent(std::int64_t id)
{
    g_remote_parent.store(id, std::memory_order_release);
}

std::vector<Span>
traceDrain()
{
    std::vector<Span> out;
    std::lock_guard<std::mutex> lock(g_bufs_mu);
    for (auto &buf : g_bufs) {
        out.insert(out.end(), buf->spans.begin(), buf->spans.end());
        buf->spans.clear();
    }
    return out;
}

std::map<std::string, SpanStats>
foldSpans(const std::vector<Span> &spans)
{
    std::unordered_map<std::int64_t, std::size_t> by_id;
    by_id.reserve(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        by_id.emplace(spans[i].id, i);
    std::vector<double> child_ms(spans.size(), 0.0);
    for (const Span &s : spans) {
        if (s.parent < 0)
            continue;
        const auto it = by_id.find(s.parent);
        if (it != by_id.end())
            child_ms[it->second] +=
                static_cast<double>(s.endNs - s.startNs) / 1e6;
    }
    std::map<std::string, SpanStats> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const double ms = static_cast<double>(s.endNs - s.startNs) / 1e6;
        SpanStats &st = out[s.name];
        ++st.calls;
        st.busyMs += ms;
        st.selfMs += ms * s.weight - child_ms[i];
        st.durUs.push_back(ms * 1000.0);
    }
    return out;
}

double
unattributedMs(const std::map<std::string, SpanStats> &fold,
               double traced_total_ms, Result &res)
{
    double attributed = 0.0;
    for (const auto &[name, st] : fold) {
        // Children may overrun a parent by clock granularity only.
        if (st.selfMs < -0.05 * static_cast<double>(st.calls) - 1.0)
            res.wrong("trace: negative self time for span '" + name +
                     "' (" + std::to_string(st.selfMs) + " ms)");
        attributed += st.selfMs;
    }
    const double unattributed = traced_total_ms - attributed;
    if (unattributed < -0.001 * traced_total_ms - 1.0)
        res.wrong("trace: layer self times (" + std::to_string(attributed) +
                 " ms) exceed the traced end-to-end time (" +
                 std::to_string(traced_total_ms) + " ms)");
    return std::max(unattributed, 0.0);
}

void
setPassMedians(const std::vector<PassMetrics> &passes, Result &res)
{
    for (const auto &[name, first] : passes.front()) {
        std::vector<double> vals;
        for (const PassMetrics &p : passes)
            vals.push_back(p.at(name));
        if (name.find(".calls") != std::string::npos ||
            name == "cme.queries") {
            for (double x : vals)
                if (x != first)
                    res.wrong("traced counter " + name +
                             " differs between passes");
            res.counters[name] = static_cast<std::int64_t>(first);
        }
        res.set(name, median(vals), "");
    }
}

} // namespace perfbench
