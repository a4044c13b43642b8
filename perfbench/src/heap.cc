/**
 * @file
 * Heap accounting for per-operation memory figures. The global
 * allocation functions are replaced so that, once counting is on, the
 * bytes in use and their high-water mark are kept; every allocation of
 * the code under test goes through them (its containers use the
 * default allocator, and the library's array, sized and nothrow forms
 * call these). With counting off they cost one relaxed load.
 */

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "bench.hh"

namespace
{

std::atomic<bool> g_counting{false};
std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_high{0};

} // namespace

void *
operator new(std::size_t n)
{
    void *p = std::malloc(n > 0 ? n : 1);
    if (p == nullptr)
        throw std::bad_alloc();
    if (g_counting.load(std::memory_order_relaxed)) {
        const auto size = static_cast<std::int64_t>(malloc_usable_size(p));
        const std::int64_t live =
            g_live.fetch_add(size, std::memory_order_relaxed) + size;
        std::int64_t high = g_high.load(std::memory_order_relaxed);
        while (live > high &&
               !g_high.compare_exchange_weak(high, live,
                                             std::memory_order_relaxed)) {
        }
    }
    return p;
}

void
operator delete(void *p) noexcept
{
    if (p == nullptr)
        return;
    if (g_counting.load(std::memory_order_relaxed))
        g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    ::operator delete(p);
}

namespace perfbench
{

void
heapCountingOn()
{
    g_counting.store(true, std::memory_order_relaxed);
}

std::int64_t
heapMark()
{
    const std::int64_t live = g_live.load(std::memory_order_relaxed);
    g_high.store(live, std::memory_order_relaxed);
    return live;
}

std::int64_t
heapHigh()
{
    return g_high.load(std::memory_order_relaxed);
}

} // namespace perfbench
