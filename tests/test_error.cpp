#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "common/error.hpp"

// Replacement global allocator for this test binary: counts every call
// so a test can assert that a code path makes no heap allocation.
namespace {
std::atomic<std::size_t> g_allocations{0};
} // namespace

void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace youtiao {
namespace {

// Longer than the 15-byte small-string buffer: building a std::string
// from it would allocate.
constexpr const char *kLongMessage =
    "this check message is far longer than fifteen bytes";

/** The conditions come from a volatile so no check folds away. */
volatile bool g_true = true;

TEST(RequireChecks, PassingChecksNeverAllocate)
{
    const std::size_t before =
        g_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 1000; ++i) {
        requireConfig(g_true, kLongMessage);
        requireInternal(g_true, kLongMessage);
        requireConfig(g_true, "another literal well past the SSO limit");
        requireInternal(g_true, "another literal well past the SSO limit");
    }
    EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
}

TEST(RequireChecks, AllocatorReplacementIsLive)
{
    // Guards the test above: the counting allocator must see a real
    // heap string, or a zero count would prove nothing.
    const std::size_t before =
        g_allocations.load(std::memory_order_relaxed);
    const std::string heap(kLongMessage);
    volatile char first = heap[0];
    (void)first;
    EXPECT_GT(g_allocations.load(std::memory_order_relaxed) - before, 0u);
}

TEST(RequireChecks, FailingChecksThrowWithTheMessage)
{
    try {
        requireConfig(!g_true, kLongMessage);
        FAIL() << "requireConfig did not throw";
    } catch (const ConfigError &e) {
        EXPECT_EQ(std::string(e.what()),
                  std::string("youtiao config error: ") + kLongMessage);
    }
    try {
        requireInternal(!g_true, kLongMessage);
        FAIL() << "requireInternal did not throw";
    } catch (const InternalError &e) {
        EXPECT_EQ(std::string(e.what()),
                  std::string("youtiao internal error: ") + kLongMessage);
    }
}

} // namespace
} // namespace youtiao
