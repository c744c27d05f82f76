// The traced program's operator new: counts every heap allocation, per
// thread (for the handler wrapper's deltas) and process-wide (for the
// allocations a run makes outside handlers). The library's nothrow forms
// call these; the over-aligned forms keep the library's definitions and go
// uncounted.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "layers.hpp"

namespace {

// One counter per thread, each on its own cache line, so that shard
// threads allocating concurrently do not contend on a shared counter.
// Threads past the last slot share it (counts stay exact, only slower).
constexpr std::size_t kSlots = 1024;

struct alignas(64) Slot {
    std::atomic<std::uint64_t> allocs{0};
};

Slot g_slots[kSlots];
std::atomic<std::size_t> g_next_slot{0};

Slot& my_slot() {
    thread_local Slot* slot = nullptr;
    if (slot == nullptr) {
        const std::size_t i = g_next_slot.fetch_add(1, std::memory_order_relaxed);
        slot = &g_slots[i < kSlots ? i : kSlots - 1];
    }
    return *slot;
}

void* counted_alloc(std::size_t size) {
    my_slot().allocs.fetch_add(1, std::memory_order_relaxed);
    if (size == 0) size = 1;
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

std::uint64_t allocs_total() {
    std::uint64_t total = 0;
    const std::size_t used = std::min(g_next_slot.load(std::memory_order_relaxed), kSlots);
    for (std::size_t i = 0; i < used; ++i) total += g_slots[i].allocs.load(std::memory_order_relaxed);
    return total;
}

std::uint64_t allocs_this_thread() { return my_slot().allocs.load(std::memory_order_relaxed); }

}  // namespace perfbench
