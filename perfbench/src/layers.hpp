// Per-layer host-time attribution, done from outside the program: a
// node::Protocol wrapper times every NCU handler invocation, and the traced
// benchmark program counts heap allocations through a replaced operator new.
// Nothing here reaches inside src/; the wrapper only sees the public
// node::Protocol interface.
#pragma once

#include <cstdint>
#include <vector>

#include "common/expect.hpp"
#include "node/cluster.hpp"

namespace perfbench {

/// Heap allocations (operator new calls) made so far by the whole process
/// and by the calling thread. Both stay 0 in the untraced program, which
/// keeps the standard operator new.
std::uint64_t allocs_total();
std::uint64_t allocs_this_thread();

/// Host time one node spent inside its NCU handlers. Each node's ledger is
/// written only by the thread running that node's shard.
struct HandlerLedger {
    std::uint64_t ns = 0;
    std::uint64_t calls = 0;
    std::uint64_t timer_calls = 0;
    std::uint64_t allocs = 0;
    std::uint64_t counted_deliveries = 0;  ///< Of the payload type HandlerClock counts.

    void add(const HandlerLedger& o) {
        ns += o.ns;
        calls += o.calls;
        timer_calls += o.timer_calls;
        allocs += o.allocs;
        counted_deliveries += o.counted_deliveries;
    }
};

/// Wraps every protocol instance a factory makes in a shim that times its
/// handlers into a per-node ledger. Must outlive every cluster built from
/// the wrapped factory. Deliveries whose payload carries the type tag
/// `counted_payload` (hw::TypedPayload<T>::tag()) are also counted, so one
/// message kind can be checked against its own bound.
class HandlerClock {
public:
    explicit HandlerClock(fastnet::NodeId node_count, const void* counted_payload = nullptr)
        : nodes_(node_count), counted_payload_(counted_payload) {}

    fastnet::node::ProtocolFactory wrap(fastnet::node::ProtocolFactory inner);

    const std::vector<HandlerLedger>& nodes() const { return nodes_; }
    HandlerLedger total() const;

private:
    std::vector<HandlerLedger> nodes_;
    const void* counted_payload_;
};

/// The protocol inside a HandlerClock shim, or `p` itself when unwrapped.
const fastnet::node::Protocol& unwrap(const fastnet::node::Protocol& p);

/// Downcast that sees through the shim.
template <typename T>
const T& protocol_as(const fastnet::node::Protocol& p) {
    const auto* q = dynamic_cast<const T*>(&unwrap(p));
    FASTNET_EXPECTS_MSG(q != nullptr, "protocol type mismatch");
    return *q;
}

}  // namespace perfbench
