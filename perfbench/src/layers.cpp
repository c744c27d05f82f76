#include "layers.hpp"

#include <chrono>
#include <memory>
#include <utility>

namespace perfbench {

namespace {

using fastnet::node::Context;
using fastnet::node::LocalLink;
using fastnet::node::Protocol;

/// Times one handler invocation into a ledger. Handlers never nest, so the
/// span is the handler's self time, including the sends it makes.
class Span {
public:
    Span(HandlerLedger& ledger, bool timer)
        : ledger_(ledger),
          timer_(timer),
          allocs0_(allocs_this_thread()),
          t0_(std::chrono::steady_clock::now()) {}
    ~Span() {
        const auto t1 = std::chrono::steady_clock::now();
        ledger_.ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0_).count());
        ++ledger_.calls;
        if (timer_) ++ledger_.timer_calls;
        ledger_.allocs += allocs_this_thread() - allocs0_;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    HandlerLedger& ledger_;
    bool timer_;
    std::uint64_t allocs0_;
    std::chrono::steady_clock::time_point t0_;
};

class TimedProtocol final : public Protocol {
public:
    TimedProtocol(std::unique_ptr<Protocol> inner, HandlerLedger& ledger,
                  const void* counted_payload)
        : inner_(std::move(inner)), ledger_(ledger), counted_payload_(counted_payload) {}

    const Protocol& inner() const { return *inner_; }

    const char* name() const override { return inner_->name(); }
    void on_start(Context& ctx) override {
        Span s(ledger_, false);
        inner_->on_start(ctx);
    }
    void on_restart(Context& ctx) override {
        Span s(ledger_, false);
        inner_->on_restart(ctx);
    }
    void on_message(Context& ctx, const fastnet::hw::Delivery& d) override {
        if (counted_payload_ != nullptr && d.payload != nullptr &&
            d.payload->fastnet_type_tag == counted_payload_)
            ++ledger_.counted_deliveries;
        Span s(ledger_, false);
        inner_->on_message(ctx, d);
    }
    void on_link_state(Context& ctx, const LocalLink& link, bool up) override {
        Span s(ledger_, false);
        inner_->on_link_state(ctx, link, up);
    }
    void on_timer(Context& ctx, std::uint64_t cookie) override {
        Span s(ledger_, true);
        inner_->on_timer(ctx, cookie);
    }
    std::size_t memory_bytes() const override { return inner_->memory_bytes(); }

private:
    std::unique_ptr<Protocol> inner_;
    HandlerLedger& ledger_;
    const void* counted_payload_;
};

}  // namespace

fastnet::node::ProtocolFactory HandlerClock::wrap(fastnet::node::ProtocolFactory inner) {
    return [this, inner = std::move(inner)](fastnet::NodeId u) -> std::unique_ptr<Protocol> {
        FASTNET_EXPECTS(u < nodes_.size());
        return std::make_unique<TimedProtocol>(inner(u), nodes_[u], counted_payload_);
    };
}

HandlerLedger HandlerClock::total() const {
    HandlerLedger t;
    for (const HandlerLedger& l : nodes_) t.add(l);
    return t;
}

const Protocol& unwrap(const Protocol& p) {
    if (const auto* t = dynamic_cast<const TimedProtocol*>(&p)) return t->inner();
    return p;
}

}  // namespace perfbench
