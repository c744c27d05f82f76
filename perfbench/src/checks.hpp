// The benchmark's output checks. Each one tests a property the method must
// have (a theorem's bound, a conservation law, a closed form), computed
// from the inputs rather than compared with a saved copy of an earlier
// run. Each returns an empty string when the property holds and a
// one-line explanation when it does not. They take plain values so that
// tests/checks_test.cpp can feed them corrupted results.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "cost/metrics.hpp"
#include "election/election.hpp"
#include "paris/call_setup.hpp"

namespace perfbench {

using EdgeList = std::vector<std::pair<fastnet::NodeId, fastnet::NodeId>>;

/// What the simulator did, as counted by the program itself.
struct SimStats {
    std::uint64_t hops = 0;
    std::uint64_t system_calls = 0;  ///< Message deliveries to NCUs.
    std::uint64_t invocations = 0;   ///< All NCU involvements.
    fastnet::Tick completion = 0;

    friend bool operator==(const SimStats&, const SimStats&) = default;
};

/// Equal simulated statistics for two runs of the same inputs.
std::string check_same_sim(const SimStats& got, const SimStats& want, const std::string& what);

// ---- maintenance ---------------------------------------------------------

/// Theorem 1: node `u`'s usable view (pairs a < b) equals `truth` (sorted
/// pairs a < b) once the network is quiet.
std::string check_view(fastnet::NodeId u, EdgeList view, const EdgeList& truth);

/// Theorem 2: at most one system call per receiving node per broadcast,
/// so at most rounds * n * (n - 1) message system calls.
std::string check_broadcast_calls(std::uint64_t message_calls, std::uint64_t rounds,
                                  std::uint64_t n);

// ---- election ------------------------------------------------------------

/// Exactly one leader, and every node decided.
std::string check_one_leader(const std::vector<fastnet::elect::Role>& roles);

/// Theorem 5: at most 6n election messages; the announcement adds at most
/// n - 1. With every node decided it also adds at least n - 1, since a node
/// other than the leader decides only on an announcement message.
std::string check_election_messages(std::uint64_t election_messages,
                                    std::uint64_t announce_messages, std::uint64_t n);

/// Theorem 5 plus the announcement, for a run whose announcement messages
/// were not counted apart: at most 6n + n - 1 messages in all.
std::string check_election_total(std::uint64_t messages, std::uint64_t n);

/// Lemma 6: at most n / 2^p captures by phase-p candidates.
std::string check_lemma6(const std::vector<std::uint64_t>& captures_by_phase,
                         std::uint64_t n);

// ---- calls ---------------------------------------------------------------

/// After quiescence every agent reports full free capacity on every edge;
/// `free_capacity[u][e]` is agent u's view of edge e.
std::string check_capacity(const std::vector<std::vector<std::uint32_t>>& free_capacity,
                           std::uint32_t capacity);

/// Every offered call ends in exactly one terminal outcome.
std::string check_call_outcomes(const fastnet::cost::CallStats& s);

/// The longest a setup may take under the agent options: every attempt
/// resolves within setup_timeout, plus the backoff chain between attempts.
/// Doubled for the setup-latency histogram's power-of-two bucket bound and
/// for timer-fire queueing.
std::uint64_t retry_envelope(const fastnet::paris::CallAgentOptions& o);

std::string check_p99_setup(std::uint64_t p99, std::uint64_t envelope);

// ---- trace_queries -------------------------------------------------------

/// Chang-Roberts on a ring whose priorities equal the ids: node n - 1 wins,
/// and the run costs 3n - 1 messages (n for the winner's lap, n - 1 for the
/// tokens swallowed one hop out, n for the announcement lap).
std::string check_ring_election(fastnet::NodeId leader, std::uint64_t n,
                                std::uint64_t messages);

/// Records merged from the spill equal the recorded count and the count
/// the run must have produced (for a message-level trace, one send record
/// per injection and one delivery record per NCU delivery).
std::string check_spill_records(std::uint64_t merged, std::uint64_t recorded,
                                std::uint64_t expected);

std::string check_resident(std::uint64_t resident_bytes, std::uint64_t budget_bytes);

/// Parses `fastnet_trace DIR --check` output: merged and recorded counts.
bool parse_check_output(const std::string& out, std::uint64_t& merged,
                        std::uint64_t& recorded);

/// `fastnet_trace DIR --summary` per-kind counts equal the run's own
/// send and delivery counts.
std::string check_kind_counts(const std::string& summary, std::uint64_t sends,
                              std::uint64_t deliveries);

/// Every path line of `fastnet_trace DIR --critical-path` has segment
/// totals that sum to its latency. On success stores the witness path's
/// root lineage in `root`.
std::string check_critical_path(const std::string& out, std::uint64_t& root);

}  // namespace perfbench
