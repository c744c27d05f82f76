// The four workloads, each as one "round": generate the inputs, build the
// cluster, run it to quiescence, check its outputs, and (once the cluster
// is gone, so the query processes do not stack on its memory) query what
// it produced through the fastnet_trace CLI. main.cpp repeats
// rounds for the requested time and reports medians.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "layers.hpp"
#include "queries.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool traced = false;
    std::string tmp;            ///< Scratch directory for spills and query output.
    std::string spawn;          ///< Path of the perfbench_spawn helper.
    std::string fastnet_trace;  ///< Path of the fastnet_trace CLI.
};

/// How one round runs. `wrap` installs the handler-timing shim; `sim_trace`
/// records the simulator's trace to a spill directory. `first` marks a
/// process's first round, which always records the trace, answers the
/// spill queries and runs the checks too costly to repeat; later rounds
/// must reproduce its simulated statistics exactly.
struct RoundPlan {
    bool wrap = false;
    bool sim_trace = false;
    bool first = false;
};

struct NamedQuery {
    unsigned set = 0;  ///< Which repetition of the four queries.
    std::string name;  ///< check, summary, critical_path or chain.
    double cpu_s = 0;
    double peak_rss_mib = 0;
};

/// What a traced round's spill queries must answer, from the run's own
/// counts; the queries run once the cluster is destroyed.
struct PendingQueries {
    std::uint64_t sends = 0;
    std::uint64_t deliveries = 0;
    std::uint64_t expected_records = 0;
};

/// Every time in a round is CPU seconds of the process, all threads (see
/// cpu_now in workloads.cpp), except the handler wrapper's own clock.
struct Round {
    RoundPlan plan;
    double generate_s = 0;
    double construct_s = 0;
    double run_s = 0;
    double run_wall_s = 0;  ///< The run's wall time.
    double check_s = 0;
    std::uint64_t construct_allocs = 0;
    std::uint64_t run_allocs = 0;
    SimStats sim;
    HandlerLedger handlers;               ///< Summed over nodes (wrapped rounds).
    std::vector<double> shard_handler_s;  ///< Per shard (wrapped rounds).
    std::uint64_t cut_edges = 0;
    std::uint64_t spill_records = 0;
    std::uint64_t spill_bytes = 0;
    PendingQueries pending;
    std::vector<NamedQuery> queries;
    std::vector<std::string> errors;
    std::uint64_t operations = 0;  ///< Simulations plus queries this round attempted.
    std::uint64_t failed = 0;      ///< Of those, queries that exited non-zero.
};

struct Workload {
    const char* name;
    /// Whether the workload's normal round records the simulator trace.
    bool sim_traced;
    /// Whether the cluster runs its own worker threads. Single-threaded
    /// rounds are rotated over the CPUs (cpu_rotation.hpp); threaded ones
    /// already span them, and their pool threads would inherit a one-CPU
    /// mask if the constructing thread were pinned.
    bool threaded;
    Round (*round)(const Options&, const RoundPlan&, const std::string& dir);
    /// Extra once-per-process check (may be null); returns its error or "".
    std::string (*reference)(const Options&, const Round& first);
};

const Workload* find_workload(const std::string& name);

/// CPU seconds the spill queries of one run are repeated for (see
/// run_queries).
constexpr double kQuerySeconds = 1.0;

/// Runs the four fastnet_trace queries over the spill a traced round left
/// in `dir` and checks their output against the round's pending counts.
/// The set repeats until it has taken kQuerySeconds, each time over a fresh
/// copy of the recording, so --chain builds its lineage sidecar every time.
/// A single set of a few hundredths of a second is mostly process start and
/// page faults, and its total spread by a quarter from run to run.
void run_queries(const Options& o, const std::string& dir, Round& r);

}  // namespace perfbench
