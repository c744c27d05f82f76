// perfbench: runs one workload repeatedly for a fixed time, checks every
// round's outputs, and prints one JSON result line. run.py builds this
// program and is the command to use; see README.md.
//
//   perfbench --workload NAME --seed N --seconds S --tmp DIR --spawn PATH
//             --fastnet-trace PATH
//
// The untraced program prints the end-to-end metrics; perfbench_traced
// (same arguments) installs the handler wrapper and the allocation counter
// and prints the per-layer metrics.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "cpu_rotation.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

template <typename F>
double median_of(const std::vector<const Round*>& rounds, F f) {
    std::vector<double> v;
    for (const Round* r : rounds) v.push_back(f(*r));
    return median(v);
}

/// Peak resident set of this process's own address space (VmHWM), MiB.
double peak_rss_mib() {
    std::ifstream f("/proc/self/status");
    for (std::string line; std::getline(f, line);)
        if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
    return 0;
}

struct Metric {
    std::string name;
    double value;
    const char* unit;
};

/// Median over the first round's query sets of `f`, summed over the
/// queries of a set that `pick` selects.
template <typename Pick, typename F>
double per_set_median(const Round& first, Pick pick, F f) {
    std::vector<double> sets;
    for (const NamedQuery& q : first.queries) {
        if (sets.size() <= q.set) sets.resize(q.set + 1, 0.0);
        if (pick(q)) sets[q.set] += f(q);
    }
    return median(sets);
}

/// The rounds that time the run: all but the first cycle's, whose
/// allocations fault in fresh pages and whose runs are therefore slower by
/// a varying margin. The first cycle still gives the cold set-up, the
/// one-off checks and the spill queries. Every run has at least two cycles.
std::vector<const Round*> warm(const std::vector<Round>& rounds, std::size_t cycle_len) {
    std::vector<const Round*> out;
    for (std::size_t i = cycle_len; i < rounds.size(); ++i) out.push_back(&rounds[i]);
    return out;
}

std::vector<Metric> end_to_end(const std::vector<Round>& rounds) {
    const std::vector<const Round*> all = warm(rounds, 1);
    const Round& first = rounds.front();
    double query_rss = 0;
    for (const NamedQuery& q : first.queries) query_rss = std::max(query_rss, q.peak_rss_mib);
    const double query_s = per_set_median(
        first, [](const NamedQuery&) { return true; }, [](const NamedQuery& q) { return q.cpu_s; });
    return {
        {"run_s", median_of(all, [](const Round& r) { return r.run_s; }), "s"},
        // One cold set-up per process: the first round's.
        {"setup_s", first.generate_s + first.construct_s, "s"},
        {"hops_per_s",
         median_of(all, [](const Round& r) { return static_cast<double>(r.sim.hops) / r.run_s; }),
         "hops/s"},
        {"peak_rss_mib", peak_rss_mib(), "MiB"},
        {"query_s", query_s, "s"},
        {"query_peak_rss_mib", query_rss, "MiB"},
    };
}

/// `usual`: whether the workload's own rounds record the simulator trace.
std::vector<Metric> per_layer(const std::vector<Round>& rounds, bool usual) {
    // A: wrapped, the workload's usual tracing; B: unwrapped, the same;
    // C: wrapped, simulator tracing flipped.
    std::vector<const Round*> all, a, b, wrapped_sim_on, wrapped_sim_off;
    for (const Round* rp : warm(rounds, 3)) {
        const Round& r = *rp;
        all.push_back(&r);
        if (r.plan.wrap && r.plan.sim_trace == usual) a.push_back(&r);
        if (!r.plan.wrap) b.push_back(&r);
        if (r.plan.wrap) (r.plan.sim_trace ? wrapped_sim_on : wrapped_sim_off).push_back(&r);
    }
    const Round& last = *a.back();
    const auto handler_s = [](const Round& r) { return static_cast<double>(r.handlers.ns) * 1e-9; };
    const auto kernel_s = [&](const Round& r) { return r.run_s - handler_s(r); };
    const auto shard_max = [](const Round& r) {
        return *std::max_element(r.shard_handler_s.begin(), r.shard_handler_s.end());
    };
    const auto shard_imbalance = [&](const Round& r) {
        double sum = 0;
        for (double s : r.shard_handler_s) sum += s;
        return sum > 0 ? shard_max(r) * static_cast<double>(r.shard_handler_s.size()) / sum : 0.0;
    };
    const auto run_s = [](const Round& r) { return r.run_s; };
    const auto obs_s = [&](const std::string& name) {
        return per_set_median(
            rounds.front(), [&](const NamedQuery& q) { return q.name == name; },
            [](const NamedQuery& q) { return q.cpu_s; });
    };
    const auto obs_rss = [&](const std::string& name) {
        return per_set_median(
            rounds.front(), [&](const NamedQuery& q) { return q.name == name; },
            [](const NamedQuery& q) { return q.peak_rss_mib; });
    };
    const double events = static_cast<double>(last.sim.hops + last.handlers.calls);
    return {
        {"graph.generate_s", median_of(all, [](const Round& r) { return r.generate_s; }), "s"},
        {"node.construct_s", median_of(all, [](const Round& r) { return r.construct_s; }), "s"},
        // From an unwrapped round: the shim adds allocations of its own.
        {"node.construct_allocs", static_cast<double>(b.back()->construct_allocs), "count"},
        {"ncu.handler_s", median_of(a, handler_s), "s"},
        {"ncu.handler_calls", static_cast<double>(last.handlers.calls), "count"},
        {"ncu.timer_calls", static_cast<double>(last.handlers.timer_calls), "count"},
        {"ncu.handler_ns", median_of(a, handler_s) * 1e9 / static_cast<double>(last.handlers.calls),
         "ns"},
        {"ncu.handler_allocs", static_cast<double>(last.handlers.allocs), "count"},
        {"kernel.self_s", median_of(a, kernel_s), "s"},
        {"kernel.ns_per_event", median_of(a, kernel_s) * 1e9 / events, "ns"},
        {"kernel.allocs", static_cast<double>(last.run_allocs - last.handlers.allocs), "count"},
        {"hw.hops", static_cast<double>(last.sim.hops), "count"},
        {"node.ncu_invocations", static_cast<double>(last.sim.invocations), "count"},
        {"node.shard_cut_edges", static_cast<double>(last.cut_edges), "count"},
        {"node.shard_handler_s_max", median_of(a, shard_max), "s"},
        {"node.shard_imbalance", median_of(a, shard_imbalance), "ratio"},
        // The first round runs every check; later ones skip the costliest.
        {"fault.check_s", rounds.front().check_s, "s"},
        {"sim.trace_overhead_s", median_of(wrapped_sim_on, run_s) - median_of(wrapped_sim_off, run_s),
         "s"},
        {"sim.spill_records", static_cast<double>(rounds.front().spill_records), "count"},
        {"sim.spill_bytes", static_cast<double>(rounds.front().spill_bytes), "bytes"},
        {"obs.check_s", obs_s("check"), "s"},
        {"obs.summary_s", obs_s("summary"), "s"},
        {"obs.critical_path_s", obs_s("critical_path"), "s"},
        {"obs.chain_s", obs_s("chain"), "s"},
        {"obs.check_rss_mib", obs_rss("check"), "MiB"},
        {"obs.summary_rss_mib", obs_rss("summary"), "MiB"},
        {"obs.critical_path_rss_mib", obs_rss("critical_path"), "MiB"},
        {"obs.chain_rss_mib", obs_rss("chain"), "MiB"},
        {"bench.traced_run_s", median_of(a, run_s), "s"},
        {"bench.untraced_run_s", median_of(b, run_s), "s"},
        {"bench.run_wall_s", median_of(b, [](const Round& r) { return r.run_wall_s; }), "s"},
    };
}

std::string format_number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

bool parse_args(int argc, char** argv, Options& o) {
    std::map<std::string, std::string> kv;
    for (int i = 1; i + 1 < argc; i += 2) {
        if (std::strncmp(argv[i], "--", 2) != 0) return false;
        kv[argv[i] + 2] = argv[i + 1];
    }
    if (argc % 2 != 1) return false;
    for (const char* key : {"workload", "seed", "seconds", "tmp", "spawn", "fastnet-trace"})
        if (kv.count(key) == 0) return false;
    o.workload = kv["workload"];
    o.seed = std::strtoull(kv["seed"].c_str(), nullptr, 10);
    o.seconds = std::atof(kv["seconds"].c_str());
    o.tmp = kv["tmp"];
    o.spawn = kv["spawn"];
    o.fastnet_trace = kv["fastnet-trace"];
    return o.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
    Options o;
    if (!parse_args(argc, argv, o)) {
        std::cerr << "usage: " << argv[0]
                  << " --workload NAME --seed N --seconds S --tmp DIR --spawn PATH"
                     " --fastnet-trace PATH\n";
        return 2;
    }
    const Workload* w = find_workload(o.workload);
    if (w == nullptr) {
        std::cerr << "unknown workload " << o.workload << "\n";
        return 2;
    }
#ifdef PERFBENCH_TRACED
    o.traced = true;
#endif

    // Untraced: every round runs the workload as a user would. Traced:
    // whole cycles of three rounds, so the wrapper's own cost (A vs B) and
    // the simulator trace's cost (A vs C) come from the same process.
    std::vector<RoundPlan> cycle;
    if (o.traced)
        cycle = {{true, w->sim_traced}, {false, w->sim_traced}, {true, !w->sim_traced}};
    else
        cycle = {{false, w->sim_traced}};

    // The first cycle is the warm-up, left out of the time medians. Its
    // first round records the simulator trace on every workload, and the
    // spill queries run over that one recording; it also gives the cold
    // set-up and runs the checks too costly to repeat. Timed cycles follow,
    // whole cycles only, until they have taken --seconds of wall time, so
    // every run attempts whole rounds and at least one timed cycle runs.
    std::vector<Round> rounds;
    Clock::time_point timed_start;
    do {
        for (RoundPlan plan : cycle) {
            plan.first = rounds.empty();
            if (plan.first) plan.sim_trace = true;
            const std::string dir = o.tmp + "/round-" + std::to_string(rounds.size());
            std::filesystem::create_directories(dir);
            {
                std::optional<CpuRotation> rotate;
                if (!w->threaded) rotate.emplace(0);
                rounds.push_back(w->round(o, plan, dir));
            }
            if (plan.first) run_queries(o, dir, rounds.back());
            std::error_code ec;
            std::filesystem::remove_all(dir, ec);
        }
        if (rounds.size() == cycle.size()) timed_start = Clock::now();
    } while (rounds.size() < 2 * cycle.size() ||
             std::chrono::duration<double>(Clock::now() - timed_start).count() < o.seconds);

    std::vector<std::string> errors;
    std::uint64_t attempted = 0, failed = 0;
    for (std::size_t i = 0; i < rounds.size(); ++i) {
        attempted += rounds[i].operations;
        failed += rounds[i].failed;
        for (const std::string& e : rounds[i].errors)
            errors.push_back("round " + std::to_string(i) + ": " + e);
        const std::string same = check_same_sim(rounds[i].sim, rounds.front().sim,
                                                "round " + std::to_string(i) + " vs round 0");
        if (!same.empty()) errors.push_back(same);
    }
    if (w->reference != nullptr) {
        ++attempted;
        const std::string e = w->reference(o, rounds.front());
        if (!e.empty()) errors.push_back(e);
    }
    for (const std::string& e : errors) std::cerr << "check failed: " << e << "\n";
    std::cerr << o.workload << ": " << rounds.size() << " rounds, run_s";
    for (const Round& r : rounds) std::cerr << " " << r.run_s;
    std::cerr << "\n";

    const std::vector<Metric> metrics = o.traced ? per_layer(rounds, w->sim_traced) : end_to_end(rounds);
    std::ostringstream out;
    out << "{\"correct\": " << (errors.empty() ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
            << "\": {\"value\": " << format_number(metrics[i].value) << ", \"unit\": \""
            << metrics[i].unit << "\"}";
    out << "}}";
    std::cout << out.str() << std::endl;
    return 0;
}
