#include "workloads.hpp"

#include <time.h>

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <memory>

#include "fastnet.hpp"

namespace perfbench {

namespace {

using namespace fastnet;

/// CPU seconds this process has used so far, every thread, user plus
/// system. Rounds are timed with it, not with the wall clock: on a shared
/// host, how long a thread waits for a CPU (co-tenant load, steal) varied
/// from run to run by more than the program's own cost did.
double cpu_now() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Runs `c` to quiescence as one operation of `r`, and records the run's
/// CPU time, wall time and heap allocations.
template <typename Cluster>
Tick timed_run(Cluster& c, Round& r) {
    const std::uint64_t a0 = allocs_total();
    const auto wall0 = Clock::now();
    const double t0 = cpu_now();
    const Tick completion = c.run();
    r.run_s = cpu_now() - t0;
    r.run_wall_s = std::chrono::duration<double>(Clock::now() - wall0).count();
    r.run_allocs = allocs_total() - a0;
    ++r.operations;
    return completion;
}

void add_error(Round& r, std::string e) {
    if (!e.empty()) r.errors.push_back(std::move(e));
}

SimStats sim_stats(const cost::Metrics& m, Tick completion) {
    return {m.net().hops, m.total_message_system_calls(), m.total_invocations(), completion};
}

constexpr std::size_t kTraceBudget = std::size_t{4} << 20;  // resident bytes per trace

/// Message-level trace (sends and deliveries) spilling into `dir`.
std::shared_ptr<sim::Trace> spill_trace(const std::string& dir) {
    auto trace = std::make_shared<sim::Trace>(std::size_t{1} << 16);
    trace->disable_all();
    trace->set_enabled(sim::TraceKind::kSend, true);
    trace->set_enabled(sim::TraceKind::kDeliver, true);
    sim::TraceSpillConfig spill;
    spill.path = dir + "/trace.fnspill";
    spill.resident_budget_bytes = kTraceBudget;
    std::string error;
    FASTNET_ENSURES_MSG(trace->enable_spill(spill, &error), "spill enable failed");
    return trace;
}

/// The wrapped factory when a clock is given, else `factory` itself.
node::ProtocolFactory maybe_wrap(HandlerClock* clock, node::ProtocolFactory factory) {
    return clock != nullptr ? clock->wrap(std::move(factory)) : factory;
}

/// Checks that only wrapped rounds can make: the wrapper saw every NCU
/// invocation the program counted, no more and no fewer.
void check_handler_calls(Round& r) {
    if (r.plan.wrap && r.handlers.calls != r.sim.invocations)
        add_error(r, "wrapper timed " + std::to_string(r.handlers.calls) +
                         " handler calls, the program counted " +
                         std::to_string(r.sim.invocations) + " NCU invocations");
}

/// Records one query. One that exits non-zero counts as a failed
/// operation and has no output to check; returns whether it succeeded.
bool record_query(Round& r, unsigned set, const char* name, const QueryResult& q) {
    r.queries.push_back({set, name, q.cpu_s, q.peak_rss_mib});
    ++r.operations;
    if (q.status == 0) return true;
    ++r.failed;
    std::cerr << "fastnet_trace " << name << " exited with " << q.status << "\n";
    return false;
}

/// Queries over the round's spill. The run's injections and NCU deliveries
/// are what --summary must count as send and deliver records;
/// `expected_records` is what --check must find in total.
PendingQueries spill_pending(const cost::Metrics& m, std::uint64_t expected_records) {
    return {m.net().injections, m.net().ncu_deliveries, expected_records};
}

// ---- maintenance (P1) ------------------------------------------------------
//
// Section-3 topology maintenance with branching-paths broadcast on the
// dense 512-node random graph of bench_parallel_sim: every node floods its
// local topology 4 times while two links flap. Sharded engine, 4 shards.

constexpr NodeId kMaintNodes = 512;
constexpr unsigned kMaintRounds = 4;
constexpr unsigned kMaintShards = 4;

topo::TopologyOptions maint_options() {
    topo::TopologyOptions opt;
    opt.period = 64;
    opt.rounds = kMaintRounds;
    return opt;
}

graph::Graph maint_graph(std::uint64_t seed) {
    Rng rng(seed);
    return graph::make_random_connected(kMaintNodes, 2, 7, rng);
}

node::ParallelClusterConfig maint_config(std::uint64_t seed, unsigned shards,
                                         const std::string& spill_dir) {
    node::ParallelClusterConfig cfg;
    cfg.params.hop_delay = 2;  // C = 2 gives the sharded kernel lookahead 2
    cfg.params.ncu_delay = 1;
    cfg.net.hop_delay_min = -1;
    cfg.seed = seed;
    cfg.shards = shards;
    cfg.threads = std::min(shards, exec::ThreadPool::hardware_threads());
    if (!spill_dir.empty()) {
        cfg.trace_capacity = std::size_t{1} << 16;
        cfg.trace_spill_dir = spill_dir;
        cfg.trace_budget_bytes = kTraceBudget;
    }
    return cfg;
}

void maint_script(node::ParallelCluster& c) {
    c.start_all(0);
    c.fail_link(70, 0);
    c.restore_link(130, 0);
    c.fail_link(200, 1);
    c.restore_link(260, 1);
}

Round maintenance_round(const Options& o, const RoundPlan& plan, const std::string& dir) {
    Round r;
    r.plan = plan;
    const auto t0 = cpu_now();
    graph::Graph g = maint_graph(o.seed);
    const auto t1 = cpu_now();
    std::unique_ptr<HandlerClock> clock;
    if (plan.wrap) clock = std::make_unique<HandlerClock>(kMaintNodes);
    const std::uint64_t a0 = allocs_total();
    node::ParallelCluster c(
        std::move(g),
        maybe_wrap(clock.get(), topo::make_topology_maintenance(kMaintNodes, maint_options())),
        maint_config(o.seed, kMaintShards, plan.sim_trace ? dir : std::string()));
    const auto t2 = cpu_now();
    r.construct_allocs = allocs_total() - a0;
    r.generate_s = t1 - t0;
    r.construct_s = t2 - t1;
    maint_script(c);

    const Tick completion = timed_run(c, r);
    const cost::Metrics m = c.merged_metrics();
    r.sim = sim_stats(m, completion);
    r.cut_edges = c.partition().boundary_edges.size();

    const auto t5 = cpu_now();
    if (plan.first) {
        // Theorem 1 costs about as much host time as the run, so only the
        // first round compares every node's view.
        EdgeList truth;
        for (const graph::Edge& e : c.graph().edges())
            truth.emplace_back(std::min(e.a, e.b), std::max(e.a, e.b));
        std::sort(truth.begin(), truth.end());
        for (NodeId u = 0; u < kMaintNodes && r.errors.empty(); ++u)
            add_error(r, check_view(u,
                                    protocol_as<topo::TopologyMaintenance>(c.protocol(u))
                                        .active_view(),
                                    truth));
    }
    add_error(r, check_broadcast_calls(r.sim.system_calls, kMaintRounds, kMaintNodes));
    r.check_s = cpu_now() - t5;

    if (clock) {
        r.handlers = clock->total();
        r.shard_handler_s.assign(c.shard_count(), 0.0);
        for (NodeId u = 0; u < kMaintNodes; ++u)
            r.shard_handler_s[c.partition().shard_of[u]] +=
                static_cast<double>(clock->nodes()[u].ns) * 1e-9;
        check_handler_calls(r);
    }
    if (plan.sim_trace) {
        r.spill_records = m.trace_stats().spilled_records;
        r.spill_bytes = m.trace_stats().spilled_bytes;
        // Every shard traces every kind, so there is no closed form for the
        // total; the merge must still return every recorded record.
        r.pending = spill_pending(m, m.trace_stats().total_recorded);
    }
    return r;
}

/// Theorem-independent cross-check: a one-shard run of the same inputs
/// makes the same hops and system calls and ends at the same tick.
std::string maintenance_reference(const Options& o, const Round& first) {
    node::ParallelCluster c(maint_graph(o.seed),
                            topo::make_topology_maintenance(kMaintNodes, maint_options()),
                            maint_config(o.seed, 1, std::string()));
    maint_script(c);
    const Tick completion = c.run();
    return check_same_sim(first.sim, sim_stats(c.merged_metrics(), completion),
                          "4-shard run vs 1-shard run");
}

// ---- election (E6) ---------------------------------------------------------
//
// Section-4 election with announcement on a 96 x 96 grid, sequential
// engine. The election draws no random numbers, so the seed (which seeds
// the nodes' random streams) leaves the run unchanged. The seed does not
// relabel the grid either: with shuffled ids the same grid took 228 s
// instead of about 5 s (4-core Xeon, RelWithDebInfo), since host time
// follows the shape of the INOUT trees, not the message count; README.md
// has the details.

constexpr NodeId kElectSide = 96;

Round election_round(const Options& o, const RoundPlan& plan, const std::string& dir) {
    Round r;
    r.plan = plan;
    node::ClusterConfig cfg;
    cfg.seed = o.seed;
    if (plan.sim_trace) cfg.trace = spill_trace(dir);
    const auto t0 = cpu_now();
    graph::Graph g = graph::make_grid(kElectSide, kElectSide);
    const auto t1 = cpu_now();
    const NodeId n = g.node_count();
    // Wrapped rounds count the announcement's LeaderToken deliveries apart.
    std::unique_ptr<HandlerClock> clock;
    if (plan.wrap)
        clock = std::make_unique<HandlerClock>(n, hw::TypedPayload<elect::LeaderToken>::tag());
    const std::uint64_t a0 = allocs_total();
    node::Cluster c(std::move(g), maybe_wrap(clock.get(), [](NodeId) {
                        return std::make_unique<elect::ElectionProtocol>(
                            elect::ElectionOptions{});
                    }),
                    cfg);
    const auto t2 = cpu_now();
    r.construct_allocs = allocs_total() - a0;
    r.generate_s = t1 - t0;
    r.construct_s = t2 - t1;

    c.start_all(0);
    const Tick completion = timed_run(c, r);
    const cost::Metrics& m = c.metrics();
    r.sim = sim_stats(m, completion);

    const auto t5 = cpu_now();
    std::vector<elect::Role> roles(n);
    std::vector<std::uint64_t> captures;
    std::uint64_t leader_domain = 0;
    for (NodeId u = 0; u < n; ++u) {
        const auto& p = protocol_as<elect::ElectionProtocol>(c.protocol(u));
        roles[u] = p.role();
        if (p.role() == elect::Role::kLeader) leader_domain = p.domain_size();
        const auto& caps = p.captures_by_phase();
        if (captures.size() < caps.size()) captures.resize(caps.size(), 0);
        for (std::size_t i = 0; i < caps.size(); ++i) captures[i] += caps[i];
    }
    add_error(r, check_one_leader(roles));
    if (r.errors.empty() && leader_domain != n)
        add_error(r, "election: the leader's domain holds " + std::to_string(leader_domain) +
                         " of " + std::to_string(n) + " nodes");
    add_error(r, check_lemma6(captures, n));
    if (clock) {
        r.handlers = clock->total();
        const std::uint64_t announce = r.handlers.counted_deliveries;
        add_error(r, check_election_messages(m.net().injections - announce, announce, n));
    } else {
        add_error(r, check_election_total(m.net().injections, n));
    }
    r.check_s = cpu_now() - t5;

    if (clock) {
        r.shard_handler_s = {static_cast<double>(r.handlers.ns) * 1e-9};
        check_handler_calls(r);
    }
    if (plan.sim_trace) {
        add_error(r, check_resident(c.trace()->resident_bytes(), kTraceBudget));
        r.spill_records = m.trace_stats().spilled_records;
        r.spill_bytes = m.trace_stats().spilled_bytes;
        r.pending = spill_pending(m, m.net().injections + m.net().ncu_deliveries);
    }
    return r;
}

// ---- calls (C1) ------------------------------------------------------------
//
// The sustained open-loop PARIS call workload of bench_calls at 1.5x
// offered load: 8 x 8 grid, capacity 4, Poisson arrivals until tick
// 170,000, sequential engine. The seed drives every node's arrival stream.

constexpr NodeId kCallSide = 8;
constexpr std::uint32_t kCallCap = 4;
constexpr double kCallHold = 200;
constexpr Tick kCallUntil = 170'000;
constexpr double kCallLoad = 1.5;

/// bench_calls' agent options for offered utilization kCallLoad on `g`.
paris::CallAgentOptions call_options(const graph::Graph& g) {
    // A call on an h-hop route holds h units (one per upstream link) for
    // its holding time; the pool is every directed link times capacity.
    const NodeId n = g.node_count();
    double path_sum = 0;
    for (NodeId u = 0; u < n; ++u) {
        const graph::BfsResult b = graph::bfs(g, u);
        for (NodeId v = 0; v < n; ++v)
            if (v != u) path_sum += b.dist[v];
    }
    const double mean_path = path_sum / (static_cast<double>(n) * (n - 1));
    const double pool = 2.0 * static_cast<double>(g.edge_count()) * kCallCap;
    const double gap_at_capacity = static_cast<double>(n) * kCallHold * mean_path / pool;

    paris::CallAgentOptions opt;
    opt.link_capacity = kCallCap;
    opt.setup_timeout = 200;
    opt.max_retries = 3;
    opt.retry_backoff = 16;
    opt.retry_jitter = 4;
    opt.reservation_ttl = 400;
    opt.refresh_interval = 100;
    opt.max_inflight = 8;
    opt.bucket_rate_num = 1;
    opt.bucket_rate_den = static_cast<Tick>(gap_at_capacity);
    opt.bucket_burst = 4;
    opt.retain_terminal = false;
    opt.workload.arrivals = paris::ArrivalProcess::kPoisson;
    opt.workload.mean_interarrival = gap_at_capacity / kCallLoad;
    opt.workload.mean_hold = kCallHold;
    opt.workload.first_at = 1;
    opt.workload.until = kCallUntil;
    return opt;
}

Round calls_round(const Options& o, const RoundPlan& plan, const std::string& dir) {
    Round r;
    r.plan = plan;
    node::ClusterConfig cfg;
    cfg.seed = o.seed;
    if (plan.sim_trace) cfg.trace = spill_trace(dir);
    const auto t0 = cpu_now();
    auto g = std::make_shared<graph::Graph>(graph::make_grid(kCallSide, kCallSide));
    const paris::CallAgentOptions opt = call_options(*g);
    const auto t1 = cpu_now();
    const NodeId n = g->node_count();
    std::unique_ptr<HandlerClock> clock;
    if (plan.wrap) clock = std::make_unique<HandlerClock>(n);
    const std::uint64_t a0 = allocs_total();
    node::Cluster c(*g, maybe_wrap(clock.get(), paris::make_call_workload(g, opt)), cfg);
    const auto t2 = cpu_now();
    r.construct_allocs = allocs_total() - a0;
    r.generate_s = t1 - t0;
    r.construct_s = t2 - t1;

    c.start_all(0);
    const Tick completion = timed_run(c, r);
    const cost::Metrics& m = c.metrics();
    r.sim = sim_stats(m, completion);

    const auto t5 = cpu_now();
    std::vector<std::vector<std::uint32_t>> free_capacity(n);
    cost::CallStats folded;
    for (NodeId u = 0; u < n; ++u) {
        const auto& agent = protocol_as<paris::CallAgentProtocol>(c.protocol(u));
        free_capacity[u].resize(g->edge_count());
        for (EdgeId e = 0; e < g->edge_count(); ++e)
            free_capacity[u][e] = agent.free_capacity(e);
        folded.merge_from(agent.stats());
    }
    // fold_call_stats downcasts each node's protocol itself, so it can only
    // read unwrapped clusters.
    const cost::CallStats s = plan.wrap ? folded : paris::fold_call_stats(c);
    add_error(r, check_capacity(free_capacity, kCallCap));
    add_error(r, check_call_outcomes(s));
    add_error(r, check_p99_setup(s.setup_latency.quantile_bound(0.99), retry_envelope(opt)));
    r.check_s = cpu_now() - t5;

    if (clock) {
        r.handlers = clock->total();
        r.shard_handler_s = {static_cast<double>(r.handlers.ns) * 1e-9};
        check_handler_calls(r);
    }
    if (plan.sim_trace) {
        add_error(r, check_resident(c.trace()->resident_bytes(), kTraceBudget));
        r.spill_records = m.trace_stats().spilled_records;
        r.spill_bytes = m.trace_stats().spilled_bytes;
        r.pending = spill_pending(m, m.net().injections + m.net().ncu_deliveries);
    }
    return r;
}

// ---- trace_queries (M1 + O-series) -----------------------------------------
//
// A fully traced Chang-Roberts election on a 10^6-node ring (sends and
// deliveries, 4 MiB resident spill budget), then the four fastnet_trace
// queries over the fresh spill directory. Priorities equal the ids, so the
// outcome has a closed form; the seed only seeds the nodes' random streams.

constexpr NodeId kRingNodes = 1'000'000;

Round trace_round(const Options& o, const RoundPlan& plan, const std::string& dir) {
    Round r;
    r.plan = plan;
    node::ClusterConfig cfg;
    cfg.seed = o.seed;
    if (plan.sim_trace) cfg.trace = spill_trace(dir);
    const auto t0 = cpu_now();
    graph::Graph g = graph::make_cycle(kRingNodes);
    const auto t1 = cpu_now();
    std::unique_ptr<HandlerClock> clock;
    if (plan.wrap) clock = std::make_unique<HandlerClock>(kRingNodes);
    const std::uint64_t a0 = allocs_total();
    node::Cluster c(std::move(g), maybe_wrap(clock.get(), [](NodeId u) {
                        return std::make_unique<elect::ChangRobertsProtocol>(u);
                    }),
                    cfg);
    const auto t2 = cpu_now();
    r.construct_allocs = allocs_total() - a0;
    r.generate_s = t1 - t0;
    r.construct_s = t2 - t1;

    c.start_all(0);
    const Tick completion = timed_run(c, r);  // also finishes the spill
    const cost::Metrics& m = c.metrics();
    r.sim = sim_stats(m, completion);

    const auto t5 = cpu_now();
    std::vector<elect::Role> roles(kRingNodes);
    NodeId leader = kNoNode;
    for (NodeId u = 0; u < kRingNodes; ++u) {
        roles[u] = protocol_as<elect::ChangRobertsProtocol>(c.protocol(u)).role();
        if (roles[u] == elect::Role::kLeader) leader = u;
    }
    add_error(r, check_one_leader(roles));
    add_error(r, check_ring_election(leader, kRingNodes, m.net().injections));
    if (plan.sim_trace) {
        add_error(r, check_resident(c.trace()->resident_bytes(), kTraceBudget));
        if (m.trace_stats().dropped != 0) add_error(r, "trace dropped records");
    }
    r.check_s = cpu_now() - t5;

    if (clock) {
        r.handlers = clock->total();
        r.shard_handler_s = {static_cast<double>(r.handlers.ns) * 1e-9};
        check_handler_calls(r);
    }
    if (plan.sim_trace) {
        r.spill_records = m.trace_stats().spilled_records;
        r.spill_bytes = m.trace_stats().spilled_bytes;
        r.pending = spill_pending(m, 2 * m.net().injections);
    }
    return r;
}

const Workload kWorkloads[] = {
    {"maintenance", false, true, maintenance_round, maintenance_reference},
    {"election", false, false, election_round, nullptr},
    {"calls", false, false, calls_round, nullptr},
    {"trace_queries", true, false, trace_round, nullptr},
};

/// One set of the four operator queries over the spill in `dir`.
void query_set(const Options& o, const std::string& dir, unsigned set, Round& r) {
    const PendingQueries& p = r.pending;
    const std::string& ft = o.fastnet_trace;
    const QueryResult check = run_query(o.spawn, {ft, dir, "--check"}, dir + "/q");
    if (record_query(r, set, "check", check)) {
        std::uint64_t merged = 0, recorded = 0;
        if (!parse_check_output(check.out, merged, recorded))
            add_error(r, "unreadable --check output: " + check.out);
        else
            add_error(r, check_spill_records(merged, recorded, p.expected_records));
    }

    const QueryResult summary = run_query(o.spawn, {ft, dir, "--summary"}, dir + "/q");
    if (record_query(r, set, "summary", summary))
        add_error(r, check_kind_counts(summary.out, p.sends, p.deliveries));

    const QueryResult cp = run_query(o.spawn, {ft, dir, "--critical-path"}, dir + "/q");
    if (!record_query(r, set, "critical_path", cp)) return;
    std::uint64_t root = 0;
    const std::string cp_error = check_critical_path(cp.out, root);
    add_error(r, cp_error);
    if (!cp_error.empty()) return;

    // The records of the lineage the critical path starts from; the first
    // --chain over a fresh directory builds the lineage sidecar. Not the
    // path's terminal: on the ring its ancestry is ~2n lineages, and the
    // spill --chain scan is quadratic in that (see CHANGES.md).
    const QueryResult chain =
        run_query(o.spawn, {ft, dir, "--chain", std::to_string(root)}, dir + "/q");
    if (record_query(r, set, "chain", chain) &&
        chain.out.rfind("ancestry: " + std::to_string(root), 0) != 0)
        add_error(r, "--chain printed no ancestry for lineage " + std::to_string(root));
}

}  // namespace

void run_queries(const Options& o, const std::string& dir, Round& r) {
    namespace fs = std::filesystem;
    std::vector<fs::path> recording;
    for (const fs::directory_entry& e : fs::directory_iterator(dir)) recording.push_back(e.path());
    double spent = 0;
    for (unsigned set = 0; set == 0 || spent < kQuerySeconds; ++set) {
        const std::string copy = dir + ".copy";
        if (set > 0) {
            fs::create_directories(copy);
            for (const fs::path& f : recording) fs::copy_file(f, copy / f.filename());
        }
        const std::size_t first = r.queries.size();
        query_set(o, set == 0 ? dir : copy, set, r);
        for (std::size_t i = first; i < r.queries.size(); ++i) spent += r.queries[i].cpu_s;
        std::error_code ec;
        fs::remove_all(copy, ec);
    }
}

const Workload* find_workload(const std::string& name) {
    for (const Workload& w : kWorkloads)
        if (name == w.name) return &w;
    return nullptr;
}

}  // namespace perfbench
