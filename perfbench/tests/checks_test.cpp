// Tests of the benchmark's own output checks: each check passes on a
// correct result and fails on the same result with one defect planted.
//
//   cmake --build .bench_build --target perfbench_checks_test
//   ctest --test-dir .bench_build
#include <cstdio>
#include <string>

#include "../src/checks.hpp"

namespace {

using namespace perfbench;
using fastnet::elect::Role;

int g_failures = 0;

void expect_pass(const std::string& result, const char* what) {
    if (!result.empty()) {
        std::printf("FAIL %s: check rejected a correct result: %s\n", what, result.c_str());
        ++g_failures;
    }
}

void expect_fail(const std::string& result, const char* what) {
    if (result.empty()) {
        std::printf("FAIL %s: check accepted a corrupted result\n", what);
        ++g_failures;
    }
}

void view_missing_one_edge() {
    const EdgeList truth{{0, 1}, {0, 2}, {1, 2}, {2, 3}};
    expect_pass(check_view(0, {{2, 3}, {0, 1}, {1, 2}, {0, 2}}, truth), "view, unsorted");
    expect_fail(check_view(0, {{0, 1}, {0, 2}, {2, 3}}, truth), "view missing one edge");
    expect_fail(check_view(0, {{0, 1}, {0, 2}, {1, 3}, {2, 3}}, truth), "view with a wrong edge");
}

void broadcast_bound() {
    expect_pass(check_broadcast_calls(4 * 8 * 7, 4, 8), "Theorem 2 at the bound");
    expect_fail(check_broadcast_calls(4 * 8 * 7 + 1, 4, 8), "Theorem 2 one call over");
}

void same_sim() {
    const SimStats a{100, 40, 50, 77};
    SimStats b = a;
    expect_pass(check_same_sim(a, b, "copy"), "same simulated statistics");
    b.hops += 1;
    expect_fail(check_same_sim(a, b, "hop"), "one extra hop");
    b = a;
    b.completion += 1;
    expect_fail(check_same_sim(a, b, "tick"), "later completion");
}

void leaked_capacity_unit() {
    std::vector<std::vector<std::uint32_t>> free(3, std::vector<std::uint32_t>(5, 4));
    expect_pass(check_capacity(free, 4), "full capacity");
    free[2][3] = 3;
    expect_fail(check_capacity(free, 4), "one leaked capacity unit");
}

void call_outcomes() {
    fastnet::cost::CallStats s;
    s.offered = 100;
    s.shed = 10;
    s.blocked = 20;
    s.completed = 69;
    s.failed = 1;
    expect_pass(check_call_outcomes(s), "every call ended once");
    s.completed = 68;
    expect_fail(check_call_outcomes(s), "one call without an outcome");
    s.completed = 70;
    expect_fail(check_call_outcomes(s), "one call with two outcomes");
}

void p99_envelope() {
    fastnet::paris::CallAgentOptions o;
    o.setup_timeout = 200;
    o.max_retries = 3;
    o.retry_backoff = 16;
    o.retry_jitter = 4;
    const std::uint64_t env = retry_envelope(o);
    if (env != 2 * (4 * 200 + 7 * 16 + 3 * 4)) {
        std::printf("FAIL retry envelope %llu\n", static_cast<unsigned long long>(env));
        ++g_failures;
    }
    expect_pass(check_p99_setup(env, env), "p99 at the envelope");
    expect_fail(check_p99_setup(env + 1, env), "p99 past the envelope");
}

void second_leader() {
    std::vector<Role> roles(6, Role::kLeaderElected);
    roles[4] = Role::kLeader;
    expect_pass(check_one_leader(roles), "one leader");
    roles[1] = Role::kLeader;
    expect_fail(check_one_leader(roles), "a second leader");
    roles[1] = Role::kUndecided;
    expect_fail(check_one_leader(roles), "an undecided node");
}

void election_bounds() {
    expect_pass(check_election_messages(6 * 100, 99, 100), "Theorem 5 at the bound");
    expect_fail(check_election_messages(6 * 100 + 1, 99, 100), "Theorem 5 one over");
    expect_fail(check_election_messages(10, 100, 100), "announcement one over");
    expect_fail(check_election_messages(10, 98, 100), "announcement one short");
    expect_pass(check_election_total(7 * 100 - 1, 100), "Theorem 5 + announcement at the bound");
    expect_fail(check_election_total(7 * 100, 100), "Theorem 5 + announcement one over");
    expect_pass(check_lemma6({100, 50, 25, 12}, 100), "Lemma 6 at the bound");
    expect_fail(check_lemma6({100, 50, 26}, 100), "Lemma 6 one over in phase 2");
}

void ring_closed_form() {
    expect_pass(check_ring_election(9, 10, 29), "ring: n-1 wins with 3n-1 messages");
    expect_fail(check_ring_election(8, 10, 29), "ring: wrong leader");
    expect_fail(check_ring_election(9, 10, 30), "ring: one extra message");
}

void spill_short_by_one() {
    expect_pass(check_spill_records(58, 58, 58), "spill complete");
    expect_fail(check_spill_records(57, 58, 58), "spill short by one record");
    expect_fail(check_spill_records(58, 58, 60), "spill disagrees with the message count");
    expect_pass(check_resident(4 << 20, 4 << 20), "resident at the budget");
    expect_fail(check_resident((4 << 20) + 1, 4 << 20), "resident over the budget");

    std::uint64_t merged = 0, recorded = 0;
    const bool ok = parse_check_output(
        "dir: valid spill data (1 file(s), 5999998 record(s), 5999998 recorded)\n", merged,
        recorded);
    if (!ok || merged != 5999998 || recorded != 5999998) {
        std::printf("FAIL parse_check_output\n");
        ++g_failures;
    }
}

void kind_counts() {
    const std::string summary =
        "spill d: 1 file(s), 6 records (6 recorded, 0 dropped, 6 spilled) t=[0, 9]\n"
        "  send: 3\n"
        "  deliver: 3\n";
    expect_pass(check_kind_counts(summary, 3, 3), "summary counts");
    expect_fail(check_kind_counts(summary, 4, 3), "summary short one send");
    expect_fail(check_kind_counts("spill d: 0 records\n", 0, 0), "summary without kinds");
}

void critical_path_sums() {
    const std::string good =
        "critical path: latency=30 root=1 span=[0,30] depth=3 terminal=17@4 deliveries=3\n"
        "    queueing=5 transit=20 handler=5 timer_wait=0 retry_backoff=0\n"
        "slowest paths:\n"
        "  1. latency=30 root=1 span=[0,30] depth=3 terminal=17@4\n"
        "    queueing=5 transit=20 handler=5 timer_wait=0 retry_backoff=0\n"
        "records=10 deliveries=3 timer_fires=0 roots=1\n";
    std::uint64_t root = 0;
    expect_pass(check_critical_path(good, root), "critical path sums");
    if (root != 1) {
        std::printf("FAIL critical path root lineage %llu\n",
                    static_cast<unsigned long long>(root));
        ++g_failures;
    }
    std::string bad = good;
    bad.replace(bad.rfind("transit=20"), 10, "transit=19");
    expect_fail(check_critical_path(bad, root),
                "a path whose segments do not sum to its total");
    expect_fail(check_critical_path("critical path: no deliveries in trace\n", root),
                "critical path without a witness");
}

}  // namespace

int main() {
    view_missing_one_edge();
    broadcast_bound();
    same_sim();
    leaked_capacity_unit();
    call_outcomes();
    p99_envelope();
    second_leader();
    election_bounds();
    ring_closed_form();
    spill_short_by_one();
    kind_counts();
    critical_path_sums();
    if (g_failures != 0) {
        std::printf("%d check test(s) failed\n", g_failures);
        return 1;
    }
    std::printf("all check tests passed\n");
    return 0;
}
