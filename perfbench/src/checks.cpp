#include "checks.hpp"

#include <algorithm>
#include <sstream>

#include "sim/trace.hpp"

namespace perfbench {

namespace {

std::string str(std::uint64_t v) { return std::to_string(v); }

/// The unsigned value after `key` in `line`, e.g. key "latency=".
bool value_after(const std::string& line, const std::string& key, std::uint64_t& out) {
    const std::size_t at = line.find(key);
    if (at == std::string::npos) return false;
    std::size_t pos = at + key.size();
    if (pos >= line.size() || line[pos] < '0' || line[pos] > '9') return false;
    out = 0;
    for (; pos < line.size() && line[pos] >= '0' && line[pos] <= '9'; ++pos)
        out = out * 10 + static_cast<std::uint64_t>(line[pos] - '0');
    return true;
}

std::vector<std::string> lines_of(const std::string& text) {
    std::vector<std::string> out;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) out.push_back(line);
    return out;
}

}  // namespace

std::string check_same_sim(const SimStats& got, const SimStats& want, const std::string& what) {
    if (got == want) return {};
    return what + ": hops/system calls/invocations/completion " + str(got.hops) + "/" +
           str(got.system_calls) + "/" + str(got.invocations) + "/" +
           str(static_cast<std::uint64_t>(got.completion)) + " != " + str(want.hops) + "/" +
           str(want.system_calls) + "/" + str(want.invocations) + "/" +
           str(static_cast<std::uint64_t>(want.completion));
}

std::string check_view(fastnet::NodeId u, EdgeList view, const EdgeList& truth) {
    if (!std::is_sorted(view.begin(), view.end())) std::sort(view.begin(), view.end());
    if (view == truth) return {};
    return "Theorem 1: node " + str(u) + " sees " + str(view.size()) +
           " active edges, the network has " + str(truth.size()) +
           (view.size() == truth.size() ? " (contents differ)" : "");
}

std::string check_broadcast_calls(std::uint64_t message_calls, std::uint64_t rounds,
                                  std::uint64_t n) {
    const std::uint64_t bound = rounds * n * (n - 1);
    if (message_calls <= bound) return {};
    return "Theorem 2: " + str(message_calls) + " message system calls > rounds*n*(n-1) = " +
           str(bound);
}

std::string check_one_leader(const std::vector<fastnet::elect::Role>& roles) {
    std::uint64_t leaders = 0, undecided = 0;
    for (const fastnet::elect::Role r : roles) {
        if (r == fastnet::elect::Role::kLeader) ++leaders;
        if (r == fastnet::elect::Role::kUndecided) ++undecided;
    }
    if (leaders != 1) return "election: " + str(leaders) + " leaders, expected exactly one";
    if (undecided != 0) return "election: " + str(undecided) + " nodes undecided";
    return {};
}

std::string check_election_messages(std::uint64_t election_messages,
                                    std::uint64_t announce_messages, std::uint64_t n) {
    if (election_messages > fastnet::elect::theorem5_call_bound(n))
        return "Theorem 5: " + str(election_messages) + " election messages > 6n = " +
               str(6 * n);
    if (announce_messages > fastnet::elect::announce_call_bound(n))
        return "announcement: " + str(announce_messages) + " messages > n-1 = " + str(n - 1);
    if (announce_messages < fastnet::elect::announce_call_bound(n))
        return "announcement: " + str(announce_messages) +
               " messages, but each of the n-1 = " + str(n - 1) +
               " other nodes learns the leader only from one";
    return {};
}

std::string check_election_total(std::uint64_t messages, std::uint64_t n) {
    const std::uint64_t bound =
        fastnet::elect::theorem5_call_bound(n) + fastnet::elect::announce_call_bound(n);
    if (messages > bound)
        return "Theorem 5 + announcement: " + str(messages) + " messages > 7n-1 = " + str(bound);
    return {};
}

std::string check_lemma6(const std::vector<std::uint64_t>& captures_by_phase,
                         std::uint64_t n) {
    for (std::size_t p = 0; p < captures_by_phase.size(); ++p) {
        const std::uint64_t bound =
            fastnet::elect::lemma6_capture_bound(n, static_cast<unsigned>(p));
        if (captures_by_phase[p] > bound)
            return "Lemma 6: " + str(captures_by_phase[p]) + " captures in phase " + str(p) +
                   " > n/2^p = " + str(bound);
    }
    return {};
}

std::string check_capacity(const std::vector<std::vector<std::uint32_t>>& free_capacity,
                           std::uint32_t capacity) {
    for (std::size_t u = 0; u < free_capacity.size(); ++u)
        for (std::size_t e = 0; e < free_capacity[u].size(); ++e)
            if (free_capacity[u][e] != capacity)
                return "calls: agent " + str(u) + " reports " + str(free_capacity[u][e]) +
                       " free units on edge " + str(e) + ", capacity is " + str(capacity);
    return {};
}

std::string check_call_outcomes(const fastnet::cost::CallStats& s) {
    const std::uint64_t ended = s.shed + s.blocked + s.completed + s.failed;
    if (s.offered != 0 && ended == s.offered) return {};
    return "calls: offered " + str(s.offered) + " != shed + blocked + completed + failed = " +
           str(ended);
}

std::uint64_t retry_envelope(const fastnet::paris::CallAgentOptions& o) {
    return 2 * (static_cast<std::uint64_t>(o.max_retries + 1) *
                    static_cast<std::uint64_t>(o.setup_timeout) +
                7 * static_cast<std::uint64_t>(o.retry_backoff) +
                static_cast<std::uint64_t>(o.max_retries) *
                    static_cast<std::uint64_t>(o.retry_jitter));
}

std::string check_p99_setup(std::uint64_t p99, std::uint64_t envelope) {
    if (p99 <= envelope) return {};
    return "calls: p99 setup latency " + str(p99) + " ticks > retry envelope " + str(envelope);
}

std::string check_ring_election(fastnet::NodeId leader, std::uint64_t n,
                                std::uint64_t messages) {
    if (leader != n - 1)
        return "ring: leader " + str(leader) + ", expected node n-1 = " + str(n - 1);
    if (messages != 3 * n - 1)
        return "ring: " + str(messages) + " messages, closed form 3n-1 = " + str(3 * n - 1);
    return {};
}

std::string check_spill_records(std::uint64_t merged, std::uint64_t recorded,
                                std::uint64_t expected) {
    if (merged != recorded)
        return "spill: " + str(merged) + " records merged, " + str(recorded) + " recorded";
    if (merged != expected)
        return "spill: " + str(merged) + " records, the run must have made " + str(expected);
    return {};
}

std::string check_resident(std::uint64_t resident_bytes, std::uint64_t budget_bytes) {
    if (resident_bytes <= budget_bytes) return {};
    return "trace: " + str(resident_bytes) + " resident bytes > budget " + str(budget_bytes);
}

bool parse_check_output(const std::string& out, std::uint64_t& merged,
                        std::uint64_t& recorded) {
    // "<dir>: valid spill data (F file(s), N record(s), M recorded)"
    const std::size_t files = out.find(" file(s), ");
    if (files == std::string::npos) return false;
    const std::string tail = out.substr(files + 10);
    std::istringstream in(tail);
    std::string word;
    if (!(in >> merged >> word) || word != "record(s),") return false;
    if (!(in >> recorded >> word) || word.rfind("recorded", 0) != 0) return false;
    return true;
}

std::string check_kind_counts(const std::string& summary, std::uint64_t sends,
                              std::uint64_t deliveries) {
    const struct {
        fastnet::sim::TraceKind kind;
        std::uint64_t want;
    } kinds[] = {{fastnet::sim::TraceKind::kSend, sends},
                 {fastnet::sim::TraceKind::kDeliver, deliveries}};
    for (const auto& k : kinds) {
        const std::string key = std::string("  ") + fastnet::sim::trace_kind_name(k.kind) + ": ";
        std::uint64_t got = 0;
        bool found = false;
        for (const std::string& line : lines_of(summary))
            if (line.rfind(key, 0) == 0) found = value_after(line, key, got);
        if (!found)
            return std::string("summary: no count for kind ") +
                   fastnet::sim::trace_kind_name(k.kind);
        if (got != k.want)
            return std::string("summary: ") + fastnet::sim::trace_kind_name(k.kind) + " = " +
                   str(got) + ", the run counted " + str(k.want);
    }
    return {};
}

std::string check_critical_path(const std::string& out, std::uint64_t& root) {
    const std::vector<std::string> lines = lines_of(out);
    bool witness = false;
    std::size_t paths = 0;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        std::uint64_t latency = 0;
        if (!value_after(lines[i], "latency=", latency)) continue;
        if (i + 1 >= lines.size()) return "critical path: path line without segment totals";
        std::uint64_t sum = 0;
        std::istringstream in(lines[i + 1]);
        for (std::string tok; in >> tok;) {
            const std::size_t eq = tok.find('=');
            std::uint64_t v = 0;
            if (eq == std::string::npos || !value_after(tok, tok.substr(0, eq + 1), v))
                return "critical path: unreadable segment total '" + tok + "'";
            sum += v;
        }
        if (sum != latency)
            return "critical path: segments sum to " + str(sum) + ", path latency is " +
                   str(latency);
        ++paths;
        if (lines[i].rfind("critical path: ", 0) == 0) {
            if (!value_after(lines[i], " root=", root))
                return "critical path: witness without root lineage";
            witness = true;
        }
    }
    if (!witness) return "critical path: no witness path reported";
    return paths > 0 ? std::string{} : std::string("critical path: no paths");
}

}  // namespace perfbench
