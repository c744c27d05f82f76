// Runs fastnet_trace queries as separate processes, the way an operator
// would, and measures each one's CPU time and peak RSS.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

struct QueryResult {
    int status = -1;
    double cpu_s = 0;  ///< User plus system time of the query process.
    double peak_rss_mib = 0;
    std::string out;  ///< The query's standard output.
};

/// Runs `argv` (argv[0] is the program path) through the perfbench_spawn
/// helper at `spawn_path`. `scratch` is a path prefix for the helper's
/// output files, which are removed afterwards. A failure to spawn or to
/// read the helper's report aborts the benchmark.
QueryResult run_query(const std::string& spawn_path, const std::vector<std::string>& argv,
                      const std::string& scratch);

}  // namespace perfbench
