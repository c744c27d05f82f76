#include "queries.hpp"

#include <spawn.h>
#include <sys/wait.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/expect.hpp"

extern char** environ;

namespace perfbench {

namespace {

std::string slurp(const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

}  // namespace

QueryResult run_query(const std::string& spawn_path, const std::vector<std::string>& argv,
                      const std::string& scratch) {
    const std::string result_path = scratch + ".result";
    const std::string out_path = scratch + ".out";
    std::vector<std::string> args{spawn_path, result_path, out_path};
    args.insert(args.end(), argv.begin(), argv.end());
    std::vector<char*> cargs;
    for (std::string& a : args) cargs.push_back(a.data());
    cargs.push_back(nullptr);

    pid_t pid = 0;
    const int rc = posix_spawn(&pid, spawn_path.c_str(), nullptr, nullptr, cargs.data(),
                               environ);
    FASTNET_ENSURES_MSG(rc == 0, "cannot spawn perfbench_spawn");
    int status = 0;
    FASTNET_ENSURES_MSG(waitpid(pid, &status, 0) == pid, "waitpid failed");
    FASTNET_ENSURES_MSG(WIFEXITED(status) && WEXITSTATUS(status) == 0,
                        "perfbench_spawn failed");

    QueryResult r;
    long rss_kib = 0;
    std::istringstream report(slurp(result_path));
    report >> r.status >> r.cpu_s >> rss_kib;
    FASTNET_ENSURES_MSG(static_cast<bool>(report), "unreadable perfbench_spawn report");
    r.peak_rss_mib = static_cast<double>(rss_kib) / 1024.0;
    r.out = slurp(out_path);
    std::error_code ec;
    std::filesystem::remove(result_path, ec);
    std::filesystem::remove(out_path, ec);
    return r;
}

}  // namespace perfbench
