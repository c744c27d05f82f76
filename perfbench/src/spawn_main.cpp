// perfbench_spawn RESULT OUT PROGRAM [ARGS...]
//
// Runs PROGRAM with its standard output in OUT, waits for it, and writes
// "<exit status> <CPU seconds> <peak RSS KiB>" to RESULT, CPU seconds being
// the child's user plus system time. The child is forked from this small
// process on purpose: Linux folds the peak RSS of the address space an exec
// replaces into the child's ru_maxrss, so a query spawned straight from the
// multi-GiB workload process would report the workload's peak instead of
// its own. While the child runs, it is moved round-robin over the CPUs
// (cpu_rotation.hpp says why).
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>

#include "cpu_rotation.hpp"

int main(int argc, char** argv) {
    if (argc < 4) {
        std::fprintf(stderr, "usage: %s RESULT OUT PROGRAM [ARGS...]\n", argv[0]);
        return 2;
    }
    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("fork");
        return 1;
    }
    if (pid == 0) {
        const int fd = open(argv[2], O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd < 0 || dup2(fd, STDOUT_FILENO) < 0) _exit(126);
        close(fd);
        execv(argv[3], argv + 3);
        _exit(127);
    }
    {
        // Wait for the exit without reaping, so the rotation never touches
        // a pid that could already belong to another process.
        perfbench::CpuRotation rotate(pid, false);
        siginfo_t info{};
        if (waitid(P_PID, static_cast<id_t>(pid), &info, WEXITED | WNOWAIT) != 0) {
            std::perror("waitid");
            return 1;
        }
    }
    int status = 0;
    rusage ru{};
    if (wait4(pid, &status, 0, &ru) != pid) {
        std::perror("wait4");
        return 1;
    }
    const auto seconds = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
    };
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
    FILE* f = std::fopen(argv[1], "w");
    if (f == nullptr) {
        std::perror("fopen");
        return 1;
    }
    std::fprintf(f, "%d %.6f %ld\n", code, seconds(ru.ru_utime) + seconds(ru.ru_stime),
                 ru.ru_maxrss);
    return std::fclose(f) == 0 ? 0 : 1;
}
