// Moves one single-threaded task round-robin over the CPUs this process may
// use, so a run samples the speed of every core instead of the one the
// scheduler happened to park it on. On a shared host, co-tenant load makes
// the cores of one machine differ by up to ~40% in memory-bound work, and a
// core keeps its speed for minutes: an unrotated single-threaded run
// measures mostly which core it got. Header-only, because perfbench_spawn
// uses it too and links nothing else.
#pragma once

#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

class CpuRotation {
public:
    /// Rotates thread or process `tid` (0: the calling thread) over the
    /// CPUs the calling thread may use, one step per kPeriod, until
    /// destroyed. `restore` puts the target's original CPU set back then;
    /// pass false for a process that will have exited by that time.
    explicit CpuRotation(pid_t tid, bool restore = true)
        : tid_(tid != 0 ? tid : static_cast<pid_t>(syscall(SYS_gettid))), restore_(restore) {
        CPU_ZERO(&original_);
        if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
        if (cpus_.size() > 1) thread_ = std::thread([this] { loop(); });
    }

    ~CpuRotation() {
        if (!thread_.joinable()) return;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        wake_.notify_one();
        thread_.join();
        if (restore_) sched_setaffinity(tid_, sizeof original_, &original_);
    }

    CpuRotation(const CpuRotation&) = delete;
    CpuRotation& operator=(const CpuRotation&) = delete;

private:
    static constexpr std::chrono::milliseconds kPeriod{20};

    void loop() {
        std::unique_lock<std::mutex> lock(mutex_);
        for (std::size_t i = 0; !wake_.wait_for(lock, kPeriod, [this] { return stop_; }); ++i) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpus_[i % cpus_.size()], &one);
            // Fails harmlessly if the target has just exited.
            sched_setaffinity(tid_, sizeof one, &one);
        }
    }

    pid_t tid_;
    bool restore_;
    cpu_set_t original_;
    std::vector<int> cpus_;
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stop_ = false;
    std::thread thread_;
};

}  // namespace perfbench
