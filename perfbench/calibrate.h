/**
 * @file
 * Host-speed calibration kernel.
 *
 * A shared host's speed drifts by tens of percent within a minute
 * (other tenants on the same cores), which would swamp any simulator
 * change smaller than that. The benchmark therefore times this fixed
 * kernel right before each simulation and set-up step it times, and
 * on campaign on a thread of its own while each pass runs (see
 * KernelSampler). The kernel is branchy, latency-bound integer work
 * over a 256 KiB table, like the simulator's own inner loops, so it
 * slows down when the simulator does. perfbench.cc scales each timed
 * interval by
 * kReferenceKernelSeconds over the kernel's time next to it; see
 * README.md ("Host-speed normalization").
 *
 * The kernel is part of the benchmark, not of the simulator: no
 * change under src/ can make it faster or slower.
 */
#ifndef PERFBENCH_CALIBRATE_H_
#define PERFBENCH_CALIBRATE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "spans.h"

namespace perfbench
{

/**
 * The kernel time simulation times are normalized to: its median on
 * the 4-vCPU Intel Xeon host the benchmark was defined on, so that
 * normalized figures read as that host's instr/s at its usual speed.
 * Changing it rescales every sim_instr_per_s; never change it between
 * two commits being compared.
 */
inline constexpr double kReferenceKernelSeconds = 2.0e-3;

/** Seconds the calibration kernel takes now (the best of three). */
inline double
calibrationSeconds()
{
    static const std::vector<std::uint32_t> table = [] {
        std::vector<std::uint32_t> t(1u << 16);
        std::uint32_t x = 12345;
        for (std::uint32_t &v : t) {
            x = x * 1664525u + 1013904223u;
            v = x;
        }
        return t;
    }();
    double best = 1e9;
    std::uint32_t h = 0;
    for (int rep = 0; rep < 3; ++rep) {
        const std::int64_t t0 = nowNs();
        std::uint32_t idx = static_cast<std::uint32_t>(rep);
        for (int i = 0; i < 200000; ++i) {
            const std::uint32_t v = table[idx];
            if (((v ^ h) & 1u) != 0)
                h = h * 31u + v;
            else
                h ^= v >> 3;
            idx = (v + h) & 0xffffu;
        }
        best = std::min(best, static_cast<double>(nowNs() - t0) * 1e-9);
    }
    // The hash decides nothing; keep it observable so the loop stays.
    static std::atomic<std::uint32_t> sink{0};
    sink.store(h, std::memory_order_relaxed);
    return best;
}

/**
 * Times the kernel on a thread of its own, once at construction and
 * then every @p period until stop(): the host's speed while a phase
 * that runs on other threads (the campaign's workers) is timed,
 * without putting kernel work on those threads. At one 6 ms kernel
 * call per 200 ms it keeps about 3% of one core busy.
 */
class KernelSampler
{
  public:
    explicit KernelSampler(std::chrono::milliseconds period)
        : thread_([this, period] {
              std::unique_lock<std::mutex> lock(mutex_);
              do {
                  lock.unlock();
                  const double s = calibrationSeconds();
                  lock.lock();
                  sum_ += s;
                  ++count_;
              } while (!wake_.wait_for(lock, period,
                                       [this] { return stopped_; }));
          })
    {
    }

    KernelSampler(const KernelSampler &) = delete;
    KernelSampler &operator=(const KernelSampler &) = delete;

    ~KernelSampler() { stop(); }

    /** Stops sampling and waits for the thread; returns the mean
     *  kernel time over the samples, in seconds. */
    double
    stop()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stopped_ = true;
        }
        wake_.notify_one();
        if (thread_.joinable())
            thread_.join();
        return count_ == 0 ? 0.0 : sum_ / count_;
    }

  private:
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stopped_ = false;
    double sum_ = 0;
    unsigned count_ = 0;
    std::thread thread_; ///< Last: starts once the members above exist.
};

} // namespace perfbench

#endif // PERFBENCH_CALIBRATE_H_
