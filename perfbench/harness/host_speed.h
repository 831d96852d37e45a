// The host-speed reference: a fixed piece of harness-local work whose
// run time tracks how fast the shared host is running right now.
//
// On a shared host the same part of a workload runs up to 2x slower
// while other tenants load the machine, in spells of seconds. Neither
// CPU time (no steal is involved) nor longer runs remove that. The
// reference kernel is timed right before and right after each part and
// slows with the program, so the harness reports host times scaled to
// the reference speed: measured time x (kReferenceKernelS / kernel
// time). The kernel uses no simulator code, so a change under src/
// moves the program's time and never the kernel's.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

/// Defines the reference speed: the host speed at which one
/// reference_kernel_s() call takes exactly this long. The 4-vCPU Xeon
/// the README's figures come from runs it in 0.7-1.1 ms.
inline constexpr double kReferenceKernelS = 1.0e-3;

/// Runs the reference kernel once and returns its host seconds. The
/// kernel formats, parses, searches and sorts small JSON-like strings
/// (libc formatting and parsing, short memcmp-based sorts, branchy
/// scanning), which is the kind of code most of the simulator's host
/// time goes to. It allocates nothing.
double reference_kernel_s() noexcept;

/// Times the reference kernel on several cores at once: the speed of
/// the cores a multi-threaded run spreads over, rather than of the
/// calling thread's core alone (on a shared host one core can be in a
/// slow spell while the others are not). Its threads live as long as
/// the pool and block between measurements, so measuring starts and
/// ends no threads around the measured work.
class KernelPool {
 public:
  explicit KernelPool(unsigned threads);
  ~KernelPool();
  KernelPool(const KernelPool&) = delete;
  KernelPool& operator=(const KernelPool&) = delete;

  /// Runs the kernel once on every pool thread at once and returns the
  /// mean of their host seconds.
  double run();

 private:
  void loop(unsigned index);

  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t generation_ = 0;  // guarded by mu_
  unsigned done_ = 0;             // guarded by mu_
  bool stop_ = false;             // guarded by mu_
  std::vector<double> seconds_;   // one slot per thread
  std::vector<std::thread> threads_;
};

}  // namespace perfbench
