#include "harness/host_speed.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

namespace perfbench {
namespace {

volatile std::uint64_t g_sink;  // keeps the kernel's result observable

}  // namespace

double reference_kernel_s() noexcept {
  constexpr int kRounds = 100;
  constexpr int kFields = 40;
  char doc[kFields * 32];
  std::array<std::string_view, kFields> keys;
  std::uint64_t x = 7, h = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < kRounds; ++r) {
    // Format one flat object of kFields numeric members...
    std::size_t len = 0;
    doc[len++] = '{';
    for (int i = 0; i < kFields; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      len += static_cast<std::size_t>(
          std::snprintf(doc + len, sizeof(doc) - len, "\"k%d\":%llu,", i,
                        static_cast<unsigned long long>(x >> 20)));
    }
    doc[len - 1] = '}';
    doc[len] = '\0';
    // ...parse it back: every key as a view, every value summed...
    std::size_t n = 0;
    for (const char* p = std::strchr(doc, '"'); p != nullptr;
         p = std::strchr(p, '"')) {
      const char* end = std::strchr(p + 1, '"');
      keys[n++] =
          std::string_view(p + 1, static_cast<std::size_t>(end - p - 1));
      char* after = nullptr;
      h += std::strtoull(end + 2, &after, 10);
      p = after;
    }
    // ...and sort the keys.
    std::sort(keys.begin(), keys.begin() + static_cast<std::ptrdiff_t>(n));
    h += n + keys[0].size();
  }
  g_sink = h;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

KernelPool::KernelPool(unsigned threads) : seconds_(threads, 0.0) {
  for (unsigned i = 0; i < threads; ++i) {
    threads_.emplace_back([this, i] { loop(i); });
  }
}

KernelPool::~KernelPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

double KernelPool::run() {
  std::unique_lock<std::mutex> lock(mu_);
  done_ = 0;
  ++generation_;
  cv_.notify_all();
  cv_.wait(lock, [this] { return done_ == threads_.size(); });
  double sum = 0.0;
  for (double s : seconds_) sum += s;
  return sum / static_cast<double>(seconds_.size());
}

void KernelPool::loop(unsigned index) {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    lock.unlock();
    const double s = reference_kernel_s();
    lock.lock();
    seconds_[index] = s;
    if (++done_ == threads_.size()) cv_.notify_all();
  }
}

}  // namespace perfbench
