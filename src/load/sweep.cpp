#include "load/sweep.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/buffer_pool.h"
#include "sim/shard_pool.h"

namespace shield5g::load {

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             // det-audited(steady_clock feeds sweep wall-time reporting only; digests never include timestamps)
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SweepResult run_case(const SweepCase& c) {
  slice::Slice slice(c.slice);
  slice.create();
  return run_load(c.label, slice, c.load);
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fnv_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * kFnvPrime;
}

void fnv_u64(std::uint64_t& h, std::uint64_t v) { fnv_bytes(h, &v, sizeof(v)); }

void fnv_samples(std::uint64_t& h, const Samples& s) {
  for (const double v : s.values()) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    fnv_u64(h, bits);
  }
}

// The deterministic payload of one case, fed to both the digest and the
// CI diff lines. Doubles go through their bit patterns — "bit-identical"
// means exactly that, not approximately-equal-after-printf.
std::uint64_t case_digest(const SweepResult& r) {
  std::uint64_t h = kFnvOffset;
  fnv_bytes(h, r.label.data(), r.label.size());
  fnv_u64(h, r.report.trace_hash);
  fnv_u64(h, r.report.completed);
  fnv_u64(h, r.report.registered);
  fnv_u64(h, r.report.sessions_up);
  fnv_u64(h, r.report.failed);
  fnv_u64(h, r.report.failed_shed);
  fnv_u64(h, r.report.failed_error);
  fnv_u64(h, r.report.makespan);
  fnv_samples(h, r.report.setup_ms);
  fnv_samples(h, r.report.arrival_ms);
  fnv_u64(h, r.shed);
  for (const QueueSnapshot& q : r.queues) {
    fnv_bytes(h, q.server.data(), q.server.size());
    fnv_u64(h, q.workers);
    fnv_u64(h, q.admitted);
    fnv_u64(h, q.queued);
    fnv_u64(h, q.rejected);
    fnv_u64(h, q.total_wait);
  }
  return h;
}

}  // namespace

SweepResult run_load(std::string label, slice::Slice& slice,
                     const LoadConfig& load,
                     const std::vector<Arrival>* arrivals) {
  SweepResult out;
  out.label = std::move(label);

  const auto stage_before = hot_stage::thread_snapshot();
  const double t0 = now_ms();
  LoadGenerator generator;
  out.report = arrivals == nullptr ? generator.run(slice, load)
                                   : generator.run(slice, load, *arrivals);
  const double t1 = now_ms();
  const auto stage_after = hot_stage::thread_snapshot();

  out.run_wall_ms = t1 - t0;
  for (int i = 0; i < kHotStageCount; ++i) {
    out.stage_ns[i] = stage_after[i] - stage_before[i];
  }
  out.queues = queue_snapshots(slice);
  for (const QueueSnapshot& q : out.queues) out.shed += q.rejected;
  out.fastpath_hits = slice.bus().fastpath_hits();
  // Fold this worker's pool stats into the wire.pool.* counters. Global
  // counters never feed case_digest, so this is digest-neutral.
  BufferPool::publish_thread_stats();
  return out;
}

std::vector<SweepResult> run_sweep(const std::vector<SweepCase>& cases,
                                   unsigned workers) {
  sim::ShardPool pool(workers);
  return pool.map(cases.size(),
                  [&cases](std::size_t i) { return run_case(cases[i]); });
}

std::uint64_t sweep_digest(const std::vector<SweepResult>& results) {
  std::uint64_t h = kFnvOffset;
  for (const SweepResult& r : results) fnv_u64(h, case_digest(r));
  return h;
}

std::vector<std::string> sweep_digest_lines(
    const std::vector<SweepResult>& results) {
  std::vector<std::string> lines;
  lines.reserve(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SweepResult& r = results[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "case=%zu label=%s digest=%016" PRIx64 " trace=%016" PRIx64
                  " registered=%u failed=%u failed_shed=%u failed_error=%u"
                  " makespan=%" PRIu64 " shed=%" PRIu64,
                  i, r.label.c_str(), case_digest(r), r.report.trace_hash,
                  r.report.registered, r.report.failed, r.report.failed_shed,
                  r.report.failed_error, r.report.makespan, r.shed);
    lines.emplace_back(buf);
  }
  return lines;
}

}  // namespace shield5g::load
