#include "load/serving.h"

#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "common/stats.h"
#include "common/thread_annotations.h"
#include "nf/subscriber_store.h"
#include "sim/shard_pool.h"
#include "sim/spsc_mailbox.h"

namespace shield5g::load {

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             // det-audited(steady_clock feeds serving wall-time reporting only; per-slot digests never include timestamps)
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// What crosses a mailbox: one arrival, already translated to the home
/// slot's local subscriber index.
struct Routed {
  std::uint32_t local_ue = 0;
  sim::Nanos at = 0;
};

/// Golden-ratio mix so per-slot seed domains never collide with the
/// slice's own derived streams (0xc4ed credentials, 0xa221 arrivals...).
std::uint64_t slot_mix(std::uint64_t seed, std::uint32_t slot) noexcept {
  return seed ^ (0x517eBA5EULL + 0x9e3779b97f4a7c15ULL *
                                     (static_cast<std::uint64_t>(slot) + 1));
}

/// One slot's actor run: fresh slice over the slot's population, the
/// routed arrival share replayed through the explicit-arrival engine,
/// measured by the same run_load tail as a sweep case so the result
/// feeds the same digest.
SweepResult run_slot(const ServingConfig& config, std::uint32_t slot,
                     std::vector<std::uint32_t> population,
                     const std::vector<Arrival>& arrivals) {
  char label[32];
  std::snprintf(label, sizeof(label), "slot=%u", slot);

  slice::SliceConfig sc = config.slice;
  sc.subscriber_count = static_cast<std::uint32_t>(population.size());
  sc.population = std::move(population);
  sc.seed = slot_mix(config.slice.seed, slot);
  slice::Slice slice(sc);
  slice.create();

  LoadConfig lc;
  lc.ue_count = static_cast<std::uint32_t>(arrivals.size());
  lc.arrivals = config.arrivals;
  lc.with_pdu = config.with_pdu;
  lc.record_trace = config.record_trace;
  lc.seed = slot_mix(config.seed, slot);
  return run_load(label, slice, lc, &arrivals);
}

}  // namespace

std::uint32_t home_slot(std::string_view supi, std::uint32_t slots) noexcept {
  return static_cast<std::uint32_t>(nf::supi_hash(supi) % slots);
}

ServingReport run_serving(const ServingConfig& config, unsigned shards) {
  const std::uint32_t slots = config.slots == 0 ? 1 : config.slots;
  unsigned workers = sim::shard_workers(shards);
  if (workers > slots) workers = slots;

  // ---- Partition (before any thread exists, so it cannot depend on
  // the execution width): global id -> home slot by SUPI hash, local
  // index = rank within the slot's ascending-id population. ----------
  std::vector<std::vector<std::uint32_t>> populations(slots);
  std::vector<std::uint32_t> slot_of(config.ue_count);
  std::vector<std::uint32_t> local_of(config.ue_count);
  for (std::uint32_t gid = 0; gid < config.ue_count; ++gid) {
    char msin[16];
    std::snprintf(msin, sizeof(msin), "%010u", 100000000u + gid);
    const nf::Supi supi =
        nf::Supi::from_parts(config.slice.plmn, msin);
    const std::uint32_t slot = home_slot(supi.value, slots);
    slot_of[gid] = slot;
    local_of[gid] = static_cast<std::uint32_t>(populations[slot].size());
    populations[slot].push_back(gid);
  }

  // One global arrival schedule (same domain separation as the
  // open-loop engine); arrival i belongs to global id i.
  Rng arrivals_rng(config.seed ^ 0xa221ULL);
  const std::vector<sim::Nanos> schedule =
      arrival_schedule(config.arrivals, config.ue_count, arrivals_rng);

  std::vector<std::unique_ptr<sim::SpscMailbox<Routed>>> mailboxes;
  mailboxes.reserve(slots);
  for (std::uint32_t s = 0; s < slots; ++s) {
    mailboxes.push_back(std::make_unique<sim::SpscMailbox<Routed>>(
        config.mailbox_capacity == 0 ? 1 : config.mailbox_capacity));
  }

  // Per-slot results land at disjoint indices (slot ownership is a
  // partition), so the vector needs no lock; errors are the only state
  // workers share.
  std::vector<SweepResult> results(slots);
  struct ErrorBox {
    std::mutex mutex;
    std::exception_ptr first SHIELD_GUARDED_BY(mutex);
  } errors;

  const double t0 = now_ms();

  // ---- Consumers: worker w owns slots {s : s % workers == w}. Each
  // drains ALL its mailboxes while the router is still pushing (a
  // worker that served first and drained later could deadlock the
  // bounded rings), then serves its slots in ascending slot order. ----
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      std::vector<std::uint32_t> owned;
      for (std::uint32_t s = w; s < slots; s += workers) owned.push_back(s);
      std::vector<std::vector<Arrival>> share(owned.size());
      bool streaming = true;
      while (streaming) {
        bool progress = false;
        streaming = false;
        for (std::size_t i = 0; i < owned.size(); ++i) {
          auto& mb = *mailboxes[owned[i]];
          Routed r;
          while (mb.try_pop(r)) {
            share[i].push_back(Arrival{r.local_ue, r.at});
            progress = true;
          }
          if (!mb.drained()) streaming = true;
        }
        if (streaming && !progress) std::this_thread::yield();
      }
      for (std::size_t i = 0; i < owned.size(); ++i) {
        try {
          results[owned[i]] = run_slot(config, owned[i],
                                       populations[owned[i]], share[i]);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(errors.mutex);
          if (!errors.first) errors.first = std::current_exception();
        }
      }
    });
  }

  // ---- Router (caller thread): arrivals stream to their home shard in
  // global time order; a full mailbox back-pressures, never drops. ----
  std::uint64_t backpressure = 0;
  for (std::uint32_t gid = 0; gid < config.ue_count; ++gid) {
    auto& mb = *mailboxes[slot_of[gid]];
    const Routed r{local_of[gid], schedule[gid]};
    while (!mb.try_push(r)) {
      ++backpressure;
      std::this_thread::yield();
    }
  }
  for (auto& mb : mailboxes) mb->close();
  for (std::thread& t : pool) t.join();

  const double t1 = now_ms();

  std::exception_ptr error;
  {
    const std::lock_guard<std::mutex> lock(errors.mutex);
    error = errors.first;
  }
  if (error) std::rethrow_exception(error);

  counter_add("serve.routed", config.ue_count);
  counter_add("serve.mailbox.backpressure", backpressure);

  ServingReport report;
  report.shards = workers;
  report.routed = config.ue_count;
  report.backpressure = backpressure;
  report.wall_ms = t1 - t0;
  for (const SweepResult& r : results) {
    report.completed += r.report.completed;
    report.registered += r.report.registered;
    report.sessions_up += r.report.sessions_up;
    report.failed += r.report.failed;
    report.failed_shed += r.report.failed_shed;
    report.failed_error += r.report.failed_error;
    report.shed += r.shed;
    report.fastpath_hits += r.fastpath_hits;
    report.nas_badmac += r.nas_badmac;
  }
  if (report.wall_ms > 0) {
    report.regs_per_s = 1000.0 * report.registered / report.wall_ms;
  }
  // The merge: slot order, same digest machinery as run_sweep — this is
  // what serve-smoke byte-compares across shard counts.
  report.digest = sweep_digest(results);
  report.digest_lines = sweep_digest_lines(results);
  report.slots = std::move(results);
  return report;
}

}  // namespace shield5g::load
