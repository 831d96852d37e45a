// Benchmark harness: runs one named workload for a fixed host-time
// budget and prints its metrics, then one JSON result line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <out.json>]
//
// It drives only public entry points — slice::Slice construction and
// create(), load::LoadGenerator::run, load::run_serving — and reads
// read-only getters for counters, queues, servers and enclaves. Every
// workload knob lives in harness/workloads.h; README.md documents the
// metrics, the estimators and why each workload exists.
//
// A repetition runs the workload's `parts` independent deployments,
// each on its own input derived from (seed, part). Every repetition
// replays the same inputs, so virtual-time outcomes repeat bit for bit
// and are digest-checked; host time is sampled once per part.
//
// --trace 0 prints the end-to-end metrics, measured with hot-stage
// collection, allocation counting and spans all off. --trace 1
// alternates untraced and traced repetitions and prints the per-layer
// metrics from the traced ones, plus the traced-vs-untraced throughput
// gap as trace.overhead_frac. Both modes run the correctness gate.
#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/buffer_pool.h"
#include "common/hot_stage.h"
#include "common/stats.h"
#include "crypto/cpu_dispatch.h"
#include "crypto/x25519_batch.h"
#include "harness/host_speed.h"
#include "harness/probes.h"
#include "harness/workloads.h"
#include "libos/runtime.h"
#include "load/generator.h"
#include "load/serving.h"
#include "load/sweep.h"
#include "sim/spsc_mailbox.h"
#include "slice/slice.h"

using namespace shield5g;

namespace perfbench {
namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double percentile(const std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  Samples s;
  for (double x : v) s.add(x);
  return s.percentile(p);
}

double median(const std::vector<double>& v) { return percentile(v, 50.0); }

/// Peak resident set of this process image (VmHWM). getrusage's
/// ru_maxrss is not used: Linux carries it across exec, so it would
/// report the launching interpreter's peak when that is larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return -1.0;
}

// ---------------------------------------------------------------------
// Spans: one per public call the harness makes in a traced repetition,
// kept in memory and written out when the run ends.
// ---------------------------------------------------------------------

struct Span {
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  int parent;  // index into the span list, -1 for a root
  int rep;     // repetition the span belongs to
};

class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog* log, const char* name) : log_(log) {
      if (log_ != nullptr) index_ = log_->open(name);
    }
    ~Scope() {
      if (log_ != nullptr) log_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int index_ = -1;
  };

  void set_rep(int rep) { rep_ = rep; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int open(const char* name) {
    spans_.push_back(
        Span{name, now_ns(), 0, open_.empty() ? -1 : open_.back(), rep_});
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }
  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    open_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<int> open_;
  int rep_ = 0;
};

// ---------------------------------------------------------------------
// Inputs: the workload table row plus (seed, part).
// ---------------------------------------------------------------------

std::uint64_t part_seed(std::uint64_t seed, std::uint32_t part) {
  return seed * 0x100 + part;
}

slice::SliceConfig slice_config(const Workload& w, std::uint64_t ps) {
  slice::SliceConfig cfg;
  cfg.mode = w.mode;
  cfg.tls_resumption = w.fast_paths;
  cfg.eph_pool = w.fast_paths;
  cfg.keep_alive = w.fast_paths;
  cfg.subscriber_count = w.ues;
  cfg.seed = 0x51C3ULL ^ (ps * 0x9e3779b97f4a7c15ULL);
  return cfg;
}

load::ArrivalConfig arrivals(const Workload& w) {
  load::ArrivalConfig a;
  a.kind = load::ArrivalKind::kPoisson;
  a.rate_per_s = w.rate_per_s;
  return a;
}

load::LoadConfig load_config(const Workload& w, std::uint64_t ps) {
  load::LoadConfig lc;
  lc.ue_count = w.ues;
  lc.arrivals = arrivals(w);
  lc.seed = 0x10adULL + ps;
  return lc;
}

load::ServingConfig serving_config(const Workload& w, std::uint64_t ps) {
  load::ServingConfig sc;
  sc.slice = slice_config(w, ps);
  sc.ue_count = w.ues;
  sc.arrivals = arrivals(w);
  sc.seed = 0x5e47eULL + ps;
  return sc;
}

nf::Supi plane_supi(const load::ServingConfig& sc, std::uint32_t gid) {
  char msin[16];
  std::snprintf(msin, sizeof(msin), "%010u", 100000000u + gid);
  return nf::Supi::from_parts(sc.slice.plmn, msin);
}

/// The serving plane's partition: global ids grouped by home slot, by
/// the same public rule run_serving applies.
std::vector<std::vector<std::uint32_t>> slot_populations(
    const load::ServingConfig& sc) {
  std::vector<std::vector<std::uint32_t>> pops(sc.slots);
  for (std::uint32_t gid = 0; gid < sc.ue_count; ++gid) {
    pops[load::home_slot(plane_supi(sc, gid).value, sc.slots)].push_back(gid);
  }
  return pops;
}

// ---------------------------------------------------------------------
// Per-layer probes: counter and getter snapshots around each run.
// ---------------------------------------------------------------------

constexpr const char* kCounters[] = {
    "wire.pool.hit",    "wire.pool.miss",  "wire.pool.bytes",
    "tls.resume.hit",   "tls.resume.miss", "tls.resume.reject",
    "x25519.pool.hit",  "bus.fastpath.hit", "bus.fastpath.fallback",
    "scheduler.events.popped",
};
constexpr std::size_t kCounterCount = std::size(kCounters);

struct Snapshot {
  std::array<std::uint64_t, kHotStageCount> stage{};  // calling thread's
  crypto::OpCounts ops;
  std::uint64_t allocs = 0;
  std::array<std::uint64_t, kCounterCount> counters{};

  static Snapshot take() {
    BufferPool::publish_thread_stats();
    Snapshot s;
    s.stage = hot_stage::thread_snapshot();
    s.ops = op_counts_total();
    s.allocs = alloc_count();
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      s.counters[i] = counter_value(kCounters[i]);
    }
    return s;
  }
};

double counter_delta(const Snapshot& a, const Snapshot& b, const char* name) {
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    if (std::strcmp(kCounters[i], name) == 0) {
      return static_cast<double>(b.counters[i] - a.counters[i]);
    }
  }
  std::abort();
}

/// Transition counters and EPC faults summed over a slice's P-AKA
/// enclaves (all zero outside SGX mode).
struct SgxTotals {
  double eenter = 0, eexit = 0, aex = 0, faulted_pages = 0;

  static SgxTotals of(slice::Slice& s) {
    SgxTotals t;
    auto add = [&t](paka::PakaService* svc) {
      if (svc == nullptr || svc->runtime() == nullptr) return;
      const sgx::TransitionCounters& c = *svc->sgx_counters();
      t.eenter += static_cast<double>(c.eenter);
      t.eexit += static_cast<double>(c.eexit);
      t.aex += static_cast<double>(c.aex);
      t.faulted_pages += static_cast<double>(
          svc->runtime()->enclave().region().faulted_pages());
    };
    for (const auto& r : s.eudm_replicas()) add(r.get());
    add(s.eausf());
    add(s.eamf());
    return t;
  }
};

constexpr const char* kPaka[] = {"eudm", "eausf", "eamf"};

/// One deployment plus one open-loop run on one input.
struct Part {
  std::uint32_t attempted = 0;
  std::uint32_t completed = 0;
  std::uint32_t registered = 0;
  std::uint32_t failed_shed = 0;
  std::uint32_t failed_error = 0;
  std::uint64_t digest = 0;
  double setup_s = 0.0;  // host: deployment before the first arrival
  double run_s = 0.0;    // host: the run phase
  /// Host speed relative to the reference while the part ran: the
  /// reference kernel's reference time over its mean time right before
  /// and right after the part (see harness/host_speed.h).
  double host_speed = 1.0;
  /// The same over all the host's cores at once (serving plane only).
  double cores_speed = 1.0;
  std::vector<double> vsetup_ms;  // virtual arrival -> complete
  sim::Nanos makespan = 0;
};

/// Raw per-layer sums over the parts of one traced repetition; turned
/// into per-registration metrics by finish().
struct LayerSums {
  std::array<double, kHotStageCount> stage_ns{};
  double engine_ns = 0;  // the run windows the stage buckets cover
  double aes = 0, sha = 0, x25519 = 0, allocs = 0;
  std::map<std::string, double> counters;
  double registered = 0, attempted = 0;
  double queue_wait_ns = 0, vsetup_ns = 0, amf_rejected = 0;
  std::vector<double> amf_wait_p50;
  std::array<std::vector<double>, 3> paka_wait_p50;
  std::array<Samples, 3> paka_lf, paka_lt;
  bool paka_observable = true;
  SgxTotals sgx;
  double enclave_load_s = 0;
  double gnb_contexts = 0, udr_bytes = 0;
  std::vector<double> create_s, shard_skew;
  double route_ns = -1, backpressure = 0;
  double parts = 0;

  void add_probe(const Snapshot& a, const Snapshot& b) {
    aes += static_cast<double>(b.ops.aes_blocks - a.ops.aes_blocks);
    sha += static_cast<double>(b.ops.sha256_blocks - a.ops.sha256_blocks);
    x25519 += static_cast<double>(b.ops.x25519_ops - a.ops.x25519_ops);
    allocs += static_cast<double>(b.allocs - a.allocs);
    for (const char* name : kCounters) {
      counters[name] += counter_delta(a, b, name);
    }
  }

  /// One part's outcome and the queue snapshots of its servers.
  void add_part(const Part& part,
                const std::vector<load::QueueSnapshot>& queues) {
    registered += part.registered;
    attempted += part.attempted;
    for (double v : part.vsetup_ms) vsetup_ns += v * 1e6;
    parts += 1;
    for (const load::QueueSnapshot& q : queues) {
      queue_wait_ns += static_cast<double>(q.total_wait);
      if (q.server == "amf") {
        amf_rejected += static_cast<double>(q.rejected);
        amf_wait_p50.push_back(q.wait_p50_us);
      }
      for (int i = 0; i < 3; ++i) {
        if (q.server.rfind(kPaka[i], 0) == 0) {
          paka_wait_p50[i].push_back(q.wait_p50_us);
        }
      }
    }
  }

  std::map<std::string, double> finish() const {
    std::map<std::string, double> l;
    const double regs = registered;
    const auto st = [this](HotStage s) {
      return stage_ns[static_cast<int>(s)];
    };
    const double crypto_ns = st(HotStage::kCrypto);
    const double codec_ns = st(HotStage::kCodec);
    const double bus_ns = st(HotStage::kBus);
    const double sched_ns = st(HotStage::kScheduler);
    const auto c = [this](const char* name) { return counters.at(name); };
    const double events = c("scheduler.events.popped");
    l["crypto.host_ns_per_reg"] = ratio(crypto_ns, regs);
    l["crypto.x25519_ops_per_reg"] = ratio(x25519, regs);
    l["crypto.aes_blocks_per_reg"] = ratio(aes, regs);
    l["crypto.sha256_blocks_per_reg"] = ratio(sha, regs);
    l["crypto.eph_pool_hits_per_reg"] = ratio(c("x25519.pool.hit"), regs);
    l["codec.host_ns_per_reg"] = ratio(codec_ns, regs);
    l["net.wire_bytes_per_reg"] = ratio(c("wire.pool.bytes"), regs);
    l["net.wire_pool_hit_rate"] =
        ratio(c("wire.pool.hit"), c("wire.pool.hit") + c("wire.pool.miss"));
    l["net.bus_host_ns_per_reg"] = ratio(bus_ns, regs);
    l["net.tls_resume_rate"] =
        ratio(c("tls.resume.hit"), c("tls.resume.hit") +
                                       c("tls.resume.miss") +
                                       c("tls.resume.reject"));
    l["net.fastpath_hits_per_reg"] = ratio(c("bus.fastpath.hit"), regs);
    l["net.fastpath_fallbacks"] = c("bus.fastpath.fallback");
    l["net.queue_wait_share"] = ratio(queue_wait_ns, vsetup_ns);
    l["net.amf.wait_p50_us"] = median(amf_wait_p50);
    l["net.amf.shed_per_ue"] = ratio(amf_rejected, attempted);
    l["sim.host_ns_per_reg"] = ratio(sched_ns, regs);
    l["sim.events_per_reg"] = ratio(events, regs);
    l["sim.events_peak"] =
        static_cast<double>(counter_value("scheduler.events.peak"));
    l["sim.host_ns_per_event"] = ratio(sched_ns, events);
    l["sim.shard_wall_max_over_mean"] =
        shard_skew.empty() ? 1.0 : median(shard_skew);
    l["sgx.eenter_per_reg"] = ratio(sgx.eenter, regs);
    l["sgx.eexit_per_reg"] = ratio(sgx.eexit, regs);
    l["sgx.aex_per_reg"] = ratio(sgx.aex, regs);
    l["sgx.epc_faulted_pages"] = sgx.faulted_pages;
    l["libos.enclave_load_vs"] = ratio(enclave_load_s, parts);
    for (int i = 0; i < 3; ++i) {
      const std::string base = std::string("paka.") + kPaka[i];
      l[base + ".lf_p50_us"] =
          !paka_observable ? -1.0
                           : (paka_lf[i].empty() ? 0.0 : paka_lf[i].median());
      l[base + ".lt_p50_us"] =
          !paka_observable ? -1.0
                           : (paka_lt[i].empty() ? 0.0 : paka_lt[i].median());
      l[base + ".wait_p50_us"] = median(paka_wait_p50[i]);
    }
    l["common.allocs_per_reg"] = ratio(allocs, regs);
    l["ran.gnb_contexts_end"] = gnb_contexts;
    l["nf.udr_store_bytes"] = udr_bytes;
    l["load.route_ns_per_ue"] = route_ns < 0 ? 0.0 : route_ns;
    l["load.mailbox_backpressure"] = backpressure;
    l["slice.create_host_s"] = median(create_s);
    l["other.host_ns_per_reg"] =
        ratio(engine_ns - crypto_ns - codec_ns - bus_ns - sched_ns, regs);
    return l;
  }
};

// ---------------------------------------------------------------------
// Parts and repetitions.
// ---------------------------------------------------------------------

struct Rep {
  bool traced = false;
  std::vector<Part> parts;
  std::map<std::string, double> layer;  // traced repetitions only
};

std::uint64_t case_digest(const std::string& label,
                          const load::LoadReport& report,
                          std::vector<load::QueueSnapshot> queues,
                          std::uint64_t fastpath_hits) {
  std::vector<load::SweepResult> one(1);
  one[0].label = label;
  one[0].report = report;
  for (const load::QueueSnapshot& q : queues) one[0].shed += q.rejected;
  one[0].queues = std::move(queues);
  one[0].fastpath_hits = fastpath_hits;
  return load::sweep_digest(one);
}

void add_outcome(Part& part, const load::LoadReport& r) {
  part.completed += r.completed;
  part.registered += r.registered;
  part.failed_shed += r.failed_shed;
  part.failed_error += r.failed_error;
  part.makespan = std::max(part.makespan, r.makespan);
  const std::vector<double>& v = r.setup_ms.values();
  part.vsetup_ms.insert(part.vsetup_ms.end(), v.begin(), v.end());
}

/// Shed UEs that had completed at least one exchange, over UEs whose
/// first exchange went through (admitted past the NGAP edge). Read
/// from trace lines "t=<ns> ue=<i> <what>": one "*-round" line per
/// exchange, then one "done <outcome>" line.
void count_wasted(const load::LoadReport& r, double& wasted,
                  double& admitted) {
  std::map<unsigned, int> rounds;
  for (const std::string& line : r.trace) {
    unsigned ue = 0;
    char what[48] = {};
    if (std::sscanf(line.c_str(), "t=%*[0-9] ue=%u %47[^\n]", &ue, what) !=
        2) {
      continue;
    }
    const std::string_view event(what);
    if (event.ends_with("-round")) {
      ++rounds[ue];
    } else if (event.starts_with("done")) {
      const bool shed = event == "done failed-shed";
      if (!shed || rounds[ue] > 1) admitted += 1.0;
      if (shed && rounds[ue] > 1) wasted += 1.0;
    }
  }
}

double measured_speed(double kernel_before_s, double kernel_after_s) {
  return ratio(2.0 * kReferenceKernelS, kernel_before_s + kernel_after_s);
}

class Runner {
 public:
  Runner(const Workload& w, std::uint64_t seed) : w_(w), seed_(seed) {
    // The serving plane's speed is timed on every core: one kernel
    // thread per core the host offers.
    if (w_.shards > 0) {
      cores_.emplace(std::max(1u, std::thread::hardware_concurrency()));
    }
  }

  Rep run(bool traced, SpanLog* spans) {
    SpanLog::Scope rep_span(spans, "rep");
    hot_stage::set_enabled(traced);
    set_alloc_counting(traced);
    Rep rep;
    rep.traced = traced;
    LayerSums sums;
    for (std::uint32_t p = 0; p < w_.parts; ++p) {
      const std::uint64_t ps = part_seed(seed_, p);
      rep.parts.push_back(w_.shards == 0
                              ? run_slice(ps, traced ? &sums : nullptr, spans)
                              : run_plane(ps, traced ? &sums : nullptr, spans));
    }
    hot_stage::set_enabled(false);
    set_alloc_counting(false);
    if (traced) rep.layer = sums.finish();
    return rep;
  }

  struct Replay {
    std::vector<std::uint64_t> digests;  // one per part
    double wasted_frac = 0.0;
  };

  /// An untimed rerun of every part that keeps the per-UE trace lines,
  /// on one shard for the serving plane. Its digests must equal the
  /// measured runs'; the lines give the wasted fraction.
  Replay replay() const {
    Replay out;
    double wasted = 0.0, admitted = 0.0;
    for (std::uint32_t p = 0; p < w_.parts; ++p) {
      const std::uint64_t ps = part_seed(seed_, p);
      if (w_.shards == 0) {
        slice::Slice slice(slice_config(w_, ps));
        slice.create();
        load::LoadConfig lc = load_config(w_, ps);
        lc.record_trace = true;
        load::LoadGenerator generator;
        const load::LoadReport report = generator.run(slice, lc);
        out.digests.push_back(case_digest(w_.name, report,
                                          load::queue_snapshots(slice),
                                          slice.bus().fastpath_hits()));
        count_wasted(report, wasted, admitted);
      } else {
        load::ServingConfig sc = serving_config(w_, ps);
        sc.record_trace = true;
        const load::ServingReport report = load::run_serving(sc, 1);
        out.digests.push_back(report.digest);
        for (const load::SweepResult& r : report.slots) {
          count_wasted(r.report, wasted, admitted);
        }
      }
    }
    out.wasted_frac = ratio(wasted, admitted);
    return out;
  }

 private:
  Part run_slice(std::uint64_t ps, LayerSums* sums, SpanLog* spans) {
    Part part;
    part.attempted = w_.ues;
    const load::LoadConfig lc = load_config(w_, ps);

    const double kernel_before = reference_kernel_s();
    const std::uint64_t t0 = now_ns();
    std::optional<slice::Slice> slice;
    {
      SpanLog::Scope span(spans, "slice::Slice");
      slice.emplace(slice_config(w_, ps));
    }
    const std::uint64_t t1 = now_ns();
    slice::SliceCreation creation;
    {
      SpanLog::Scope span(spans, "slice::Slice::create");
      creation = slice->create();
    }
    const std::uint64_t t2 = now_ns();
    part.setup_s = static_cast<double>(t2 - t0) / 1e9;

    paka::PakaService* svcs[3] = {slice->eudm(), slice->eausf(),
                                  slice->eamf()};
    std::array<std::size_t, 3> samples_before{};
    for (int i = 0; i < 3; ++i) {
      if (svcs[i] != nullptr) {
        samples_before[i] = svcs[i]->server().lf_us().count();
      }
    }
    const SgxTotals sgx_before = SgxTotals::of(*slice);
    // Spans open outside the probe window, so their own bookkeeping is
    // never counted as the program's work.
    std::optional<SpanLog::Scope> run_span(std::in_place, spans,
                                           "load::LoadGenerator::run");
    const Snapshot before = Snapshot::take();
    const std::uint64_t t3 = now_ns();
    load::LoadGenerator generator;
    const load::LoadReport report = generator.run(*slice, lc);
    const std::uint64_t t4 = now_ns();
    const Snapshot after = Snapshot::take();
    run_span.reset();
    part.run_s = static_cast<double>(t4 - t3) / 1e9;
    part.host_speed = measured_speed(kernel_before, reference_kernel_s());
    add_outcome(part, report);

    std::vector<load::QueueSnapshot> queues;
    {
      SpanLog::Scope span(spans, "load::queue_snapshots");
      queues = load::queue_snapshots(*slice);
    }
    if (sums != nullptr) {
      LayerSums& s = *sums;
      for (int i = 0; i < kHotStageCount; ++i) {
        s.stage_ns[i] +=
            static_cast<double>(after.stage[i] - before.stage[i]);
      }
      s.engine_ns += static_cast<double>(t4 - t3);
      s.add_probe(before, after);
      s.add_part(part, queues);
      const SgxTotals sgx_after = SgxTotals::of(*slice);
      s.sgx.eenter += sgx_after.eenter - sgx_before.eenter;
      s.sgx.eexit += sgx_after.eexit - sgx_before.eexit;
      s.sgx.aex += sgx_after.aex - sgx_before.aex;
      s.sgx.faulted_pages +=
          sgx_after.faulted_pages - sgx_before.faulted_pages;
      if (w_.mode == slice::IsolationMode::kSgx) {
        s.enclave_load_s += sim::to_s(creation.eudm_load +
                                      creation.eausf_load +
                                      creation.eamf_load);
      }
      for (int i = 0; i < 3; ++i) {
        if (svcs[i] == nullptr) continue;
        net::Server& server = svcs[i]->server();
        const std::vector<double>& lf = server.lf_us().values();
        const std::vector<double>& lt = server.lt_us().values();
        for (std::size_t k = samples_before[i]; k < lf.size(); ++k) {
          s.paka_lf[i].add(lf[k]);
        }
        for (std::size_t k = samples_before[i]; k < lt.size(); ++k) {
          s.paka_lt[i].add(lt[k]);
        }
      }
      s.gnb_contexts = std::max(
          s.gnb_contexts, static_cast<double>(slice->gnb().attached_count()));
      s.udr_bytes = std::max(
          s.udr_bytes,
          static_cast<double>(slice->udr().store().bytes_reserved()));
      s.create_s.push_back(static_cast<double>(t2 - t1) / 1e9);
    }
    {
      SpanLog::Scope span(spans, "load::sweep_digest");
      part.digest = case_digest(w_.name, report, std::move(queues),
                                slice->bus().fastpath_hits());
    }
    SpanLog::Scope span(spans, "slice::Slice::~Slice");
    slice.reset();
    return part;
  }

  Part run_plane(std::uint64_t ps, LayerSums* sums, SpanLog* spans) {
    Part part;
    part.attempted = w_.ues;
    const load::ServingConfig sc = serving_config(w_, ps);

    // run_serving deploys its slots inside the call, so setup time is
    // taken by deploying the same slots (same populations and slice
    // template; the per-slot seed mix is the harness's own) on their
    // own, one after another.
    double create_s = 0.0, udr_bytes = 0.0;
    const double kernel_before = reference_kernel_s();
    const double cores_before = cores_->run();
    const std::uint64_t t0 = now_ns();
    {
      SpanLog::Scope span(spans, "slot deployments");
      std::uint64_t slot = 0;
      for (std::vector<std::uint32_t>& pop : slot_populations(sc)) {
        slice::SliceConfig cfg = sc.slice;
        cfg.subscriber_count = static_cast<std::uint32_t>(pop.size());
        cfg.population = std::move(pop);
        cfg.seed = sc.slice.seed ^ (0x9e3779b97f4a7c15ULL * ++slot);
        std::optional<slice::Slice> s;
        {
          SpanLog::Scope ctor(spans, "slice::Slice");
          s.emplace(std::move(cfg));
        }
        const std::uint64_t c0 = now_ns();
        {
          SpanLog::Scope create(spans, "slice::Slice::create");
          s->create();
        }
        create_s += static_cast<double>(now_ns() - c0) / 1e9;
        udr_bytes += static_cast<double>(s->udr().store().bytes_reserved());
        SpanLog::Scope dtor(spans, "slice::Slice::~Slice");
        s.reset();
      }
    }
    part.setup_s = seconds_since(t0);

    std::optional<SpanLog::Scope> run_span(std::in_place, spans,
                                           "load::run_serving");
    const Snapshot before = Snapshot::take();
    const std::uint64_t t1 = now_ns();
    const load::ServingReport report = load::run_serving(sc, w_.shards);
    const std::uint64_t t2 = now_ns();
    const Snapshot after = Snapshot::take();
    run_span.reset();
    part.run_s = static_cast<double>(t2 - t1) / 1e9;
    part.host_speed = measured_speed(kernel_before, reference_kernel_s());
    part.cores_speed =
        measured_speed(cores_before, cores_->run());
    for (const load::SweepResult& slot : report.slots) {
      add_outcome(part, slot.report);
    }
    part.digest = report.digest;

    if (sums != nullptr) {
      LayerSums& s = *sums;
      // Stage time from the slots' own engine windows: hot-stage
      // buckets are per thread, and each slot records its thread's
      // delta around its LoadGenerator::run.
      std::vector<double> worker_ms(report.shards, 0.0);
      std::vector<load::QueueSnapshot> queues;
      for (std::size_t i = 0; i < report.slots.size(); ++i) {
        const load::SweepResult& slot = report.slots[i];
        for (int k = 0; k < kHotStageCount; ++k) {
          s.stage_ns[k] += static_cast<double>(slot.stage_ns[k]);
        }
        s.engine_ns += slot.run_wall_ms * 1e6;
        worker_ms[i % report.shards] += slot.run_wall_ms;
        queues.insert(queues.end(), slot.queues.begin(), slot.queues.end());
      }
      // Op counts, allocations and counters cover the whole call, slot
      // deployment included.
      s.add_probe(before, after);
      s.add_part(part, queues);
      double sum = 0.0, mx = 0.0;
      for (double v : worker_ms) {
        sum += v;
        mx = std::max(mx, v);
      }
      s.shard_skew.push_back(
          ratio(mx, sum / static_cast<double>(worker_ms.size())));
      // The slots' servers and gNBs live and die inside run_serving;
      // their service-window samples and context tables have no public
      // getter, so these read -1 (not observable) on this workload.
      s.paka_observable = false;
      s.gnb_contexts = -1.0;
      s.udr_bytes = std::max(s.udr_bytes, udr_bytes);
      s.create_s.push_back(create_s);
      s.backpressure += static_cast<double>(report.backpressure);
      if (s.route_ns < 0) s.route_ns = route_ns_per_ue(sc, spans);
    }
    return part;
  }

  /// Host cost of the plane's routing step per UE, timed on its own:
  /// SUPI and home slot per arrival, pushed through the same SPSC
  /// mailbox type (single thread, drained whenever a mailbox fills).
  static double route_ns_per_ue(const load::ServingConfig& sc,
                                SpanLog* spans) {
    SpanLog::Scope span(spans, "route replay");
    std::vector<std::unique_ptr<sim::SpscMailbox<load::Arrival>>> boxes;
    for (std::uint32_t s = 0; s < sc.slots; ++s) {
      boxes.push_back(std::make_unique<sim::SpscMailbox<load::Arrival>>(
          sc.mailbox_capacity));
    }
    std::uint64_t popped = 0;
    const std::uint64_t t0 = now_ns();
    for (std::uint32_t gid = 0; gid < sc.ue_count; ++gid) {
      const std::uint32_t slot =
          load::home_slot(plane_supi(sc, gid).value, sc.slots);
      auto& box = *boxes[slot];
      const load::Arrival a{gid, static_cast<sim::Nanos>(gid)};
      while (!box.try_push(a)) {
        load::Arrival out;
        while (box.try_pop(out)) ++popped;
      }
    }
    for (auto& box : boxes) {
      load::Arrival out;
      while (box->try_pop(out)) ++popped;
    }
    const double ns = static_cast<double>(now_ns() - t0);
    if (popped != sc.ue_count) std::abort();
    return ratio(ns, sc.ue_count);
  }

  const Workload& w_;
  std::uint64_t seed_;
  std::optional<KernelPool> cores_;
};

// ---------------------------------------------------------------------
// Metric table and output.
// ---------------------------------------------------------------------

enum class Kind { kHost, kExact };

struct MetricDef {
  const char* name;
  const char* unit;
  Kind kind;
};

constexpr MetricDef kLayerMetrics[] = {
    {"crypto.host_ns_per_reg", "ns", Kind::kHost},
    {"crypto.x25519_ops_per_reg", "count", Kind::kExact},
    {"crypto.aes_blocks_per_reg", "count", Kind::kExact},
    {"crypto.sha256_blocks_per_reg", "count", Kind::kExact},
    {"crypto.eph_pool_hits_per_reg", "count", Kind::kExact},
    {"codec.host_ns_per_reg", "ns", Kind::kHost},
    {"net.wire_bytes_per_reg", "B", Kind::kExact},
    {"net.wire_pool_hit_rate", "ratio", Kind::kExact},
    {"net.bus_host_ns_per_reg", "ns", Kind::kHost},
    {"net.tls_resume_rate", "ratio", Kind::kExact},
    {"net.fastpath_hits_per_reg", "count", Kind::kExact},
    {"net.fastpath_fallbacks", "count", Kind::kExact},
    {"net.queue_wait_share", "ratio", Kind::kExact},
    {"net.amf.wait_p50_us", "us", Kind::kExact},
    {"net.amf.shed_per_ue", "ratio", Kind::kExact},
    {"sim.host_ns_per_reg", "ns", Kind::kHost},
    {"sim.events_per_reg", "count", Kind::kExact},
    {"sim.events_peak", "count", Kind::kExact},
    {"sim.host_ns_per_event", "ns", Kind::kHost},
    {"sim.shard_wall_max_over_mean", "ratio", Kind::kHost},
    {"sgx.eenter_per_reg", "count", Kind::kExact},
    {"sgx.eexit_per_reg", "count", Kind::kExact},
    {"sgx.aex_per_reg", "count", Kind::kExact},
    {"sgx.epc_faulted_pages", "pages", Kind::kExact},
    {"libos.enclave_load_vs", "s", Kind::kExact},
    {"paka.eudm.lf_p50_us", "us", Kind::kExact},
    {"paka.eudm.lt_p50_us", "us", Kind::kExact},
    {"paka.eudm.wait_p50_us", "us", Kind::kExact},
    {"paka.eausf.lf_p50_us", "us", Kind::kExact},
    {"paka.eausf.lt_p50_us", "us", Kind::kExact},
    {"paka.eausf.wait_p50_us", "us", Kind::kExact},
    {"paka.eamf.lf_p50_us", "us", Kind::kExact},
    {"paka.eamf.lt_p50_us", "us", Kind::kExact},
    {"paka.eamf.wait_p50_us", "us", Kind::kExact},
    {"common.allocs_per_reg", "count", Kind::kExact},
    {"ran.gnb_contexts_end", "count", Kind::kExact},
    {"nf.udr_store_bytes", "B", Kind::kExact},
    {"load.route_ns_per_ue", "ns", Kind::kHost},
    {"load.mailbox_backpressure", "count", Kind::kHost},
    {"load.failed_frac", "ratio", Kind::kExact},
    {"load.wasted_frac", "ratio", Kind::kExact},
    {"slice.create_host_s", "s", Kind::kHost},
    {"other.host_ns_per_reg", "ns", Kind::kHost},
    {"trace.overhead_frac", "ratio", Kind::kHost},
};

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <out.json>]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* v = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = find_workload(v);
      if (o.workload == nullptr) usage("unknown workload");
    } else if (key == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') usage("bad --seed");
    } else if (key == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(o.seconds > 0.0) || o.seconds > 600) {
        usage("bad --seconds");
      }
    } else if (key == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      o.trace = v[0] == '1';
    } else if (key == "--spans") {
      o.spans_path = v;
    } else {
      usage("unknown option");
    }
  }
  if (o.workload == nullptr) usage("--workload is required");
  return o;
}

/// Refuses runtime overrides that would change the measured program.
void refuse_overrides() {
  bool bad = false;
  for (const char* var : {"SHIELD5G_BUS_FASTPATH", "SHIELD5G_CRYPTO_BACKEND",
                          "SHIELD5G_X25519_BATCH", "SHIELD5G_SHARD_WORKERS"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "perfbench: %s is set; unset it to benchmark\n",
                   var);
      bad = true;
    }
  }
  if (bad) std::exit(2);
}

void write_spans(const std::string& path, const std::vector<Span>& spans,
                 const Workload& w, std::uint64_t seed) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"run\":\"" << w.name << "-seed" << seed << "\",\"spans\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i ? "," : "") << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"rep\":" << s.rep << "}";
  }
  out << "]}\n";
  if (!out) std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
}

/// Self time per span name: duration minus the time its children cover.
void print_span_summary(const std::vector<Span>& spans) {
  std::map<std::string, std::array<double, 3>> by_name;  // count, total, self
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double d = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    auto& e = by_name[spans[i].name];
    e[0] += 1;
    e[1] += d;
    e[2] += d - child_ns[i];
  }
  std::printf("# spans (traced repetitions): name count total_ms self_ms\n");
  for (const auto& [name, e] : by_name) {
    std::printf("#   %-26s %6.0f %10.2f %10.2f\n", name.c_str(), e[0],
                e[1] / 1e6, e[2] / 1e6);
  }
}

int run(const Options& opt) {
  const Workload& w = *opt.workload;
  std::printf("# workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n", w.name,
              opt.seed, opt.seconds, opt.trace ? 1 : 0);
  std::printf("# config: mode=%s fast_paths=%d rate_per_s=%g ues=%u parts=%u "
              "shards=%u arrivals=poisson\n",
              slice::isolation_mode_name(w.mode), w.fast_paths ? 1 : 0,
              w.rate_per_s, w.ues, w.parts, w.shards);
  std::printf("# build: compiler=g++ %s backend=%s x25519_batch=%s nproc=%u\n",
              __VERSION__, crypto::backend_name(crypto::active_backend()),
              crypto::x25519_batch_engine_name(crypto::x25519_batch_engine()),
              std::thread::hardware_concurrency());
  std::fflush(stdout);

  Runner runner(w, opt.seed);
  SpanLog spans;
  // The first repetition warms the process-wide caches (comb tables,
  // allocator arenas, wire pools) that a long-running deployment has
  // warm; it is the reference for the digest checks and is not timed.
  std::vector<Rep> reps;
  reps.push_back(runner.run(false, nullptr));
  const std::uint64_t t0 = now_ns();
  int traced_reps = 0;
  while (seconds_since(t0) < opt.seconds || reps.size() < 3 ||
         (opt.trace && traced_reps < 2)) {
    const bool traced = opt.trace && reps.size() % 2 == 0;
    if (traced) spans.set_rep(static_cast<int>(reps.size()));
    reps.push_back(runner.run(traced, traced ? &spans : nullptr));
    traced_reps += traced ? 1 : 0;
  }
  const double measured_s = seconds_since(t0);
  // Peak memory of the measured work, read before the replay.
  const double rss_mb = peak_rss_mb();

  // ---- Correctness gate ----------------------------------------------
  bool correct = true;
  auto check = [&correct](bool ok, const char* what) {
    if (!ok) {
      std::printf("# GATE FAILED: %s\n", what);
      correct = false;
    }
  };
  const std::vector<Part>& ref = reps.front().parts;
  std::uint64_t attempted = 0, failed = 0;
  for (const Rep& rep : reps) {
    for (std::size_t p = 0; p < rep.parts.size(); ++p) {
      const Part& part = rep.parts[p];
      if (&rep != &reps.front()) {
        attempted += part.attempted;
        failed += part.failed_error;
      }
      check(part.completed == part.attempted, "every attempted UE completed");
      check(part.registered + part.failed_shed + part.failed_error ==
                part.attempted,
            "registered + failed == attempted");
      check(part.failed_error == 0, "failed_error == 0");
      check(part.digest == ref[p].digest,
            "digest identical across repetitions");
    }
  }
  const Runner::Replay replay = runner.replay();
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (std::size_t p = 0; p < ref.size(); ++p) {
    check(replay.digests[p] == ref[p].digest,
          w.shards > 1 ? "replay digest at 1 shard equals the measured one"
                       : "replay digest equals the measured one");
    digest = (digest ^ ref[p].digest) * 0x100000001b3ULL;
  }

  // Virtual-time outcome, pooled over the parts (identical every rep).
  Samples vsetup;
  double registered = 0, shed = 0, errors = 0, makespan_s = 0;
  for (const Part& part : ref) {
    for (double v : part.vsetup_ms) vsetup.add(v);
    registered += part.registered;
    shed += part.failed_shed;
    errors += part.failed_error;
    makespan_s += sim::to_s(part.makespan);
  }
  const double ues = static_cast<double>(w.ues) * w.parts;
  check(registered > 0, "at least one UE registered");
  std::printf("# digest=%016" PRIx64 " reps=%zu measured_s=%.3f\n", digest,
              reps.size() - 1, measured_s);
  std::printf("# outcome per rep: attempted=%.0f registered=%.0f shed=%.0f "
              "error=%.0f vsetup_samples=%zu\n",
              ues, registered, shed, errors, vsetup.count());

  // Host-time estimators: the median over parts of each part's rate
  // and set-up time, scaled to the reference host speed
  // (harness/host_speed.h). Set-up, and the whole run phase of a
  // single-slice workload, run on the calling thread, so they scale by
  // that core's speed. The serving plane's run phase spreads over its
  // shard threads, so its rate scales by the mean speed of all cores.
  // The raw rates and the speeds are printed alongside.
  std::vector<double> untraced_rate, traced_rate, setup_s, raw_rate, speeds;
  for (std::size_t i = 1; i < reps.size(); ++i) {
    for (const Part& part : reps[i].parts) {
      const double rate = ratio(part.registered, part.run_s);
      const double run_speed =
          w.shards == 0 ? part.host_speed : part.cores_speed;
      (reps[i].traced ? traced_rate : untraced_rate)
          .push_back(rate / run_speed);
      if (reps[i].traced) continue;
      setup_s.push_back(part.setup_s * part.host_speed);
      raw_rate.push_back(rate);
      speeds.push_back(run_speed);
    }
  }
  std::printf("# run-phase host speed over %zu untraced parts: p10=%.3f "
              "median=%.3f p90=%.3f\n",
              speeds.size(), percentile(speeds, 10), median(speeds),
              percentile(speeds, 90));
  std::printf("# raw regs_per_s: p10=%.1f median=%.1f p90=%.1f\n",
              percentile(raw_rate, 10), median(raw_rate),
              percentile(raw_rate, 90));
  for (const auto* rates : {&untraced_rate, &traced_rate}) {
    if (rates->empty()) continue;
    std::printf("# %s regs_per_s as reported, over %zu parts: p10=%.1f "
                "median=%.1f p90=%.1f\n",
                rates == &untraced_rate ? "untraced" : "traced",
                rates->size(), percentile(*rates, 10), median(*rates),
                percentile(*rates, 90));
  }
  const double rate_ref = median(untraced_rate);
  std::printf("# untraced setup_s at reference speed: p10=%.6f median=%.6f "
              "p90=%.6f\n",
              percentile(setup_s, 10), median(setup_s),
              percentile(setup_s, 90));

  struct Out {
    const char* name;
    double value;
    const char* unit;
  };
  std::vector<Out> metrics;
  if (!opt.trace) {
    metrics = {
        {"regs_per_s", rate_ref, "regs/s"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"registered_frac", ratio(registered, ues), "ratio"},
        {"vsetup_p50_ms", vsetup.median(), "ms"},
        {"vsetup_p99_ms", vsetup.percentile(99.0), "ms"},
        {"vgoodput_per_s", ratio(registered, makespan_s), "regs/s"},
    };
  } else {
    std::vector<const Rep*> traced;
    for (const Rep& r : reps) {
      if (r.traced) traced.push_back(&r);
    }
    std::string inexact;
    for (const MetricDef& m : kLayerMetrics) {
      const std::string name = m.name;
      std::vector<double> values;
      for (const Rep* r : traced) {
        const auto it = r->layer.find(name);
        if (it != r->layer.end()) values.push_back(it->second);
      }
      double value = 0.0;
      if (name == "trace.overhead_frac") {
        value = 1.0 - ratio(median(traced_rate), rate_ref);
      } else if (name == "load.failed_frac") {
        value = ratio(shed + errors, ues);
      } else if (name == "load.wasted_frac") {
        value = replay.wasted_frac;
      } else if (values.size() != traced.size()) {
        check(false, "every traced repetition measured every layer metric");
      } else {
        value = median(values);
        if (m.kind == Kind::kExact &&
            std::any_of(values.begin(), values.end(),
                        [&](double v) { return v != values.front(); })) {
          const auto [lo, hi] =
              std::minmax_element(values.begin(), values.end());
          char range[64];
          std::snprintf(range, sizeof(range), "[%.9g..%.9g]", *lo, *hi);
          inexact += " " + name + range;
        }
      }
      metrics.push_back({m.name, value, m.unit});
    }
    std::printf("# exact-count check over %zu traced repetitions: %s%s\n",
                traced.size(),
                inexact.empty() ? "all repeat exactly" : "DO NOT REPEAT:",
                inexact.c_str());
    print_span_summary(spans.spans());
    if (!opt.spans_path.empty()) {
      write_spans(opt.spans_path, spans.spans(), w, opt.seed);
      std::printf("# spans written to %s\n", opt.spans_path.c_str());
    }
  }

  std::string json = "{\"correct\":";
  json += correct ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(attempted) +
          ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Out& m = metrics[i];
    const double value = std::isfinite(m.value) ? m.value : -1.0;
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", i ? "," : "",
                  m.name, value, m.unit);
    json += buf;
    std::printf("# %-32s %.6g %s\n", m.name, value, m.unit);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::refuse_overrides();
  return perfbench::run(perfbench::parse(argc, argv));
}
