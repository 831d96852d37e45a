// Wall-clock registration throughput harness.
//
// Unlike every other bench in this directory, which reports *virtual*
// time (the paper's metric), this one measures how fast the harness
// itself executes: end-to-end UE registrations are driven through the
// open-loop engine and timed with the host's steady clock. The output
// is registrations per wall-clock second plus a per-stage breakdown
// (crypto / codec / bus / scheduler) from the hot-stage probes, per
// isolation mode.
//
// All (mode x repeat) runs go through load::run_sweep, so they fan out
// across SHIELD5G_SHARD_WORKERS host threads. Stage attribution uses
// the per-shard hot-stage deltas captured on the worker that ran each
// case (buckets are thread-local), so the breakdown stays exact with
// shards in flight. For uncontended per-run wall numbers on a busy or
// small host, pin SHIELD5G_SHARD_WORKERS=1 — CI smoke does.
//
//   $ ./throughput [--smoke] [ue_count] [offered_load_per_s] [repeats] [out.json]
//
// Defaults: 600 UEs, 2000/s Poisson arrivals, 3 repeats, writing
// BENCH_throughput.json in the working directory. --smoke shrinks the
// run for CI (60 UEs, 1 repeat). Each repeat builds a fresh slice; the
// reported rate per mode is the median across repeats so a noisy host
// does not dominate. The emitted JSON is re-parsed and schema-checked
// before the process exits 0 — a malformed or incomplete report fails
// the bench.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/buffer_pool.h"
#include "common/hot_stage.h"
#include "common/stats.h"
#include "crypto/cpu_dispatch.h"
#include "crypto/op_count.h"
#include "crypto/x25519.h"
#include "json/json.h"
#include "load/sweep.h"
#include "sim/shard_pool.h"
#include "slice/slice.h"

using namespace shield5g;

// ---------------------------------------------------------------------
// Global allocation counting: every scalar/array operator new bumps a
// relaxed atomic, so the bench can report heap allocations per
// registration. CI pins a ceiling on the number — the zero-copy wire
// path (pooled records, interned headers, id-keyed bus tables) is what
// keeps it flat as payloads grow.
// ---------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

constexpr const char* kSchemaId = "shield5g.bench.throughput.v2";

constexpr HotStage kStages[] = {HotStage::kCrypto, HotStage::kCodec,
                                HotStage::kBus, HotStage::kScheduler};

struct ModeResult {
  const char* mode = "";
  std::uint32_t registered = 0;
  std::uint32_t failed = 0;
  std::uint32_t failed_shed = 0;
  std::uint32_t failed_error = 0;
  std::uint64_t fastpath_hits = 0;
  std::uint64_t nas_badmac = 0;
  double elapsed_ms_median = 0.0;
  double regs_per_s = 0.0;
  std::uint64_t stage_ns[kHotStageCount] = {};
};

struct Options {
  std::uint32_t ue_count = 600;
  double rate_per_s = 2000.0;
  int repeats = 3;
  std::string out_path = "BENCH_throughput.json";
  bool smoke = false;
};

Options parse_args(int argc, char** argv) {
  Options opt;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      opt.smoke = true;
      opt.ue_count = 60;
      opt.rate_per_s = 1000.0;
      opt.repeats = 1;
      continue;
    }
    switch (positional++) {
      case 0: opt.ue_count = static_cast<std::uint32_t>(std::atoi(argv[i])); break;
      case 1: opt.rate_per_s = std::atof(argv[i]); break;
      case 2: opt.repeats = std::atoi(argv[i]); break;
      case 3: opt.out_path = argv[i]; break;
      default:
        std::fprintf(stderr,
                     "usage: %s [--smoke] [ue_count] [rate_per_s] [repeats] "
                     "[out.json]\n",
                     argv[0]);
        std::exit(2);
    }
  }
  if (opt.ue_count == 0 || opt.rate_per_s <= 0.0 || opt.repeats < 1) {
    std::fprintf(stderr, "throughput: ue_count, rate and repeats must be > 0\n");
    std::exit(2);
  }
  return opt;
}

/// Folds one mode's repeats (a contiguous run of sweep results) into
/// the reported medians. Wall time and stage deltas come from the
/// per-case measurements taken on whichever worker ran the case.
ModeResult fold_mode(slice::IsolationMode mode,
                     const load::SweepResult* repeats, int count) {
  ModeResult result;
  result.mode = slice::isolation_mode_name(mode);
  Samples elapsed_ms;
  Samples rate;
  for (int rep = 0; rep < count; ++rep) {
    const load::SweepResult& r = repeats[rep];
    // Virtual-time outcomes are deterministic across repeats, so the
    // last repeat's values stand for all of them.
    result.registered = r.report.registered;
    result.failed = r.report.failed;
    result.failed_shed = r.report.failed_shed;
    result.failed_error = r.report.failed_error;
    result.fastpath_hits = r.fastpath_hits;
    result.nas_badmac = r.nas_badmac;
    elapsed_ms.add(r.run_wall_ms);
    if (r.run_wall_ms > 0.0) {
      rate.add(static_cast<double>(r.report.registered) /
               (r.run_wall_ms / 1e3));
    }
    // Stage totals accumulate across repeats; shares stay meaningful.
    for (const HotStage stage : kStages) {
      const int i = static_cast<int>(stage);
      result.stage_ns[i] += r.stage_ns[i];
    }
  }
  result.elapsed_ms_median = elapsed_ms.median();
  result.regs_per_s = rate.empty() ? 0.0 : rate.median();
  return result;
}

struct PerRegCosts {
  double allocs = 0.0;
  double x25519 = 0.0;
};

/// Heap allocations and X25519 scalar mults per registration on a warm
/// wire path, measured on the main thread (worker pools and the op
/// counters are thread-local, so the measurement thread must be the
/// running thread). Pass 0 warms this thread's buffer pool and
/// allocator arenas; pass 1 runs a fresh slice and is the one counted.
/// Slice construction/provisioning is excluded — only
/// LoadGenerator::run is inside the counting window. Resumption and the
/// ephemeral pool are on, matching the sweep above: the X25519 figure
/// is what pins the "warm exchanges do zero scalar mults" property at
/// workload scale.
PerRegCosts measure_per_reg_costs(bool smoke) {
  slice::SliceConfig cfg;
  cfg.mode = slice::IsolationMode::kContainer;
  cfg.tls_resumption = true;
  cfg.eph_pool = true;
  const std::uint32_t ues = smoke ? 60 : 200;
  cfg.subscriber_count = ues;
  load::LoadConfig load;
  load.ue_count = ues;
  load.arrivals.kind = load::ArrivalKind::kPoisson;
  load.arrivals.rate_per_s = 2000.0;

  PerRegCosts out;
  for (int pass = 0; pass < 2; ++pass) {
    slice::Slice slice(cfg);
    slice.create();
    load::LoadGenerator generator;
    const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    const std::uint64_t mults_before = crypto::op_counts().x25519_ops;
    const load::LoadReport report = generator.run(slice, load);
    const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
    const std::uint64_t mults_after = crypto::op_counts().x25519_ops;
    if (pass == 1 && report.registered > 0) {
      out.allocs = static_cast<double>(after - before) /
                   static_cast<double>(report.registered);
      out.x25519 = static_cast<double>(mults_after - mults_before) /
                   static_cast<double>(report.registered);
    }
  }
  BufferPool::publish_thread_stats();
  return out;
}

json::Value stage_object(const std::uint64_t ns[kHotStageCount]) {
  json::Object obj;
  for (const HotStage stage : kStages) {
    obj[hot_stage::name(stage)] = json::Value(ns[static_cast<int>(stage)]);
  }
  return json::Value(std::move(obj));
}

/// Re-parses the emitted document and checks the schema the CI smoke
/// stage (and downstream tooling) depends on. Returns false with a
/// diagnostic on any missing or mistyped field.
bool validate(const std::string& text) {
  const auto fail = [](const char* what) {
    std::fprintf(stderr, "throughput: schema validation failed: %s\n", what);
    return false;
  };
  json::Value doc;
  try {
    doc = json::parse(text);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "throughput: emitted JSON does not parse: %s\n",
                 e.what());
    return false;
  }
  if (!doc.is_object()) return fail("root is not an object");
  const json::Object& root = doc.as_object();
  const auto field = [&root](const char* key) -> const json::Value* {
    const auto it = root.find(key);
    return it == root.end() ? nullptr : &it->second;
  };

  const json::Value* schema = field("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kSchemaId) {
    return fail("schema id missing or wrong");
  }
  const json::Value* backend = field("backend");
  if (backend == nullptr || !backend->is_string()) return fail("backend");
  for (const char* key : {"ue_count", "rate_per_s", "repeats", "workers",
                          "regs_per_s", "wall_ms"}) {
    const json::Value* v = field(key);
    if (v == nullptr || !v->is_number()) return fail(key);
  }
  const json::Value* smoke = field("smoke");
  if (smoke == nullptr || !smoke->is_bool()) return fail("smoke");

  const json::Value* pool = field("wire_pool");
  if (pool == nullptr || !pool->is_object()) return fail("wire_pool");
  for (const char* key : {"hit", "miss", "oversize", "bytes"}) {
    const json::Object& p = pool->as_object();
    const auto it = p.find(key);
    if (it == p.end() || !it->second.is_number()) {
      return fail("wire_pool field");
    }
  }
  const json::Value* allocs = field("allocs_per_reg");
  if (allocs == nullptr || !allocs->is_number()) return fail("allocs_per_reg");

  const json::Value* resume = field("tls_resume");
  if (resume == nullptr || !resume->is_object()) return fail("tls_resume");
  for (const char* key : {"hit", "miss", "reject"}) {
    const json::Object& r = resume->as_object();
    const auto it = r.find(key);
    if (it == r.end() || !it->second.is_number()) {
      return fail("tls_resume field");
    }
  }
  const json::Value* eph = field("x25519_pool");
  if (eph == nullptr || !eph->is_object()) return fail("x25519_pool");
  const json::Object& e = eph->as_object();
  const auto eph_hit = e.find("hit");
  if (eph_hit == e.end() || !eph_hit->second.is_number()) {
    return fail("x25519_pool field");
  }
  for (const char* key : {"resumption_rate", "x25519_per_reg"}) {
    const json::Value* v = field(key);
    if (v == nullptr || !v->is_number()) return fail(key);
  }

  const json::Value* modes = field("modes");
  if (modes == nullptr || !modes->is_array() || modes->as_array().empty()) {
    return fail("modes");
  }
  for (const json::Value& entry : modes->as_array()) {
    if (!entry.is_object()) return fail("modes entry not an object");
    const json::Object& m = entry.as_object();
    for (const char* key : {"registered", "failed", "shed", "error",
                            "fastpath_hits", "nas_badmac", "elapsed_ms",
                            "regs_per_s"}) {
      const auto it = m.find(key);
      if (it == m.end() || !it->second.is_number()) return fail(key);
    }
    const auto mode_it = m.find("mode");
    if (mode_it == m.end() || !mode_it->second.is_string()) {
      return fail("mode name");
    }
    const auto stages_it = m.find("stage_ns");
    if (stages_it == m.end() || !stages_it->second.is_object()) {
      return fail("stage_ns");
    }
    const json::Object& stages = stages_it->second.as_object();
    for (const HotStage stage : kStages) {
      const auto it = stages.find(hot_stage::name(stage));
      if (it == stages.end() || !it->second.is_number()) {
        return fail("stage_ns bucket");
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  const char* backend = crypto::backend_name(crypto::active_backend());
  const unsigned workers = sim::shard_workers();

  bench::heading("Wall-clock registration throughput");
  std::printf("  backend=%s ue_count=%u rate=%.0f/s repeats=%d workers=%u%s\n",
              backend, opt.ue_count, opt.rate_per_s, opt.repeats, workers,
              opt.smoke ? " (smoke)" : "");
  bench::print_note(
      "host time, not virtual time — every other bench reports the latter");
  if (workers > 1) {
    bench::print_note(
        "shards run concurrently; per-run wall numbers include host "
        "contention (SHIELD5G_SHARD_WORKERS=1 for uncontended timing)");
  }

  hot_stage::set_enabled(true);

  const slice::IsolationMode modes[] = {slice::IsolationMode::kMonolithic,
                                        slice::IsolationMode::kContainer,
                                        slice::IsolationMode::kSgx};

  // One flat sweep over every (mode, repeat); results stay grouped by
  // mode because case order is preserved.
  std::vector<load::SweepCase> cases;
  for (const slice::IsolationMode mode : modes) {
    for (int rep = 0; rep < opt.repeats; ++rep) {
      load::SweepCase c;
      c.label = std::string(slice::isolation_mode_name(mode)) + " rep=" +
                std::to_string(rep);
      c.slice.mode = mode;
      c.slice.subscriber_count = opt.ue_count;
      // Wall-clock bench, not the bit-identity oracle: run with the
      // resumption + precompute fast path the deployments would use.
      c.slice.tls_resumption = true;
      c.slice.eph_pool = true;
      c.load.ue_count = opt.ue_count;
      c.load.arrivals.kind = load::ArrivalKind::kPoisson;
      c.load.arrivals.rate_per_s = opt.rate_per_s;
      cases.push_back(std::move(c));
    }
  }
  const std::vector<load::SweepResult> sweep = load::run_sweep(cases);

  std::vector<ModeResult> results;
  std::uint64_t total_stage_ns[kHotStageCount] = {};
  std::uint32_t total_registered = 0;
  double total_wall_ms = 0.0;
  for (std::size_t m = 0; m < std::size(modes); ++m) {
    ModeResult r = fold_mode(modes[m], &sweep[m * opt.repeats], opt.repeats);
    std::printf("  %-11s %u/%u registered (%u shed, %u error), %.1f ms, "
                "%.0f regs/s wall, %llu fastpath hits, %llu nas badmac\n",
                r.mode, r.registered, opt.ue_count, r.failed_shed,
                r.failed_error, r.elapsed_ms_median, r.regs_per_s,
                static_cast<unsigned long long>(r.fastpath_hits),
                static_cast<unsigned long long>(r.nas_badmac));
    std::uint64_t mode_total = 0;
    for (const HotStage stage : kStages) {
      mode_total += r.stage_ns[static_cast<int>(stage)];
    }
    for (const HotStage stage : kStages) {
      const int i = static_cast<int>(stage);
      total_stage_ns[i] += r.stage_ns[i];
      if (mode_total > 0) {
        std::printf("    %-10s %8.2f ms (%4.1f%%)\n", hot_stage::name(stage),
                    static_cast<double>(r.stage_ns[i]) / 1e6,
                    100.0 * static_cast<double>(r.stage_ns[i]) /
                        static_cast<double>(mode_total));
      }
    }
    // One slice-run's worth of wall time per mode (median over repeats);
    // the headline rate divides registrations by this aggregate.
    total_registered += r.registered;
    total_wall_ms += r.elapsed_ms_median;
    results.push_back(std::move(r));
  }
  hot_stage::set_enabled(false);

  const PerRegCosts per_reg = measure_per_reg_costs(opt.smoke);
  const std::uint64_t pool_hits = counter_value("wire.pool.hit");
  const std::uint64_t pool_misses = counter_value("wire.pool.miss");
  const std::uint64_t pool_total = pool_hits + pool_misses;
  std::printf("  wire pool: %llu hits / %llu misses (%.1f%% hit rate), "
              "%.1f allocs/registration warm\n",
              static_cast<unsigned long long>(pool_hits),
              static_cast<unsigned long long>(pool_misses),
              pool_total > 0
                  ? 100.0 * static_cast<double>(pool_hits) /
                        static_cast<double>(pool_total)
                  : 0.0,
              per_reg.allocs);

  // Resumption + precompute effectiveness across everything this
  // process ran (the sweep plus both per-reg passes).
  const std::uint64_t resume_hits = counter_value("tls.resume.hit");
  const std::uint64_t resume_misses = counter_value("tls.resume.miss");
  const std::uint64_t resume_rejects = counter_value("tls.resume.reject");
  const std::uint64_t handshakes = resume_hits + resume_misses + resume_rejects;
  const double resumption_rate =
      handshakes > 0
          ? static_cast<double>(resume_hits) / static_cast<double>(handshakes)
          : 0.0;
  std::printf("  tls resumption: %llu hits / %llu misses / %llu rejects "
              "(%.1f%% resumed), %.2f scalar mults/registration\n",
              static_cast<unsigned long long>(resume_hits),
              static_cast<unsigned long long>(resume_misses),
              static_cast<unsigned long long>(resume_rejects),
              100.0 * resumption_rate, per_reg.x25519);
  std::printf("  x25519 pool: %llu hits\n",
              static_cast<unsigned long long>(
                  counter_value("x25519.pool.hit")));

  const double headline_regs_per_s =
      total_wall_ms > 0.0
          ? static_cast<double>(total_registered) / (total_wall_ms / 1e3)
          : 0.0;
  std::printf("  headline: %u registrations in %.1f ms -> %.0f regs/s\n",
              total_registered, total_wall_ms, headline_regs_per_s);

  json::Object root;
  root["schema"] = json::Value(kSchemaId);
  root["backend"] = json::Value(backend);
  root["x25519_ladder"] = json::Value(crypto::x25519_ladder_name());
  root["smoke"] = json::Value(opt.smoke);
  root["ue_count"] = json::Value(static_cast<std::uint64_t>(opt.ue_count));
  root["rate_per_s"] = json::Value(opt.rate_per_s);
  root["repeats"] = json::Value(static_cast<std::int64_t>(opt.repeats));
  root["workers"] = json::Value(static_cast<std::uint64_t>(workers));
  root["regs_per_s"] = json::Value(headline_regs_per_s);
  root["wall_ms"] = json::Value(total_wall_ms);
  root["stage_ns"] = stage_object(total_stage_ns);
  {
    json::Object pool_obj;
    pool_obj["hit"] = json::Value(pool_hits);
    pool_obj["miss"] = json::Value(pool_misses);
    pool_obj["oversize"] = json::Value(counter_value("wire.pool.oversize"));
    pool_obj["bytes"] = json::Value(counter_value("wire.pool.bytes"));
    root["wire_pool"] = json::Value(std::move(pool_obj));
  }
  root["allocs_per_reg"] = json::Value(per_reg.allocs);
  {
    json::Object resume_obj;
    resume_obj["hit"] = json::Value(resume_hits);
    resume_obj["miss"] = json::Value(resume_misses);
    resume_obj["reject"] = json::Value(resume_rejects);
    root["tls_resume"] = json::Value(std::move(resume_obj));
  }
  root["resumption_rate"] = json::Value(resumption_rate);
  {
    json::Object eph_obj;
    eph_obj["hit"] = json::Value(counter_value("x25519.pool.hit"));
    root["x25519_pool"] = json::Value(std::move(eph_obj));
  }
  root["x25519_per_reg"] = json::Value(per_reg.x25519);
  json::Array mode_entries;
  for (const ModeResult& r : results) {
    json::Object entry;
    entry["mode"] = json::Value(r.mode);
    entry["registered"] = json::Value(static_cast<std::uint64_t>(r.registered));
    entry["failed"] = json::Value(static_cast<std::uint64_t>(r.failed));
    entry["shed"] = json::Value(static_cast<std::uint64_t>(r.failed_shed));
    entry["error"] = json::Value(static_cast<std::uint64_t>(r.failed_error));
    entry["fastpath_hits"] = json::Value(r.fastpath_hits);
    entry["nas_badmac"] = json::Value(r.nas_badmac);
    entry["elapsed_ms"] = json::Value(r.elapsed_ms_median);
    entry["regs_per_s"] = json::Value(r.regs_per_s);
    entry["stage_ns"] = stage_object(r.stage_ns);
    mode_entries.emplace_back(std::move(entry));
  }
  root["modes"] = json::Value(std::move(mode_entries));

  const std::string text = json::Value(std::move(root)).dump();
  if (!validate(text)) return 1;

  std::ofstream out(opt.out_path, std::ios::trunc);
  out << text << '\n';
  if (!out) {
    std::fprintf(stderr, "throughput: cannot write %s\n",
                 opt.out_path.c_str());
    return 1;
  }
  std::printf("  wrote %s\n", opt.out_path.c_str());
  return 0;
}
