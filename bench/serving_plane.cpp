// SERVING PLANE — SUPI-sharded live serving + columnar 1M-subscriber UDR.
//
// Two claims, both enforced here rather than just reported:
//
//   1. Capacity: provisioning 1,000,000 subscribers into the columnar
//      SubscriberStore (population-mode slice, the store as the only
//      resident copy) stays under a pinned peak-RSS ceiling, measured
//      with getrusage(RUSAGE_SELF).ru_maxrss immediately after the
//      provision phase — maxrss is monotone, so the snapshot taken
//      before churn is exactly the provisioning peak.
//   2. Scaling: the sharded serving plane (load/serving.h) at 2/4/8
//      workers produces a merged digest byte-identical to the 1-worker
//      run, and >=1.7x registrations/s at 2 workers when the host has
//      >=2 cores (recorded, not enforced, on smaller hosts — the
//      digest check runs everywhere).
//
//   $ ./serving_plane [--smoke] [--shards 1,2,4,8] [out.json]
//
// Writes BENCH_serving.json (schema shield5g.bench.serving_plane.v1),
// re-parsed and schema-checked before exit, including the RSS ceiling
// verdict — CI's serve-smoke stage trusts this file's self-validation.
#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "json/json.h"
#include "load/serving.h"
#include "nf/subscriber_store.h"
#include "slice/slice.h"

using namespace shield5g;

namespace {

constexpr const char* kSchemaId = "shield5g.bench.serving_plane.v1";
constexpr double kSpeedupBarAt2 = 1.7;
constexpr std::uint32_t kProvisionCount = 1'000'000;
/// Peak-RSS ceiling for the 1M provision, in KiB. Measured ~90 MB on
/// the reference container (columnar store ~78 MB + process baseline);
/// pinned with ~75% headroom so an accidental fat-map regression (which
/// costs >3x) trips it immediately while allocator noise never does.
constexpr long kRssCeilingKb = 160 * 1024;

struct Options {
  bool smoke = false;
  std::vector<unsigned> shard_counts = {1, 2, 4, 8};
  std::string out_path = "BENCH_serving.json";
};

Options parse_args(int argc, char** argv) {
  Options opt;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      opt.smoke = true;
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      opt.shard_counts.clear();
      const char* p = argv[++i];
      while (*p != '\0') {
        char* end = nullptr;
        const long v = std::strtol(p, &end, 10);
        if (end == p || v <= 0) break;
        opt.shard_counts.push_back(static_cast<unsigned>(v));
        p = (*end == ',') ? end + 1 : end;
      }
      if (opt.shard_counts.empty()) {
        std::fprintf(stderr, "serving_plane: bad --shards list\n");
        std::exit(2);
      }
    } else if (positional++ == 0) {
      opt.out_path = argv[i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--shards 1,2,4,8] [out.json]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  return opt;
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak RSS of this process in KiB (Linux ru_maxrss unit). Monotone:
/// call order against the allocation being measured is what matters.
long peak_rss_kb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return -1;
  return usage.ru_maxrss;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

struct ProvisionResult {
  std::uint32_t subscribers = 0;
  double wall_ms = 0.0;
  double lookups_per_s = 0.0;
  std::size_t store_bytes = 0;
  long rss_before_kb = 0;
  long rss_after_kb = 0;
  bool rss_ok = false;
};

/// The capacity claim: a full population-mode slice provision (the UDR
/// columnar store is the only resident subscriber copy), then a row()
/// sweep so the measured footprint is also the footprint being served.
ProvisionResult run_provision() {
  ProvisionResult out;
  out.subscribers = kProvisionCount;
  out.rss_before_kb = peak_rss_kb();

  {
    slice::SliceConfig cfg;
    cfg.mode = slice::IsolationMode::kMonolithic;  // pure store footprint
    cfg.seed = 0x1013A9ULL;
    cfg.population.resize(kProvisionCount);
    std::iota(cfg.population.begin(), cfg.population.end(), 0u);
    cfg.subscriber_count = kProvisionCount;

    const double t0 = now_ms();
    slice::Slice slice(cfg);
    slice.create();
    out.wall_ms = now_ms() - t0;
    out.store_bytes = slice.udr().store().bytes_reserved();

    // Lookup sweep while everything is resident: every provisioned SUPI
    // must resolve, at columnar (two cache line) cost.
    const double l0 = now_ms();
    std::uint64_t hits = 0;
    char supi[24];
    for (std::uint32_t i = 0; i < kProvisionCount; ++i) {
      std::snprintf(supi, sizeof(supi), "00101%010u", 100000000u + i);
      if (slice.udr().store().row(supi) != nf::SubscriberStore::kNoRow) {
        ++hits;
      }
    }
    const double lookup_ms = now_ms() - l0;
    if (hits != kProvisionCount) {
      std::fprintf(stderr, "serving_plane: lost rows: %" PRIu64 "/%u\n",
                   hits, kProvisionCount);
      std::exit(1);
    }
    if (lookup_ms > 0) out.lookups_per_s = 1000.0 * hits / lookup_ms;

    out.rss_after_kb = peak_rss_kb();  // provisioning peak: store alive
  }  // slice (and store) freed before the churn phase

  out.rss_ok = out.rss_after_kb > 0 && out.rss_after_kb <= kRssCeilingKb;
  return out;
}

struct ServeRun {
  unsigned shards = 0;
  double wall_ms = 0.0;
  double regs_per_s = 0.0;
  double speedup = 0.0;
  std::uint64_t digest = 0;
  std::uint64_t backpressure = 0;
  std::uint64_t nas_badmac = 0;
  bool match = false;
};

bool validate(const std::string& text) {
  const auto fail = [](const char* what) {
    std::fprintf(stderr, "serving_plane: schema validation failed: %s\n",
                 what);
    return false;
  };
  json::Value doc;
  try {
    doc = json::parse(text);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serving_plane: emitted JSON does not parse: %s\n",
                 e.what());
    return false;
  }
  if (!doc.is_object()) return fail("root is not an object");
  const json::Object& root = doc.as_object();
  const auto it_schema = root.find("schema");
  if (it_schema == root.end() || !it_schema->second.is_string() ||
      it_schema->second.as_string() != kSchemaId) {
    return fail("schema id missing or wrong");
  }
  for (const char* key : {"cores", "slots", "ue_count"}) {
    const auto it = root.find(key);
    if (it == root.end() || !it->second.is_number()) return fail(key);
  }
  for (const char* key : {"smoke", "deterministic", "speedup_checked"}) {
    const auto it = root.find(key);
    if (it == root.end() || !it->second.is_bool()) return fail(key);
  }
  const auto it_prov = root.find("provision");
  if (it_prov == root.end() || !it_prov->second.is_object()) {
    return fail("provision");
  }
  const json::Object& prov = it_prov->second.as_object();
  for (const char* key :
       {"subscribers", "wall_ms", "lookups_per_s", "store_bytes",
        "rss_before_kb", "rss_after_kb", "rss_ceiling_kb"}) {
    const auto it = prov.find(key);
    if (it == prov.end() || !it->second.is_number()) return fail(key);
  }
  const auto it_ok = prov.find("rss_ok");
  if (it_ok == prov.end() || !it_ok->second.is_bool()) return fail("rss_ok");
  const auto it_runs = root.find("runs");
  if (it_runs == root.end() || !it_runs->second.is_array() ||
      it_runs->second.as_array().empty()) {
    return fail("runs");
  }
  for (const json::Value& entry : it_runs->second.as_array()) {
    if (!entry.is_object()) return fail("run entry");
    const json::Object& r = entry.as_object();
    for (const char* key :
         {"shards", "wall_ms", "regs_per_s", "speedup", "backpressure",
          "nas_badmac"}) {
      const auto it = r.find(key);
      if (it == r.end() || !it->second.is_number()) return fail(key);
    }
    const auto it_d = r.find("digest");
    if (it_d == r.end() || !it_d->second.is_string()) return fail("digest");
    const auto it_m = r.find("digest_matches_sequential");
    if (it_m == r.end() || !it_m->second.is_bool()) {
      return fail("digest_matches_sequential");
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  const unsigned cores = std::thread::hardware_concurrency();

  bench::heading("SERVING PLANE: columnar 1M provision + sharded serving");

  // ---- Phase 1: capacity. Runs in smoke too — it IS the CI pin. -----
  const ProvisionResult prov = run_provision();
  std::printf("  provision: %u subscribers in %.0f ms, store %.1f MB "
              "(%.1f B/subscriber), %.0f lookups/s\n",
              prov.subscribers, prov.wall_ms,
              prov.store_bytes / (1024.0 * 1024.0),
              static_cast<double>(prov.store_bytes) / prov.subscribers,
              prov.lookups_per_s);
  std::printf("  peak RSS: %.1f MB before, %.1f MB after (ceiling %.0f MB) "
              "%s\n",
              prov.rss_before_kb / 1024.0, prov.rss_after_kb / 1024.0,
              kRssCeilingKb / 1024.0, prov.rss_ok ? "OK" : "OVER CEILING");
  if (!prov.rss_ok) {
    std::fprintf(stderr,
                 "serving_plane: 1M provision peak RSS %ld KiB exceeds the "
                 "%ld KiB ceiling\n",
                 prov.rss_after_kb, kRssCeilingKb);
    return 1;
  }

  // ---- Phase 2: scaling. One partition, widths 1..8. ----------------
  load::ServingConfig cfg;
  cfg.slice.mode = slice::IsolationMode::kContainer;
  cfg.slice.seed = 0x5eedULL;
  cfg.ue_count = opt.smoke ? 64 : 512;
  cfg.arrivals.kind = load::ArrivalKind::kPoisson;
  cfg.arrivals.rate_per_s = 1600.0;
  cfg.seed = 0x5e47eULL;
  std::printf("  serving: %u UEs over %u slots, host cores=%u%s\n",
              cfg.ue_count, cfg.slots, cores, opt.smoke ? " (smoke)" : "");

  std::uint64_t seq_digest = 0;
  std::vector<std::string> seq_lines;
  double seq_wall_ms = 0.0;
  bool deterministic = true;
  std::vector<ServeRun> runs;
  for (const unsigned shards : opt.shard_counts) {
    const load::ServingReport report = load::run_serving(cfg, shards);
    ServeRun run;
    run.shards = report.shards;
    run.wall_ms = report.wall_ms;
    run.regs_per_s = report.regs_per_s;
    run.digest = report.digest;
    run.backpressure = report.backpressure;
    run.nas_badmac = report.nas_badmac;
    if (runs.empty()) {
      seq_digest = report.digest;
      seq_lines = report.digest_lines;
      seq_wall_ms = report.wall_ms;
    }
    run.match = run.digest == seq_digest;
    run.speedup = run.wall_ms > 0.0 ? seq_wall_ms / run.wall_ms : 0.0;
    std::printf("  shards=%-3u %8.1f ms  %8.0f regs/s  speedup %.2fx  "
                "nas badmac %" PRIu64 "  digest %s  %s\n",
                run.shards, run.wall_ms, run.regs_per_s, run.speedup,
                run.nas_badmac, hex64(run.digest).c_str(),
                run.match ? "== sequential" : "DIVERGED");
    if (!run.match) {
      deterministic = false;
      const std::size_t n = seq_lines.size() < report.digest_lines.size()
                                ? seq_lines.size()
                                : report.digest_lines.size();
      for (std::size_t i = 0; i < n; ++i) {
        if (seq_lines[i] != report.digest_lines[i]) {
          std::fprintf(stderr, "  slot %zu:\n    seq: %s\n    par: %s\n", i,
                       seq_lines[i].c_str(), report.digest_lines[i].c_str());
        }
      }
    }
    runs.push_back(run);
  }

  const bool speedup_checked = cores >= 2;
  bool speedup_ok = true;
  for (const ServeRun& run : runs) {
    if (run.shards != 2) continue;
    if (speedup_checked && run.speedup < kSpeedupBarAt2) {
      speedup_ok = false;
      std::fprintf(stderr,
                   "serving_plane: speedup at 2 shards %.2fx below the "
                   "%.1fx bar (cores=%u)\n",
                   run.speedup, kSpeedupBarAt2, cores);
    } else if (!speedup_checked) {
      bench::print_note("single-core host: scaling recorded but the speedup "
                        "bar is not enforced here");
    }
  }

  json::Object root;
  root["schema"] = json::Value(kSchemaId);
  root["smoke"] = json::Value(opt.smoke);
  root["cores"] = json::Value(static_cast<std::uint64_t>(cores));
  root["slots"] = json::Value(static_cast<std::uint64_t>(cfg.slots));
  root["ue_count"] = json::Value(static_cast<std::uint64_t>(cfg.ue_count));
  root["deterministic"] = json::Value(deterministic);
  root["speedup_checked"] = json::Value(speedup_checked);
  json::Object prov_entry;
  prov_entry["subscribers"] =
      json::Value(static_cast<std::uint64_t>(prov.subscribers));
  prov_entry["wall_ms"] = json::Value(prov.wall_ms);
  prov_entry["lookups_per_s"] = json::Value(prov.lookups_per_s);
  prov_entry["store_bytes"] =
      json::Value(static_cast<std::uint64_t>(prov.store_bytes));
  prov_entry["rss_before_kb"] =
      json::Value(static_cast<std::uint64_t>(prov.rss_before_kb));
  prov_entry["rss_after_kb"] =
      json::Value(static_cast<std::uint64_t>(prov.rss_after_kb));
  prov_entry["rss_ceiling_kb"] =
      json::Value(static_cast<std::uint64_t>(kRssCeilingKb));
  prov_entry["rss_ok"] = json::Value(prov.rss_ok);
  root["provision"] = json::Value(std::move(prov_entry));
  json::Array run_entries;
  for (const ServeRun& run : runs) {
    json::Object entry;
    entry["shards"] = json::Value(static_cast<std::uint64_t>(run.shards));
    entry["wall_ms"] = json::Value(run.wall_ms);
    entry["regs_per_s"] = json::Value(run.regs_per_s);
    entry["speedup"] = json::Value(run.speedup);
    entry["backpressure"] =
        json::Value(static_cast<std::uint64_t>(run.backpressure));
    entry["nas_badmac"] = json::Value(run.nas_badmac);
    entry["digest"] = json::Value(hex64(run.digest));
    entry["digest_matches_sequential"] = json::Value(run.match);
    run_entries.emplace_back(std::move(entry));
  }
  root["runs"] = json::Value(std::move(run_entries));

  const std::string text = json::Value(std::move(root)).dump();
  if (!validate(text)) return 1;
  std::ofstream out(opt.out_path, std::ios::trunc);
  out << text << '\n';
  if (!out) {
    std::fprintf(stderr, "serving_plane: cannot write %s\n",
                 opt.out_path.c_str());
    return 1;
  }
  std::printf("  wrote %s\n", opt.out_path.c_str());

  if (!deterministic) {
    std::fprintf(stderr,
                 "serving_plane: sharded serving diverged from sequential\n");
    return 1;
  }
  if (!speedup_ok) return 1;
  return 0;
}
