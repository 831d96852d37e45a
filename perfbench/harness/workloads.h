// The benchmark's workload table: every knob a workload sets lives in
// this one table, so retuning a profile touches one place. README.md
// in this directory says why each workload exists.
//
// All workloads are open-loop Poisson arrivals driven from one process.
// Rates sit relative to the saturation knee bench/load_curve reports
// for the same isolation mode.
#pragma once

#include <cstdint>
#include <string_view>

#include "slice/slice.h"

namespace perfbench {

struct Workload {
  const char* name;
  shield5g::slice::IsolationMode mode;
  /// TLS resumption, the ephemeral X25519 pool and SBI keep-alive,
  /// switched together (the "serving" fast paths); off is the paper
  /// profile every figure is calibrated on.
  bool fast_paths;
  /// Offered registrations per virtual second.
  double rate_per_s;
  /// UEs per part (across the whole plane when sharded).
  std::uint32_t ues;
  /// Independent deployments per repetition, each on its own input
  /// drawn from (seed, part). Virtual-time metrics pool all parts; host
  /// time is sampled once per part.
  std::uint32_t parts;
  /// 0: one slice driven by LoadGenerator::run on the calling thread.
  /// N > 0: load::run_serving over kServingSlots home slots with N
  /// shard workers, passed explicitly.
  unsigned shards;
};

using shield5g::slice::IsolationMode;

inline constexpr Workload kWorkloads[] = {
    {"sgx-steady", IsolationMode::kSgx, true, 300.0, 500, 16, 0},
    {"mono-steady", IsolationMode::kMonolithic, true, 300.0, 500, 8, 0},
    {"paper-cold", IsolationMode::kContainer, false, 300.0, 125, 16, 0},
    {"serving-storm", IsolationMode::kContainer, true, 20000.0, 4000, 4, 2},
};

inline const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
