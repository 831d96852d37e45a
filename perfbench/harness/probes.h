// Link-time probes the harness installs in its own binary, so it can
// count work inside the simulator without changing any simulator code.
//
// * Heap allocations: this binary replaces the global operator new and
//   counts calls while counting is switched on (traced repetitions
//   only; otherwise the probe costs one relaxed load).
// * Crypto primitive counts: this binary supplies the definition of
//   crypto::op_counts() in place of src/crypto/op_count.cpp's (static
//   archive members are only pulled in for undefined symbols). Each
//   thread still counts into its own thread-local block, exactly as
//   the original does, but a block folds into a process total when its
//   thread exits — so the counts of run_serving's shard threads, which
//   no public getter exposes, become readable after the call returns.
#pragma once

#include <cstdint>

#include "crypto/op_count.h"

namespace perfbench {

void set_alloc_counting(bool on) noexcept;
std::uint64_t alloc_count() noexcept;

/// The calling thread's crypto op counts plus those of every thread
/// that has exited. Read it from the thread that drove the work, after
/// every worker the work started has been joined.
shield5g::crypto::OpCounts op_counts_total() noexcept;

}  // namespace perfbench
