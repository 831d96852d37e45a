// The X25519 batch-engine name that benchmark reports print.
//
// Every fixed-point mult runs through crypto/x25519.h's own path (the
// comb once a point has one, else the ladder), one call at a time; no
// batched or vector engine remains. The enum and its name survive so
// the reports that print them keep their format.
#pragma once

namespace shield5g::crypto {

/// The one engine: per-call fixed-point mults.
enum class X25519BatchEngine { kScalar };

inline X25519BatchEngine x25519_batch_engine() noexcept {
  return X25519BatchEngine::kScalar;
}

/// "scalar", for reports.
inline const char* x25519_batch_engine_name(X25519BatchEngine) noexcept {
  return "scalar";
}

}  // namespace shield5g::crypto
