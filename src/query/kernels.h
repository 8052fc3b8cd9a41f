// The figure-kernel identity a run manifest records. The figures come from
// one scalar per-device fold (core/figure_fold.h); there is no SIMD table or
// runtime dispatch, so every run reports the scalar kind. Kept so manifests
// written before and after the fold carry the same field.
#pragma once

#include <cstdint>

namespace lockdown::query {

enum class DispatchKind : std::uint8_t { kScalar = 0, kSimd = 1 };

[[nodiscard]] inline const char* ToString(DispatchKind kind) noexcept {
  return kind == DispatchKind::kSimd ? "simd" : "scalar";
}

/// The kernel kind the figures run on.
[[nodiscard]] inline DispatchKind ActiveKind() noexcept {
  return DispatchKind::kScalar;
}

}  // namespace lockdown::query
