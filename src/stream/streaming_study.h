// StreamingStudy: the paper's figures from one bounded-memory pass.
//
// The engine runs the shared per-device fold (core/figure_fold.h) over the
// flows (TSV-ingested or mmap'd LDS, in the dataset's CSR order:
// device-clustered, time-sorted per device) with the sketched policy: each
// device's contribution is drained into sketch state sized by an explicit
// byte budget (stream/budget.h), so memory does not grow with the flow log.
//
//   Figure 1  active devices/day/class   487 HyperLogLogs (121 days x 4 + 3
//                                        distinct-site estimators)
//   Figure 2  bytes/device/day           exact sum+count grids (means) + 484
//                                        reservoirs (medians)
//   Figure 3  hour-of-week medians       672 reservoirs (4 weeks x 168 hours)
//   Figure 4  non-Zoom medians           484 reservoirs
//   Figure 6  social-media durations     24 reservoirs (3 apps x 4 months x 2)
//   Figure 7  Steam usage                16 reservoirs (4 months x 2 x 2)
//   Figures 5, 8, categories, headline   exact integer totals (FoldTotals)
//   diurnal                              the fold's (day, hour) grid
//   per-domain byte volume               one count-min sketch
//
// Accuracy taxonomy (proved by tests/stream/differential_test.cc):
//   * exact, bit-identical to batch: every integer aggregate the fold keeps
//     in FoldTotals (Figure 2 means, 5, 8, categories, headline byte sums)
//     and the diurnal shape, which both engines read from the fold's grid;
//   * exact while the population fits the reservoir capacity: the median/
//     box figures (2, 3, 4, 6, 7). Reservoirs are bottom-k by hashed
//     priority, so a non-evicting reservoir IS the population, emitted in
//     ascending device order — the batch summation order;
//   * within published bounds otherwise: HLL cardinalities carry a
//     1.04/sqrt(2^p) relative standard error; count-min point queries never
//     undercount and overshoot by more than epsilon*total with probability
//     at most delta; sampled reservoir quantiles converge as k grows.
//
// Determinism: each device drains into the shared sketches as it completes.
// Its count-min input and its hashes (HLL items, reservoir priorities,
// count-min cells) are computed lock-free into per-chunk scratch; only the
// updates run under a mutex, and they are order-independent (register max,
// bottom-k with a total order, integer adds). The fold sums its fractional
// diurnal grid per chunk and folds the chunks in chunk order. Output is
// bit-identical at any thread count, for the same seed and budget.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/stats.h"
#include "analysis/timeseries.h"
#include "core/study.h"
#include "core/study_context.h"
#include "stream/budget.h"
#include "util/thread_pool.h"

namespace lockdown::core {
class FigureFold;
}

namespace lockdown::stream {

struct StreamingOptions {
  /// Hard byte budget for the engine's sketch state; the plan derived from
  /// it is queryable via plan(). Throws at construction if below the floor.
  std::size_t memory_budget_bytes = std::size_t{32} << 20;
  /// Seed for all sketch hashing (HLL, count-min rows, reservoir
  /// priorities). Independent of the simulation seed.
  std::uint64_t sketch_seed = 2020;
  /// 0 = LOCKDOWN_THREADS / hardware (util::ResolveThreadCount).
  int threads = 0;
};

class StreamingStudy {
 public:
  /// Runs the census (shared StudyContext) and the single streaming pass.
  /// After construction every figure query is a cheap read of sketch state.
  StreamingStudy(const core::Dataset& dataset,
                 const world::ServiceCatalog& catalog,
                 const StreamingOptions& options = {});
  ~StreamingStudy();

  // --- Figure 1 (estimated: HLL per day x class) -----------------------------
  struct ActiveDevicesRow {
    int day = 0;
    std::array<double, core::kNumReportClasses> by_class{};
    double total = 0.0;  ///< sum of the class estimates
  };
  [[nodiscard]] std::vector<ActiveDevicesRow> ActiveDevicesPerDay() const;

  // --- Figure 2 (means exact; medians exact while reservoirs hold all) -------
  [[nodiscard]] std::vector<core::LockdownStudy::BytesPerDeviceRow>
  BytesPerDevicePerDay() const;

  // --- Figure 3 ---------------------------------------------------------------
  [[nodiscard]] core::LockdownStudy::HourOfWeekResult HourOfWeekVolume() const;

  // --- Figure 4 ---------------------------------------------------------------
  [[nodiscard]] std::vector<core::LockdownStudy::Fig4Row>
  MedianBytesExcludingZoom() const;

  // --- Figure 5 (exact) -------------------------------------------------------
  [[nodiscard]] analysis::DailySeries ZoomDailyBytes() const;

  // --- Figure 6 ---------------------------------------------------------------
  [[nodiscard]] core::LockdownStudy::SocialBox SocialDurations(
      apps::SocialApp app, int month) const;

  // --- Figure 7 ---------------------------------------------------------------
  [[nodiscard]] core::LockdownStudy::SteamBox SteamUsage(int month) const;

  // --- Figure 8 (exact) -------------------------------------------------------
  [[nodiscard]] analysis::DailySeries SwitchGameplayDaily(int ma_window = 3) const;
  [[nodiscard]] core::LockdownStudy::SwitchCounts CountSwitches() const;

  // --- Category volumes (exact) ----------------------------------------------
  [[nodiscard]] std::vector<core::LockdownStudy::CategoryVolumeRow>
  CategoryVolumes() const;

  // --- Diurnal shape (exact: bit-identical to batch; study days only) --------
  [[nodiscard]] core::LockdownStudy::DiurnalShapeResult DiurnalShape(
      int first_day, int last_day) const;

  // --- Headline (byte sums exact; device counts HLL-estimated) ----------------
  [[nodiscard]] core::LockdownStudy::Headline HeadlineStats() const;

  // --- Per-domain byte volume (count-min; never undercounts) -----------------
  [[nodiscard]] std::uint64_t EstimateDomainBytes(core::DomainId domain) const;

  // --- Accuracy & accounting ---------------------------------------------------
  struct AccuracyReport {
    int hll_precision = 0;
    double hll_relative_standard_error = 0.0;
    double cms_epsilon = 0.0;
    double cms_delta = 0.0;
    std::uint64_t cms_total_bytes = 0;  ///< total weight the CMS absorbed
    std::size_t reservoir_capacity = 0;
    /// True when no reservoir ever evicted: every sampled figure is exact.
    bool reservoirs_exact = true;
    std::size_t state_bytes = 0;   ///< TrackedStateBytes() at report time
    std::size_t budget_bytes = 0;
  };
  [[nodiscard]] AccuracyReport Accuracy() const;

  /// Bytes of engine figure-state: all sketches (actual allocation), the
  /// fold's totals and diurnal grid, and the high-water of the per-chunk
  /// diurnal grids and sketch scratch. The dataset itself (mmap'd or in-memory) and the
  /// O(devices+domains) census are excluded — the budget governs what the
  /// *streaming pass* accretes.
  [[nodiscard]] std::size_t TrackedStateBytes() const noexcept;

  [[nodiscard]] const MemoryPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] const core::StudyContext& context() const noexcept { return ctx_; }

 private:
  class Sketches;

  util::ThreadPool pool_;
  core::StudyContext ctx_;
  MemoryPlan plan_;
  const Sketches* sketches_ = nullptr;  ///< the fold's policy, owned by fold_
  std::unique_ptr<const core::FigureFold> fold_;
};

}  // namespace lockdown::stream
