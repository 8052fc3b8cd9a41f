// FigureFold: the one per-device pass behind both figure engines. Every
// figure in the paper is a per-device aggregate over the flow log, so the
// fold visits each device's flows once, in the dataset's CSR order
// (device-clustered, time-sorted per device), and splits each device's
// contribution in three:
//   * integer aggregates go to FoldTotals. Integer sums are exact in any
//     order, so both engines read the same numbers;
//   * fractional hour volumes go to a (day x 24 hours) diurnal grid per
//     chunk, summed in chunk order after the pass. The fold owns the grid,
//     so both engines read the same bits;
//   * the values behind every median and box plot (Figures 2, 3, 4, 6, 7) go
//     to a FoldPolicy as (slot, value) offers. The exact policy
//     (LockdownStudy) keeps them all, joined in ascending device order, the
//     batch summation order. The sketched policy (StreamingStudy,
//     src/stream) feeds reservoirs, HyperLogLogs and a count-min sketch
//     under a memory budget.
// Each figure query is written once, over the totals, the grid and the
// policy. Chunk boundaries depend only on the device count
// (util/thread_pool.h) and every merge is integral or in chunk order, so both
// policies are bit-identical at any thread count.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/study.h"
#include "util/mutex.h"

namespace lockdown::core {

inline constexpr std::size_t kNumMonths = 4;      // Figures 6/7: Feb..May
inline constexpr std::size_t kNumCategories = 7;  // CategoryVolumeRow columns

/// The median and box-plot inputs share one slot space, family by family.
enum class ValueFamily : std::uint8_t {
  kFig2,  ///< day x report class: a device's bytes that day
  kFig3,  ///< week x hour-of-week: a device's spread volume in that hour
  kFig4,  ///< day x population group: a device's non-Zoom bytes that day
  kFig6,  ///< app x month x {dom, intl}: a device's social-media hours
  kFig7,  ///< month x {dom, intl} x {bytes, conns}: a device's Steam usage
};
inline constexpr std::size_t kNumValueFamilies = 5;
[[nodiscard]] std::size_t FamilySize(ValueFamily family) noexcept;
/// Slot of `index` within `family`.
[[nodiscard]] std::size_t SlotOf(ValueFamily family, std::size_t index) noexcept;
[[nodiscard]] std::size_t NumValueSlots() noexcept;

/// One device's contribution, as the policies see it.
struct DeviceFold {
  /// (day, bytes) for every study day with a flow, ascending.
  std::vector<std::pair<int, std::uint64_t>> day_bytes;
  /// (slot, value) offers to the value families.
  std::vector<std::pair<std::uint32_t, double>> values;
  /// Headline distinct sites of a post-shutdown device: (period 0 Feb /
  /// 1 Apr / 2 May, device << 32 | domain), each pair once.
  std::vector<std::pair<std::uint8_t, std::uint64_t>> site_keys;
};

/// The integer aggregates, identical under both policies.
struct FoldTotals {
  std::vector<std::uint64_t> active;       ///< day x class: devices with a flow
  std::vector<std::uint64_t> day_bytes;    ///< day x class: bytes
  std::vector<std::uint64_t> day_devices;  ///< day x class: devices with bytes
  std::vector<std::uint64_t> zoom;         ///< day: post-shutdown Zoom bytes
  std::vector<std::uint64_t> gameplay;     ///< day: Fig. 8 Switch gameplay bytes
  std::vector<std::uint64_t> category;     ///< day x kNumCategories
  LockdownStudy::SwitchCounts switches;
  std::uint64_t feb_bytes = 0;      ///< post-shutdown users, February
  std::uint64_t apr_may_bytes = 0;  ///< post-shutdown users, from April 1
  std::array<std::uint64_t, 3> sites{};  ///< distinct (device, domain) pairs

  FoldTotals();
  void Merge(const FoldTotals& other);
  [[nodiscard]] std::size_t MemoryBytes() const noexcept;
};

/// What an engine keeps of each device beyond the totals.
class FoldPolicy {
 public:
  FoldPolicy() = default;
  FoldPolicy(const FoldPolicy&) = delete;
  FoldPolicy& operator=(const FoldPolicy&) = delete;
  virtual ~FoldPolicy() = default;
  /// Called once before the pass with the fold's chunk count.
  virtual void BeginPass(std::size_t num_chunks) = 0;
  /// One device's contribution. Calls for one chunk come from one thread, in
  /// ascending device order; calls for different chunks run concurrently.
  virtual void AddDevice(std::size_t chunk, DeviceIndex dev, const DeviceFold& d) = 0;
  virtual void EndPass() = 0;

  /// Figure 1: devices active on a day in a class (cell = day * 4 + class).
  /// By default the exact count.
  [[nodiscard]] virtual double ActiveDevices(const FoldTotals& totals,
                                             std::size_t cell) const {
    return static_cast<double>(totals.active[cell]);
  }
  /// Headline: distinct (device, domain) pairs in a period; by default exact.
  [[nodiscard]] virtual double DistinctSites(const FoldTotals& totals,
                                             std::size_t period) const {
    return static_cast<double>(totals.sites[period]);
  }
  /// The values offered to `slot`, in ascending device order.
  [[nodiscard]] virtual std::vector<double> Values(std::size_t slot) const = 0;
};

class FigureFold {
 public:
  /// Runs the pass over every device of `ctx`'s dataset on `pool`.
  FigureFold(const StudyContext& ctx, util::ThreadPool& pool,
             std::unique_ptr<FoldPolicy> policy);

  /// The fold with the exact policy: every value kept, medians by sort.
  [[nodiscard]] static std::unique_ptr<FigureFold> Exact(const StudyContext& ctx,
                                                         util::ThreadPool& pool);

  /// Figure 1 rows; `Row` is either engine's ActiveDevicesRow.
  template <typename Row>
  [[nodiscard]] std::vector<Row> ActiveDevicesPerDay() const {
    std::vector<Row> rows(static_cast<std::size_t>(util::StudyCalendar::NumDays()));
    for (std::size_t day = 0; day < rows.size(); ++day) {
      Row& row = rows[day];
      row.day = static_cast<int>(day);
      for (std::size_t c = 0; c < row.by_class.size(); ++c) {
        row.by_class[c] = static_cast<decltype(row.total)>(
            policy_->ActiveDevices(totals_, day * kNumReportClasses + c));
        row.total += row.by_class[c];
      }
    }
    return rows;
  }
  [[nodiscard]] std::vector<LockdownStudy::BytesPerDeviceRow> BytesPerDevicePerDay() const;
  [[nodiscard]] LockdownStudy::HourOfWeekResult HourOfWeekVolume() const;
  [[nodiscard]] std::vector<LockdownStudy::Fig4Row> MedianBytesExcludingZoom() const;
  [[nodiscard]] analysis::DailySeries ZoomDailyBytes() const {
    return SeriesOf(totals_.zoom);
  }
  /// Empty boxes for months outside February..May.
  [[nodiscard]] LockdownStudy::SocialBox SocialDurations(apps::SocialApp app,
                                                         int month) const;
  [[nodiscard]] LockdownStudy::SteamBox SteamUsage(int month) const;
  [[nodiscard]] analysis::DailySeries SwitchGameplayDaily(int ma_window) const {
    return SeriesOf(totals_.gameplay).MovingAverage(ma_window);
  }
  [[nodiscard]] LockdownStudy::SwitchCounts CountSwitches() const {
    return totals_.switches;
  }
  [[nodiscard]] std::vector<LockdownStudy::CategoryVolumeRow> CategoryVolumes() const;
  /// Study days only: the range is clamped to [0, NumDays() - 1].
  [[nodiscard]] LockdownStudy::DiurnalShapeResult DiurnalShape(int first_day,
                                                               int last_day) const;
  [[nodiscard]] LockdownStudy::Headline HeadlineStats() const;

  /// Bytes of the totals, the diurnal grid and the pass's per-chunk grids.
  [[nodiscard]] std::size_t MemoryBytes() const noexcept;

 private:
  [[nodiscard]] static analysis::DailySeries SeriesOf(
      const std::vector<std::uint64_t>& daily);
  /// `site_seen` is the chunk's per-domain scratch: the last (device,
  /// period) ticket that counted each domain as a site.
  void FoldDevice(DeviceIndex dev, DeviceFold& out, FoldTotals& totals,
                  std::vector<double>& diurnal,
                  std::vector<std::uint64_t>& site_seen) const;
  [[nodiscard]] double Median(ValueFamily family, std::size_t index) const;
  [[nodiscard]] analysis::BoxStats Box(ValueFamily family, std::size_t index) const;

  const StudyContext& ctx_;
  std::unique_ptr<FoldPolicy> policy_;
  /// Chunks merge their totals under the mutex as they finish; after the
  /// pass the fold is immutable and queries read them lock-free.
  util::Mutex mutex_;
  FoldTotals totals_;
  std::vector<double> diurnal_;  ///< day x 24, chunk grids in chunk order
  std::size_t chunk_grid_bytes_ = 0;
};

}  // namespace lockdown::core
