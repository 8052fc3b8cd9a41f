#include "stream/streaming_study.h"

#include <limits>
#include <span>

#include "core/figure_fold.h"
#include "obs/obs.h"
#include "sketch/count_min.h"
#include "sketch/hll.h"
#include "sketch/reservoir.h"
#include "util/mutex.h"

namespace lockdown::stream {

using core::DeviceIndex;
using core::FoldTotals;
using core::kNumReportClasses;
using util::StudyCalendar;

namespace {

// Every sketch instance hashes under its own stream id so no two share hash
// functions; bases are spaced far beyond any per-figure index.
constexpr std::uint64_t kFig1StreamBase = 0;
constexpr std::uint64_t kSiteStreamBase = 1000;
constexpr std::uint64_t kCmsStream = 8000;
// Reservoir stream bases, in core::ValueFamily order (Figures 2, 3, 4, 6, 7).
constexpr std::array<std::uint64_t, core::kNumValueFamilies> kValueStreamBase = {
    2000, 3000, 4000, 6000, 7000};

}  // namespace

// The sketched policy: each device's contribution drains into HLLs,
// reservoirs and a count-min sketch as the device completes. The drain
// coalesces the device's (domain, bytes) from its flows and hashes every
// item first, lock-free, into its chunk's scratch (the hashes read only the
// immutable sketch keys), then takes the mutex only for the register maxes,
// bottom-k offers and cell adds.
// The sketch fields carry no GUARDED_BY: after the pass the engine is
// immutable and every figure query reads them lock-free from the
// construction thread — a phase discipline the static analysis cannot
// express (DESIGN.md §11).
class StreamingStudy::Sketches final : public core::FoldPolicy {
 public:
  Sketches(const core::StudyContext& ctx, const MemoryPlan& plan,
           std::uint64_t seed)
      : domain_bytes(plan.cms_width, plan.cms_depth, seed, kCmsStream), ctx_(ctx) {
    for (std::size_t i = 0; i < site_base + 3; ++i) {
      hlls.push_back(sketch::HyperLogLog::Seeded(
          plan.hll_precision, seed,
          i < site_base ? kFig1StreamBase + i : kSiteStreamBase + i - site_base));
    }
    reservoirs.reserve(core::NumValueSlots());
    for (std::size_t f = 0; f < core::kNumValueFamilies; ++f) {
      for (std::size_t i = 0; i < core::FamilySize(static_cast<core::ValueFamily>(f));
           ++i) {
        reservoirs.push_back(sketch::ReservoirSample::Seeded(
            plan.reservoir_capacity, seed, kValueStreamBase[f] + i));
      }
    }
  }

  void BeginPass(std::size_t num_chunks) override {
    chunk_hashes_.assign(num_chunks, {});
  }

  void AddDevice(std::size_t chunk, DeviceIndex dev,
                 const core::DeviceFold& d) override {
    const auto rc = static_cast<std::size_t>(ctx_.report_class(dev));
    const auto dkey = static_cast<std::uint64_t>(dev);
    const auto day_hll = [&](const std::pair<int, std::uint64_t>& run) -> auto& {
      return hlls[static_cast<std::size_t>(run.first) * kNumReportClasses + rc];
    };
    DeviceHashes& h = chunk_hashes_[chunk];
    h.Clear();
    h.CoalesceDomains(ctx_.dataset(), dev);
    for (const auto& run : d.day_bytes) h.days.push_back(day_hll(run).Hash(dkey));
    for (const auto& [slot, value] : d.values) {
      h.priorities.push_back(reservoirs[slot].Priority(dkey));
    }
    for (const auto& [period, key] : d.site_keys) {
      h.sites.push_back(hlls[site_base + period].Hash(key));
    }
    const std::size_t depth = domain_bytes.depth();
    h.cms_cells.resize(h.domain_adds.size() * depth);
    for (std::size_t i = 0; i < h.domain_adds.size(); ++i) {
      domain_bytes.Cells(h.domain_adds[i].first,
                         std::span(h.cms_cells).subspan(i * depth, depth));
    }

    const util::MutexLock lock(mutex_);
    for (std::size_t i = 0; i < d.day_bytes.size(); ++i) {
      day_hll(d.day_bytes[i]).AddHash(h.days[i]);
    }
    for (std::size_t i = 0; i < d.values.size(); ++i) {
      const auto& [slot, value] = d.values[i];
      reservoirs[slot].AddHashed(h.priorities[i], dkey, value);
    }
    for (std::size_t i = 0; i < d.site_keys.size(); ++i) {
      hlls[site_base + d.site_keys[i].first].AddHash(h.sites[i]);
    }
    for (std::size_t i = 0; i < h.domain_adds.size(); ++i) {
      domain_bytes.AddCells(std::span(h.cms_cells).subspan(i * depth, depth),
                            h.domain_adds[i].second);
    }
  }

  void EndPass() override {
    hash_scratch_high_water = 0;
    for (const DeviceHashes& h : chunk_hashes_) hash_scratch_high_water += h.MemoryBytes();
    chunk_hashes_.clear();
  }

  [[nodiscard]] double ActiveDevices(const FoldTotals&,
                                     std::size_t cell) const override {
    return hlls[cell].Estimate();
  }
  [[nodiscard]] double DistinctSites(const FoldTotals&,
                                     std::size_t period) const override {
    return hlls[site_base + period].Estimate();
  }
  [[nodiscard]] std::vector<double> Values(std::size_t slot) const override {
    return reservoirs[slot].Values();
  }
  [[nodiscard]] std::size_t MemoryBytes() const noexcept {
    std::size_t total = domain_bytes.MemoryBytes() + hash_scratch_high_water;
    for (const sketch::HyperLogLog& hll : hlls) total += hll.MemoryBytes();
    for (const sketch::ReservoirSample& res : reservoirs) total += res.MemoryBytes();
    return total;
  }

  /// Publishes post-pass sketch health (fill ratios, budget headroom,
  /// overflow pressure) to the obs registry.
  void RecordObsGauges(double state, double budget) const {
    obs::GetGauge("stream/state_bytes", "bytes").Set(state);
    obs::GetGauge("stream/budget_bytes", "bytes").Set(budget);
    obs::GetGauge("stream/budget_headroom_bytes", "bytes")
        .Set(budget > state ? budget - state : 0.0);
    double hll_fill = 0.0;
    for (const sketch::HyperLogLog& h : hlls) hll_fill += h.FillRatio();
    obs::GetGauge("sketch/hll_fill_ratio", "ratio")
        .Set(hll_fill / static_cast<double>(hlls.size()));
    double res_fill = 0.0;
    std::uint64_t overflow_offers = 0;
    for (const sketch::ReservoirSample& r : reservoirs) {
      res_fill += r.FillRatio();
      if (r.seen() > r.capacity()) overflow_offers += r.seen() - r.capacity();
    }
    obs::GetGauge("sketch/reservoir_fill_ratio", "ratio")
        .Set(res_fill / static_cast<double>(reservoirs.size()));
    obs::GetCounter("sketch/reservoir_overflow_offers", "offers").Add(overflow_offers);
    obs::GetGauge("sketch/cms_fill_ratio", "ratio").Set(domain_bytes.FillRatio());
  }

  /// Figure 1's day x class estimators, then the Feb, Apr, May site ones.
  const std::size_t site_base =
      static_cast<std::size_t>(StudyCalendar::NumDays()) * kNumReportClasses;
  std::vector<sketch::HyperLogLog> hlls;
  std::vector<sketch::ReservoirSample> reservoirs;  ///< one per value slot
  sketch::CountMinSketch domain_bytes;
  std::size_t hash_scratch_high_water = 0;  ///< every chunk's DeviceHashes

 private:
  /// One device's sketch input and hashes, the hashes parallel to its
  /// DeviceFold lists and to domain_adds. Each chunk reuses one, so its
  /// capacity is the chunk's largest device.
  struct DeviceHashes {
    static constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();

    std::vector<std::uint64_t> days;        ///< Figure 1 HLL hash per day run
    std::vector<std::uint64_t> priorities;  ///< reservoir priority per value
    std::vector<std::uint64_t> sites;       ///< site HLL hash per site key
    /// (domain, bytes): one entry per distinct domain the device reached, its
    /// bytes summed over all of the device's flows to it, in first-flow order.
    std::vector<std::pair<std::uint32_t, std::uint64_t>> domain_adds;
    std::vector<std::size_t> cms_cells;     ///< depth cells per domain add
    /// Per domain, its entry in domain_adds, or kNoSlot between devices.
    std::vector<std::uint32_t> domain_slot;

    void Clear() noexcept {
      days.clear();
      priorities.clear();
      sites.clear();
      domain_adds.clear();
      cms_cells.clear();
    }
    void CoalesceDomains(const core::Dataset& ds, DeviceIndex dev) {
      if (domain_slot.empty()) domain_slot.assign(ds.num_domains(), kNoSlot);
      for (const core::Flow& f : ds.FlowsOfDevice(dev)) {
        if (f.domain == core::kNoDomain) continue;
        std::uint32_t& slot = domain_slot[f.domain];
        if (slot == kNoSlot) {
          slot = static_cast<std::uint32_t>(domain_adds.size());
          domain_adds.emplace_back(f.domain, f.total_bytes());
        } else {
          domain_adds[slot].second += f.total_bytes();
        }
      }
      for (const auto& add : domain_adds) domain_slot[add.first] = kNoSlot;
    }
    [[nodiscard]] std::size_t MemoryBytes() const noexcept {
      return sizeof(*this) +
             (days.capacity() + priorities.capacity() + sites.capacity()) *
                 sizeof(std::uint64_t) +
             domain_adds.capacity() * sizeof(domain_adds[0]) +
             cms_cells.capacity() * sizeof(std::size_t) +
             domain_slot.capacity() * sizeof(std::uint32_t);
    }
  };

  const core::StudyContext& ctx_;
  util::Mutex mutex_;
  std::vector<DeviceHashes> chunk_hashes_;  ///< one per fold chunk
};

StreamingStudy::StreamingStudy(const core::Dataset& dataset,
                               const world::ServiceCatalog& catalog,
                               const StreamingOptions& options)
    : pool_(util::ResolveThreadCount(options.threads)),
      ctx_(dataset, catalog, pool_),
      plan_(MemoryPlan::ForBudget(options.memory_budget_bytes)) {
  auto sketches = std::make_unique<Sketches>(ctx_, plan_, options.sketch_seed);
  sketches_ = sketches.get();
  OBS_SPAN("stream/fold");
  fold_ = std::make_unique<core::FigureFold>(ctx_, pool_, std::move(sketches));
  if (obs::MetricsEnabled()) {
    sketches_->RecordObsGauges(static_cast<double>(TrackedStateBytes()),
                               static_cast<double>(plan_.budget_bytes));
  }
}

StreamingStudy::~StreamingStudy() = default;

std::vector<StreamingStudy::ActiveDevicesRow>
StreamingStudy::ActiveDevicesPerDay() const {
  OBS_SPAN("stream/fig1_active_devices");
  return fold_->ActiveDevicesPerDay<ActiveDevicesRow>();
}

std::vector<core::LockdownStudy::BytesPerDeviceRow>
StreamingStudy::BytesPerDevicePerDay() const {
  OBS_SPAN("stream/fig2_bytes_per_device");
  return fold_->BytesPerDevicePerDay();
}

core::LockdownStudy::HourOfWeekResult StreamingStudy::HourOfWeekVolume() const {
  OBS_SPAN("stream/fig3_hour_of_week");
  return fold_->HourOfWeekVolume();
}

std::vector<core::LockdownStudy::Fig4Row>
StreamingStudy::MedianBytesExcludingZoom() const {
  OBS_SPAN("stream/fig4_population_split");
  return fold_->MedianBytesExcludingZoom();
}

analysis::DailySeries StreamingStudy::ZoomDailyBytes() const {
  OBS_SPAN("stream/fig5_zoom_daily");
  return fold_->ZoomDailyBytes();
}

core::LockdownStudy::SocialBox StreamingStudy::SocialDurations(
    apps::SocialApp app, int month) const {
  OBS_SPAN("stream/fig6_social");
  return fold_->SocialDurations(app, month);
}

core::LockdownStudy::SteamBox StreamingStudy::SteamUsage(int month) const {
  OBS_SPAN("stream/fig7_steam");
  return fold_->SteamUsage(month);
}

analysis::DailySeries StreamingStudy::SwitchGameplayDaily(int ma_window) const {
  OBS_SPAN("stream/fig8_switch_daily");
  return fold_->SwitchGameplayDaily(ma_window);
}

core::LockdownStudy::SwitchCounts StreamingStudy::CountSwitches() const {
  OBS_SPAN("stream/fig8_switch_counts");
  return fold_->CountSwitches();
}

std::vector<core::LockdownStudy::CategoryVolumeRow>
StreamingStudy::CategoryVolumes() const {
  OBS_SPAN("stream/categories");
  return fold_->CategoryVolumes();
}

core::LockdownStudy::DiurnalShapeResult StreamingStudy::DiurnalShape(
    int first_day, int last_day) const {
  OBS_SPAN("stream/diurnal");
  return fold_->DiurnalShape(first_day, last_day);
}

core::LockdownStudy::Headline StreamingStudy::HeadlineStats() const {
  OBS_SPAN("stream/headline");
  return fold_->HeadlineStats();
}

std::uint64_t StreamingStudy::EstimateDomainBytes(core::DomainId domain) const {
  return sketches_->domain_bytes.Estimate(domain);
}

StreamingStudy::AccuracyReport StreamingStudy::Accuracy() const {
  AccuracyReport report;
  report.hll_precision = plan_.hll_precision;
  report.hll_relative_standard_error = plan_.HllRelativeStandardError();
  report.cms_epsilon = sketches_->domain_bytes.epsilon();
  report.cms_delta = sketches_->domain_bytes.delta();
  report.cms_total_bytes = sketches_->domain_bytes.total();
  report.reservoir_capacity = plan_.reservoir_capacity;
  for (const sketch::ReservoirSample& res : sketches_->reservoirs) {
    report.reservoirs_exact = report.reservoirs_exact && res.exact();
  }
  report.state_bytes = TrackedStateBytes();
  report.budget_bytes = plan_.budget_bytes;
  return report;
}

std::size_t StreamingStudy::TrackedStateBytes() const noexcept {
  return sketches_->MemoryBytes() + fold_->MemoryBytes();
}

}  // namespace lockdown::stream
