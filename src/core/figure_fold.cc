#include "core/figure_fold.h"

// This TU is the figure boundary of DESIGN §5: the fold spreads fractional
// hour volumes per device into its chunk's diurnal grid, and the chunk grids
// are summed in chunk order. Per-slot FP with a single writer per slot is
// deterministic, so the integer-only rule does not apply here; every
// cross-device total the fold merges (FoldTotals) stays integral.
// lockdown-lint: disable-file(LD001)

#include <algorithm>
#include <cmath>
#include <limits>

#include "apps/sessionizer.h"
#include "world/catalog.h"

namespace lockdown::core {

using util::StudyCalendar;
using util::Timestamp;

namespace {

constexpr auto kHours = static_cast<std::size_t>(analysis::HourOfWeekSeries::kHours);

std::size_t NumDays() { return static_cast<std::size_t>(StudyCalendar::NumDays()); }
std::size_t DiurnalBins() { return NumDays() * 24; }

// The calendar boundaries the figures use.
struct CalendarDays {
  int feb_end = StudyCalendar::DayIndex(util::CivilDate{2020, 3, 1});
  int apr_start = StudyCalendar::DayIndex(util::CivilDate{2020, 4, 1});
  int may_start = StudyCalendar::DayIndex(util::CivilDate{2020, 5, 1});
  int num_days = StudyCalendar::NumDays();
  std::array<Timestamp, 4> week_anchors{};  // Figure 3

  CalendarDays() {
    for (std::size_t w = 0; w < week_anchors.size(); ++w) {
      week_anchors[w] = util::TimestampOf(StudyCalendar::kFig3Weeks[w]);
    }
  }

  /// Figures 6/7 month index of a study day (0 = February); the study window
  /// is exactly February..May, so later days have none (-1).
  [[nodiscard]] int MonthOf(int day) const noexcept {
    if (day >= num_days) return -1;
    return day < feb_end ? 0 : day < apr_start ? 1 : day < may_start ? 2 : 3;
  }
};

const CalendarDays& Cal() {
  static const CalendarDays cal;
  return cal;
}

// At least the device grain, but never more than ~32 chunks, so per-chunk
// state (the diurnal grids, the sketched policy's scratch) stays a bounded
// fraction of any realistic memory budget.
std::size_t FoldGrain(std::size_t num_devices) {
  return std::max(kDeviceGrain, (num_devices + 31) / 32);
}

// Appends `v` to the (day, bytes) run list, extending the last run when the
// day repeats: per-device flows are time-sorted, so days never decrease.
void AccumRun(std::vector<std::pair<int, std::uint64_t>>& runs, int day,
              std::uint64_t v) {
  if (!runs.empty() && runs.back().first == day) {
    runs.back().second += v;
  } else {
    runs.emplace_back(day, v);
  }
}

// The CategoryVolumeRow column of each world::Category, in enum order:
// education 0, video conferencing 1, streaming 2, social media 3, gaming 4,
// messaging 5, other 6.
constexpr std::array<std::uint8_t, 16> kCategoryColumn = {
    1, 3, 5, 2, 2, 4, 4, 0,   // conferencing .. education
    6, 6, 6, 6, 0, 6, 6, 6};  // web, news, shopping, search, email/cloud, ..
static_assert(static_cast<std::size_t>(world::Category::kExcluded) + 1 ==
              kCategoryColumn.size());

std::size_t CategoryIndexOf(const world::ServiceCatalog& catalog,
                            net::Ipv4Address ip) {
  const auto svc = catalog.FindByIp(ip);
  return svc ? kCategoryColumn[static_cast<std::size_t>(catalog.Get(*svc).category)]
             : 6;
}

// FoldTotals' per-day grids, for the field-wise operations.
constexpr std::array kDailyGrids = {
    &FoldTotals::active, &FoldTotals::day_bytes, &FoldTotals::day_devices,
    &FoldTotals::zoom,   &FoldTotals::gameplay,  &FoldTotals::category};

// The exact policy: every offered value kept, per chunk during the pass and
// joined slot by slot after it.
class ExactPolicy final : public FoldPolicy {
 public:
  void BeginPass(std::size_t num_chunks) override { chunks_.resize(num_chunks); }

  void AddDevice(std::size_t chunk, DeviceIndex, const DeviceFold& d) override {
    chunks_[chunk].insert(chunks_[chunk].end(), d.values.begin(), d.values.end());
  }

  // A stable counting sort by slot over the chunks in chunk order: within
  // each slot, values land in ascending device order.
  void EndPass() override {
    offsets_.assign(NumValueSlots() + 1, 0);
    for (const auto& chunk : chunks_) {
      for (const auto& offer : chunk) ++offsets_[offer.first + 1];
    }
    for (std::size_t i = 1; i < offsets_.size(); ++i) offsets_[i] += offsets_[i - 1];
    values_.resize(offsets_.back());
    std::vector<std::size_t> next(offsets_.begin(), offsets_.end() - 1);
    for (auto& chunk : chunks_) {
      for (const auto& [slot, v] : chunk) values_[next[slot]++] = v;
      chunk = {};
    }
  }

  [[nodiscard]] std::vector<double> Values(std::size_t slot) const override {
    return {values_.begin() + static_cast<std::ptrdiff_t>(offsets_[slot]),
            values_.begin() + static_cast<std::ptrdiff_t>(offsets_[slot + 1])};
  }

 private:
  std::vector<std::vector<std::pair<std::uint32_t, double>>> chunks_;
  std::vector<std::size_t> offsets_;  ///< per slot, into values_
  std::vector<double> values_;
};

}  // namespace

// First slot of each value family; the last entry is the slot count.
const std::array<std::size_t, kNumValueFamilies + 1>& SlotBases() {
  static const auto bases = [] {
    const std::array<std::size_t, kNumValueFamilies> sizes = {
        NumDays() * 4, 4 * kHours, NumDays() * 4, 3 * kNumMonths * 2,
        kNumMonths * 2 * 2};
    std::array<std::size_t, kNumValueFamilies + 1> out{};
    for (std::size_t f = 0; f < sizes.size(); ++f) out[f + 1] = out[f] + sizes[f];
    return out;
  }();
  return bases;
}

std::size_t FamilySize(ValueFamily family) noexcept {
  const auto f = static_cast<std::size_t>(family);
  return SlotBases()[f + 1] - SlotBases()[f];
}

std::size_t SlotOf(ValueFamily family, std::size_t index) noexcept {
  return SlotBases()[static_cast<std::size_t>(family)] + index;
}

std::size_t NumValueSlots() noexcept { return SlotBases().back(); }

FoldTotals::FoldTotals()
    : active(NumDays() * kNumReportClasses, 0),
      day_bytes(active),
      day_devices(active),
      zoom(NumDays(), 0),
      gameplay(zoom),
      category(NumDays() * kNumCategories, 0) {}

void FoldTotals::Merge(const FoldTotals& other) {
  for (const auto grid : kDailyGrids) {
    for (std::size_t i = 0; i < (this->*grid).size(); ++i) {
      (this->*grid)[i] += (other.*grid)[i];
    }
  }
  switches.active_february += other.switches.active_february;
  switches.active_post_shutdown += other.switches.active_post_shutdown;
  switches.new_in_april_may += other.switches.new_in_april_may;
  feb_bytes += other.feb_bytes;
  apr_may_bytes += other.apr_may_bytes;
  for (std::size_t p = 0; p < sites.size(); ++p) sites[p] += other.sites[p];
}

std::size_t FoldTotals::MemoryBytes() const noexcept {
  std::size_t bytes = sizeof(*this);
  for (const auto grid : kDailyGrids) {
    bytes += (this->*grid).size() * sizeof(std::uint64_t);
  }
  return bytes;
}

FigureFold::FigureFold(const StudyContext& ctx, util::ThreadPool& pool,
                       std::unique_ptr<FoldPolicy> policy)
    : ctx_(ctx), policy_(std::move(policy)) {
  const Dataset& ds = ctx.dataset();
  const std::size_t n = ds.num_devices();
  const std::size_t grain = FoldGrain(n);
  const std::size_t num_chunks = util::ThreadPool::NumChunks(n, grain);
  std::vector<std::vector<double>> chunk_diurnal(num_chunks,
                                                 std::vector<double>(DiurnalBins(), 0.0));
  chunk_grid_bytes_ =
      num_chunks * (DiurnalBins() * sizeof(double) + sizeof(std::vector<double>));
  policy_->BeginPass(num_chunks);
  pool.ParallelFor(n, grain, [&](std::size_t chunk, std::size_t begin,
                                 std::size_t end) {
    FoldTotals local;
    std::vector<std::uint64_t> site_seen(ds.num_domains(), 0);
    for (std::size_t dev = begin; dev < end; ++dev) {
      const auto di = static_cast<DeviceIndex>(dev);
      if (ds.FlowsOfDevice(di).empty()) continue;
      DeviceFold out;
      FoldDevice(di, out, local, chunk_diurnal[chunk], site_seen);
      policy_->AddDevice(chunk, di, out);
    }
    const util::MutexLock lock(mutex_);
    totals_.Merge(local);
  });
  policy_->EndPass();
  diurnal_.assign(DiurnalBins(), 0.0);
  for (const std::vector<double>& grid : chunk_diurnal) {
    for (std::size_t bin = 0; bin < grid.size(); ++bin) diurnal_[bin] += grid[bin];
  }
}

std::unique_ptr<FigureFold> FigureFold::Exact(const StudyContext& ctx,
                                              util::ThreadPool& pool) {
  return std::make_unique<FigureFold>(ctx, pool,
                                      std::make_unique<ExactPolicy>());
}

void FigureFold::FoldDevice(DeviceIndex dev, DeviceFold& out, FoldTotals& t,
                            std::vector<double>& diurnal,
                            std::vector<std::uint64_t>& site_seen) const {
  const auto flows = ctx_.dataset().FlowsOfDevice(dev);
  const CalendarDays& cal = Cal();
  const bool post = ctx_.IsPostShutdown(dev);
  const ReportClass rc = ctx_.report_class(dev);
  const bool mobile_cohort = post && rc == ReportClass::kMobile;
  const bool is_switch = ctx_.IsSwitchDevice(dev);
  bool in_feb = false;
  bool in_may = false;
  bool in_post = false;
  std::vector<std::pair<int, std::uint64_t>> day_nonzoom;   // Figure 4
  std::vector<std::pair<int, std::uint64_t>> day_gameplay;  // Figure 8
  std::array<std::array<double, kHours>, 4> week_volume{};  // Figure 3
  std::array<std::vector<apps::FlowInterval>, kNumMonths> fb_intervals;
  std::array<std::vector<apps::FlowInterval>, kNumMonths> tiktok_intervals;
  std::array<std::uint64_t, kNumMonths> steam_bytes{};
  std::array<std::uint64_t, kNumMonths> steam_conns{};

  for (const Flow& f : flows) {
    // Raw days: flows past the study window still count where the figures'
    // period conditions say so (headline periods, Figure 8 activity).
    const int day = Dataset::DayOf(f);
    const bool in_window = day < cal.num_days;
    const Timestamp start = Dataset::StartOf(f);
    const std::uint64_t bytes = f.total_bytes();

    StudyContext::SpreadOverHours(f, [&](Timestamp t_hour, double b) {
      for (std::size_t w = 0; w < 4; ++w) {
        const auto bin = analysis::HourOfWeekSeries::BinOf(t_hour, cal.week_anchors[w]);
        if (bin) week_volume[w][static_cast<std::size_t>(*bin)] += b;
      }
      if (in_window) {
        diurnal[static_cast<std::size_t>(day) * 24 +
                static_cast<std::size_t>(util::HourOf(t_hour))] += b;
      }
    });

    if (post && day < cal.feb_end) {
      t.feb_bytes += bytes;
    } else if (post && day >= cal.apr_start) {
      t.apr_may_bytes += bytes;
    }
    if (in_window) {
      AccumRun(out.day_bytes, day, bytes);
      if (post) {
        // "we exclude Zoom traffic" (§4.2) from Figure 4; Figure 5 is Zoom.
        if (ctx_.IsZoomFlow(f)) {
          t.zoom[static_cast<std::size_t>(day)] += bytes;
        } else {
          AccumRun(day_nonzoom, day, bytes);
        }
        t.category[static_cast<std::size_t>(day) * kNumCategories +
                   CategoryIndexOf(ctx_.catalog(), f.server_ip)] += bytes;
      }
    }
    if (is_switch) {
      in_feb |= day < cal.feb_end;
      in_may |= day >= cal.may_start;
      in_post |= day >= ctx_.post_shutdown_day();
      if (in_window && f.domain != kNoDomain &&
          ctx_.domain_flags(f.domain).nintendo_gameplay) {
        AccumRun(day_gameplay, day, bytes);
      }
    }
    if (f.domain == kNoDomain) continue;

    if (post) {
      const int period = day < cal.feb_end         ? 0
                         : day >= cal.may_start    ? 2
                         : day >= cal.apr_start    ? 1
                                                   : -1;
      const std::uint64_t ticket =
          ((std::uint64_t{dev} << 2) | static_cast<std::uint64_t>(period + 1));
      if (period >= 0 && site_seen[f.domain] != ticket) {
        site_seen[f.domain] = ticket;
        out.site_keys.emplace_back(static_cast<std::uint8_t>(period),
                                   (std::uint64_t{dev} << 32) | f.domain);
      }
    }
    const int m = cal.MonthOf(day);
    if (m < 0) continue;
    const auto mi = static_cast<std::size_t>(m);
    const StudyContext::DomainFlags& flags = ctx_.domain_flags(f.domain);
    if (post && flags.steam) {
      steam_bytes[mi] += bytes;
      ++steam_conns[mi];
    }
    if (mobile_cohort && (flags.fb_family || flags.tiktok)) {
      const apps::FlowInterval iv{
          start, start + std::max<Timestamp>(static_cast<Timestamp>(f.duration_s), 1),
          f.domain, bytes};
      if (flags.fb_family) fb_intervals[mi].push_back(iv);
      if (flags.tiktok) tiktok_intervals[mi].push_back(iv);
    }
  }

  const auto offer = [&out](ValueFamily family, std::size_t index, double v) {
    out.values.emplace_back(static_cast<std::uint32_t>(SlotOf(family, index)), v);
  };
  const auto rci = static_cast<std::size_t>(rc);
  for (const auto& [day, bytes] : out.day_bytes) {
    const std::size_t cell = static_cast<std::size_t>(day) * kNumReportClasses + rci;
    ++t.active[cell];
    if (bytes == 0) continue;
    t.day_bytes[cell] += bytes;
    ++t.day_devices[cell];
    offer(ValueFamily::kFig2, cell, static_cast<double>(bytes));
  }
  // Figure 3 medians only devices with substantive traffic in an hour.
  for (std::size_t w = 0; w < 4; ++w) {
    for (std::size_t h = 0; h < kHours; ++h) {
      if (week_volume[w][h] >= kMinHourBytes) {
        offer(ValueFamily::kFig3, w * kHours + h, week_volume[w][h]);
      }
    }
  }

  const std::size_t intl = ctx_.split().international[dev] ? 1 : 0;
  if (post) {
    // "We consider mobile and desktop devices separately from unclassified
    //  devices, and exclude IoT devices here" (Fig. 4 caption).
    std::size_t group = 4;
    if (rc == ReportClass::kMobile || rc == ReportClass::kLaptopDesktop) {
      group = 1 - intl;
    } else if (rc == ReportClass::kUnclassified) {
      group = 3 - intl;
    }
    for (const auto& [day, bytes] : day_nonzoom) {
      if (group < 4 && bytes != 0) {
        offer(ValueFamily::kFig4, static_cast<std::size_t>(day) * 4 + group,
              static_cast<double>(bytes));
      }
    }
    for (std::size_t m = 0; m < kNumMonths; ++m) {
      if (steam_conns[m] == 0) continue;
      const std::size_t base = (m * 2 + intl) * 2;
      offer(ValueFamily::kFig7, base, static_cast<double>(steam_bytes[m]));
      offer(ValueFamily::kFig7, base + 1, static_cast<double>(steam_conns[m]));
    }
    for (const auto& key : out.site_keys) ++t.sites[key.first];
  }

  // Figure 6 ("we analyze only mobile traffic", §5.2): merged sessions per
  // month. Each Facebook-family session resolves to Facebook or Instagram by
  // the Instagram-only-domain heuristic; hours sum in session order.
  if (mobile_cohort) {
    const Dataset& ds = ctx_.dataset();
    const auto host_of = [&ds](std::uint32_t tag) { return ds.DomainName(tag); };
    for (std::size_t m = 0; m < kNumMonths; ++m) {
      std::array<double, 3> hours{};  // indexed by apps::SocialApp
      for (const apps::Session& session :
           apps::MergeSessions(std::move(fb_intervals[m]))) {
        hours[static_cast<std::size_t>(ctx_.social().ClassifySession(session, host_of))] +=
            session.duration_s() / 3600.0;
      }
      for (const apps::Session& session :
           apps::MergeSessions(std::move(tiktok_intervals[m]))) {
        hours[static_cast<std::size_t>(apps::SocialApp::kTikTok)] +=
            session.duration_s() / 3600.0;
      }
      for (std::size_t app = 0; app < hours.size(); ++app) {
        if (hours[app] > 0.0) {
          offer(ValueFamily::kFig6, (app * kNumMonths + m) * 2 + intl, hours[app]);
        }
      }
    }
  }

  // Figure 8: Switches "active in both February and May" (caption).
  if (is_switch) {
    t.switches.active_february += in_feb ? 1 : 0;
    t.switches.active_post_shutdown += in_post ? 1 : 0;
    t.switches.new_in_april_may += Dataset::DayOf(flows.front()) >= cal.apr_start ? 1 : 0;
    if (in_feb && in_may) {
      for (const auto& [day, bytes] : day_gameplay) {
        t.gameplay[static_cast<std::size_t>(day)] += bytes;
      }
    }
  }
}

analysis::DailySeries FigureFold::SeriesOf(const std::vector<std::uint64_t>& daily) {
  analysis::DailySeries series;
  for (std::size_t d = 0; d < daily.size(); ++d) {
    series.AddDay(static_cast<int>(d), static_cast<double>(daily[d]));
  }
  return series;
}

double FigureFold::Median(ValueFamily family, std::size_t index) const {
  std::vector<double> values = policy_->Values(SlotOf(family, index));
  return analysis::PercentileInPlace(values, 50.0);
}

analysis::BoxStats FigureFold::Box(ValueFamily family, std::size_t index) const {
  return analysis::ComputeBoxStats(policy_->Values(SlotOf(family, index)));
}

std::vector<LockdownStudy::BytesPerDeviceRow> FigureFold::BytesPerDevicePerDay()
    const {
  std::vector<LockdownStudy::BytesPerDeviceRow> rows(NumDays());
  for (std::size_t day = 0; day < rows.size(); ++day) {
    LockdownStudy::BytesPerDeviceRow& row = rows[day];
    row.day = static_cast<int>(day);
    for (std::size_t c = 0; c < kNumReportClasses; ++c) {
      const std::size_t cell = day * kNumReportClasses + c;
      const std::uint64_t devices = totals_.day_devices[cell];
      row.mean[c] = devices == 0 ? 0.0
                                 : static_cast<double>(totals_.day_bytes[cell]) /
                                       static_cast<double>(devices);
      row.median[c] = Median(ValueFamily::kFig2, cell);
    }
  }
  return rows;
}

LockdownStudy::HourOfWeekResult FigureFold::HourOfWeekVolume() const {
  LockdownStudy::HourOfWeekResult result;
  for (std::size_t w = 0; w < result.weeks.size(); ++w) {
    for (std::size_t h = 0; h < kHours; ++h) {
      result.weeks[w].AddBin(static_cast<int>(h),
                             Median(ValueFamily::kFig3, w * kHours + h));
    }
  }
  // "the data is normalized by the minimum volume of traffic across all
  //  weeks" (§4.1).
  double min_positive = 0.0;
  for (const auto& week : result.weeks) {
    const double m = week.MinPositive();
    if (m > 0.0 && (min_positive == 0.0 || m < min_positive)) min_positive = m;
  }
  result.normalization = min_positive;
  for (auto& week : result.weeks) week.Scale(min_positive);
  return result;
}

std::vector<LockdownStudy::Fig4Row> FigureFold::MedianBytesExcludingZoom() const {
  std::vector<LockdownStudy::Fig4Row> rows(NumDays());
  for (std::size_t day = 0; day < rows.size(); ++day) {
    LockdownStudy::Fig4Row& row = rows[day];
    row.day = static_cast<int>(day);
    row.intl_mobile_desktop = Median(ValueFamily::kFig4, day * 4 + 0);
    row.dom_mobile_desktop = Median(ValueFamily::kFig4, day * 4 + 1);
    row.intl_unclassified = Median(ValueFamily::kFig4, day * 4 + 2);
    row.dom_unclassified = Median(ValueFamily::kFig4, day * 4 + 3);
  }
  return rows;
}

LockdownStudy::SocialBox FigureFold::SocialDurations(apps::SocialApp app,
                                                     int month) const {
  const int m = month - 2;
  if (m < 0 || m >= static_cast<int>(kNumMonths)) return {};
  const std::size_t base =
      (static_cast<std::size_t>(app) * kNumMonths + static_cast<std::size_t>(m)) * 2;
  return {Box(ValueFamily::kFig6, base), Box(ValueFamily::kFig6, base + 1)};
}

LockdownStudy::SteamBox FigureFold::SteamUsage(int month) const {
  const int m = month - 2;
  if (m < 0 || m >= static_cast<int>(kNumMonths)) return {};
  const std::size_t dom = static_cast<std::size_t>(m) * 4;
  const std::size_t intl = dom + 2;
  return {Box(ValueFamily::kFig7, dom), Box(ValueFamily::kFig7, intl),
          Box(ValueFamily::kFig7, dom + 1), Box(ValueFamily::kFig7, intl + 1)};
}

std::vector<LockdownStudy::CategoryVolumeRow> FigureFold::CategoryVolumes() const {
  std::vector<LockdownStudy::CategoryVolumeRow> rows(NumDays());
  for (std::size_t day = 0; day < rows.size(); ++day) {
    LockdownStudy::CategoryVolumeRow& row = rows[day];
    const auto at = [&](std::size_t c) {
      return static_cast<double>(totals_.category[day * kNumCategories + c]);
    };
    row.day = static_cast<int>(day);
    row.education = at(0);
    row.video_conferencing = at(1);
    row.streaming = at(2);
    row.social_media = at(3);
    row.gaming = at(4);
    row.messaging = at(5);
    row.other = at(6);
  }
  return rows;
}

LockdownStudy::DiurnalShapeResult FigureFold::DiurnalShape(int first_day,
                                                           int last_day) const {
  LockdownStudy::DiurnalShapeResult result;
  const int lo = std::max(first_day, 0);
  const int hi = std::min(last_day, StudyCalendar::NumDays() - 1);
  for (int day = lo; day <= hi; ++day) {
    const bool weekend = util::IsWeekend(util::WeekdayOf(StudyCalendar::DateAt(day)));
    auto& profile = weekend ? result.weekend : result.weekday;
    const std::size_t base = static_cast<std::size_t>(day) * 24;
    for (std::size_t h = 0; h < 24; ++h) profile[h] += diurnal_[base + h];
  }
  for (auto* profile : {&result.weekday, &result.weekend}) {
    double sum = 0.0;
    for (const double v : *profile) sum += v;
    if (sum > 0.0) {
      for (double& v : *profile) v /= sum;
    }
  }
  return result;
}

std::size_t FigureFold::MemoryBytes() const noexcept {
  return totals_.MemoryBytes() + diurnal_.size() * sizeof(double) + chunk_grid_bytes_;
}

LockdownStudy::Headline FigureFold::HeadlineStats() const {
  LockdownStudy::Headline h;
  // Peak / trough of total active devices (Fig. 1's 32,019 -> 4,973); the
  // trough is the true minimum over the days from the stay-at-home order on.
  double peak = 0.0;
  double trough = std::numeric_limits<double>::infinity();
  for (std::size_t day = 0; day < NumDays(); ++day) {
    double total = 0.0;
    for (std::size_t c = 0; c < kNumReportClasses; ++c) {
      total += policy_->ActiveDevices(totals_, day * kNumReportClasses + c);
    }
    peak = std::max(peak, total);
    if (static_cast<int>(day) >= ctx_.shutdown_day()) trough = std::min(trough, total);
  }
  h.peak_active_devices = static_cast<int>(std::llround(peak));
  h.trough_active_devices = std::isinf(trough) ? 0 : static_cast<int>(std::llround(trough));
  h.post_shutdown_users = ctx_.post_shutdown().size();
  h.international_devices = ctx_.split().num_international;
  h.international_share =
      ctx_.post_shutdown().empty()
          ? 0.0
          : static_cast<double>(ctx_.split().num_international) /
                static_cast<double>(ctx_.post_shutdown().size());

  // Traffic increase of post-shutdown users: mean daily bytes Apr+May vs Feb,
  // and distinct sites per device per month.
  const CalendarDays& cal = Cal();
  const double feb_daily =
      static_cast<double>(totals_.feb_bytes) / static_cast<double>(cal.feb_end);
  const double apr_may_daily = static_cast<double>(totals_.apr_may_bytes) /
                               static_cast<double>(cal.num_days - cal.apr_start);
  h.traffic_increase = feb_daily > 0.0 ? apr_may_daily / feb_daily - 1.0 : 0.0;
  const double sites_feb = policy_->DistinctSites(totals_, 0);
  const double sites_apr_may =
      (policy_->DistinctSites(totals_, 1) + policy_->DistinctSites(totals_, 2)) / 2.0;
  h.distinct_sites_increase =
      sites_feb > 0.0 ? sites_apr_may / sites_feb - 1.0 : 0.0;
  return h;
}

}  // namespace lockdown::core
