#include "core/study.h"

#include "core/figure_fold.h"
#include "obs/obs.h"

namespace lockdown::core {

LockdownStudy::LockdownStudy(const Dataset& dataset,
                             const world::ServiceCatalog& catalog, int threads)
    : pool_(util::ResolveThreadCount(threads)), ctx_(dataset, catalog, pool_) {
  OBS_SPAN("study/fold");
  fold_ = FigureFold::Exact(ctx_, pool_);
}

LockdownStudy::~LockdownStudy() = default;

std::vector<LockdownStudy::ActiveDevicesRow> LockdownStudy::ActiveDevicesPerDay()
    const {
  OBS_SPAN("study/fig1_active_devices");
  return fold_->ActiveDevicesPerDay<ActiveDevicesRow>();
}

std::vector<LockdownStudy::BytesPerDeviceRow> LockdownStudy::BytesPerDevicePerDay()
    const {
  OBS_SPAN("study/fig2_bytes_per_device");
  return fold_->BytesPerDevicePerDay();
}

LockdownStudy::HourOfWeekResult LockdownStudy::HourOfWeekVolume() const {
  OBS_SPAN("study/fig3_hour_of_week");
  return fold_->HourOfWeekVolume();
}

std::vector<LockdownStudy::Fig4Row> LockdownStudy::MedianBytesExcludingZoom() const {
  OBS_SPAN("study/fig4_population_split");
  return fold_->MedianBytesExcludingZoom();
}

analysis::DailySeries LockdownStudy::ZoomDailyBytes() const {
  OBS_SPAN("study/fig5_zoom_daily");
  return fold_->ZoomDailyBytes();
}

LockdownStudy::SocialBox LockdownStudy::SocialDurations(apps::SocialApp app,
                                                        int month) const {
  OBS_SPAN("study/fig6_social");
  return fold_->SocialDurations(app, month);
}

LockdownStudy::SteamBox LockdownStudy::SteamUsage(int month) const {
  OBS_SPAN("study/fig7_steam");
  return fold_->SteamUsage(month);
}

analysis::DailySeries LockdownStudy::SwitchGameplayDaily(int ma_window) const {
  OBS_SPAN("study/fig8_switch_daily");
  return fold_->SwitchGameplayDaily(ma_window);
}

LockdownStudy::SwitchCounts LockdownStudy::CountSwitches() const {
  OBS_SPAN("study/fig8_switch_counts");
  return fold_->CountSwitches();
}

std::vector<LockdownStudy::CategoryVolumeRow> LockdownStudy::CategoryVolumes()
    const {
  OBS_SPAN("study/categories");
  return fold_->CategoryVolumes();
}

LockdownStudy::DiurnalShapeResult LockdownStudy::DiurnalShape(int first_day,
                                                              int last_day) const {
  OBS_SPAN("study/diurnal");
  return fold_->DiurnalShape(first_day, last_day);
}

LockdownStudy::Headline LockdownStudy::HeadlineStats() const {
  OBS_SPAN("study/headline");
  return fold_->HeadlineStats();
}

}  // namespace lockdown::core
