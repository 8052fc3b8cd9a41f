// Canonical text rendering of every study output (Figures 1-8, extension
// analyses, headline stats), shared by the golden-figure regression tests and
// the figure differential tests. Doubles print with %.17g, which round-trips
// IEEE binary64 exactly, so two renderings are equal iff every figure is
// bit-identical. The renderer takes either engine: LockdownStudy counts
// Figure 1 devices as ints, StreamingStudy estimates them as doubles.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "analysis/stats.h"
#include "core/pipeline.h"
#include "core/study.h"
#include "util/time.h"

namespace lockdown::core::testing {

inline std::string RenderNum(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

inline std::string RenderCount(int v) { return std::to_string(v); }
inline std::string RenderCount(double v) { return RenderNum(v); }

inline void RenderBoxLine(std::ostringstream& out, const std::string& tag,
                          const analysis::BoxStats& b) {
  out << tag << '\t' << b.n << '\t' << RenderNum(b.p1) << '\t'
      << RenderNum(b.q1) << '\t' << RenderNum(b.median) << '\t'
      << RenderNum(b.q3) << '\t' << RenderNum(b.p95) << '\t'
      << RenderNum(b.p99) << '\t' << RenderNum(b.mean) << '\n';
}

/// Renders every figure the given study (LockdownStudy or StreamingStudy)
/// computes over the given collection.
template <typename Study>
std::string RenderFigures(const CollectionResult& collection, const Study& study) {
  const auto Num = RenderNum;
  std::ostringstream out;
  const auto& st = collection.stats;
  out << "stats\t" << st.raw_flows << '\t' << st.tap_excluded << '\t'
      << st.unattributed << '\t' << st.visitor_flows << '\t'
      << st.devices_observed << '\t' << st.devices_retained << '\t'
      << st.ua_sightings << '\t' << st.ua_unattributed << '\t'
      << st.ua_visitor_dropped << '\n';

  for (const auto& row : study.ActiveDevicesPerDay()) {
    out << "fig1\t" << row.day;
    for (const auto v : row.by_class) out << '\t' << RenderCount(v);
    out << '\t' << RenderCount(row.total) << '\n';
  }
  for (const auto& row : study.BytesPerDevicePerDay()) {
    out << "fig2\t" << row.day;
    for (const double v : row.mean) out << '\t' << Num(v);
    for (const double v : row.median) out << '\t' << Num(v);
    out << '\n';
  }
  const auto f3 = study.HourOfWeekVolume();
  out << "fig3.norm\t" << Num(f3.normalization) << '\n';
  for (std::size_t w = 0; w < f3.weeks.size(); ++w) {
    out << "fig3.week" << w;
    for (int h = 0; h < analysis::HourOfWeekSeries::kHours; ++h) {
      out << '\t' << Num(f3.weeks[w].at(h));
    }
    out << '\n';
  }
  for (const auto& row : study.MedianBytesExcludingZoom()) {
    out << "fig4\t" << row.day << '\t' << Num(row.intl_mobile_desktop) << '\t'
        << Num(row.dom_mobile_desktop) << '\t' << Num(row.intl_unclassified)
        << '\t' << Num(row.dom_unclassified) << '\n';
  }
  const auto f5 = study.ZoomDailyBytes();
  for (int d = 0; d < f5.num_days(); ++d) {
    out << "fig5\t" << d << '\t' << Num(f5.at(d)) << '\n';
  }
  for (int month = 2; month <= 5; ++month) {
    for (const auto& [app, name] :
         {std::pair{apps::SocialApp::kFacebook, "facebook"},
          std::pair{apps::SocialApp::kInstagram, "instagram"},
          std::pair{apps::SocialApp::kTikTok, "tiktok"}}) {
      const auto box = study.SocialDurations(app, month);
      const std::string tag =
          "fig6." + std::string(name) + ".m" + std::to_string(month);
      RenderBoxLine(out, tag + ".dom", box.domestic);
      RenderBoxLine(out, tag + ".intl", box.international);
    }
    const auto steam = study.SteamUsage(month);
    const std::string tag = "fig7.m" + std::to_string(month);
    RenderBoxLine(out, tag + ".dom_bytes", steam.dom_bytes);
    RenderBoxLine(out, tag + ".intl_bytes", steam.intl_bytes);
    RenderBoxLine(out, tag + ".dom_conns", steam.dom_conns);
    RenderBoxLine(out, tag + ".intl_conns", steam.intl_conns);
  }
  const auto f8 = study.SwitchGameplayDaily();
  for (int d = 0; d < f8.num_days(); ++d) {
    out << "fig8\t" << d << '\t' << Num(f8.at(d)) << '\n';
  }
  const auto sw = study.CountSwitches();
  out << "fig8.counts\t" << sw.active_february << '\t'
      << sw.active_post_shutdown << '\t' << sw.new_in_april_may << '\n';
  for (const auto& row : study.CategoryVolumes()) {
    out << "categories\t" << row.day << '\t' << Num(row.education) << '\t'
        << Num(row.video_conferencing) << '\t' << Num(row.streaming) << '\t'
        << Num(row.social_media) << '\t' << Num(row.gaming) << '\t'
        << Num(row.messaging) << '\t' << Num(row.other) << '\n';
  }
  const auto diurnal = study.DiurnalShape(0, util::StudyCalendar::NumDays() - 1);
  out << "diurnal.weekday";
  for (const double v : diurnal.weekday) out << '\t' << Num(v);
  out << "\ndiurnal.weekend";
  for (const double v : diurnal.weekend) out << '\t' << Num(v);
  out << '\n';
  const auto h = study.HeadlineStats();
  out << "headline\t" << h.peak_active_devices << '\t'
      << h.trough_active_devices << '\t' << h.post_shutdown_users << '\t'
      << Num(h.traffic_increase) << '\t' << Num(h.distinct_sites_increase)
      << '\t' << h.international_devices << '\t'
      << Num(h.international_share) << '\n';
  return out.str();
}

/// Diffs `rendered` against the checked-in fixture at `path` and returns ""
/// when they match, else a message naming the first differing line. With
/// LOCKDOWN_REGEN_GOLDEN set it rewrites the fixture instead and returns "".
inline std::string CompareWithGolden(const std::string& rendered,
                                     const std::string& path) {
  if (std::getenv("LOCKDOWN_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << rendered;
    return out ? "" : "cannot write " + path;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return "missing golden fixture " + path +
           " — run with LOCKDOWN_REGEN_GOLDEN=1 to create it";
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string golden = buf.str();
  if (rendered == golden) return "";
  std::istringstream ra(rendered);
  std::istringstream rb(golden);
  std::string la;
  std::string lb;
  for (int line = 1;; ++line) {
    const bool more_a = static_cast<bool>(std::getline(ra, la));
    const bool more_b = static_cast<bool>(std::getline(rb, lb));
    if (!more_a && !more_b) break;
    if (la != lb || more_a != more_b) {
      return "figure output diverges from " + path + " at line " +
             std::to_string(line) + "\n  golden:   " + (more_b ? lb : "<eof>") +
             "\n  computed: " + (more_a ? la : "<eof>");
    }
  }
  return "outputs differ only in trailing bytes";
}

}  // namespace lockdown::core::testing
