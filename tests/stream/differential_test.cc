// Differential convergence proofs: the streaming engine against the batch
// study, figure by figure, with the error taxonomy streaming_study.h states.
//
//   exact       integer-byte aggregates (fig 2 means, 5, 8, categories,
//               headline traffic increase) and the diurnal shape, read from
//               the fold's one grid — EXPECT_EQ on the doubles
//   exact-if-   sampled median/box figures (2, 3, 4, 6, 7) whenever no
//   unsampled   reservoir evicted (report.reservoirs_exact) — EXPECT_EQ
//   bounded     HLL cardinalities within 4 standard errors; count-min
//               estimates one-sided and within epsilon * total for all but
//               a delta fraction of domains
//
// The same contract must hold on a dataset ingested through the tolerant
// path after deterministic fault injection: faults change *which* flows
// exist, never the batch/streaming agreement on them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>
#include <unordered_map>
#include <vector>

#include "core/offline.h"
#include "core/pipeline.h"
#include "core/study.h"
#include "stream/streaming_study.h"
#include "util/fault.h"
#include "world/catalog.h"

namespace lockdown::stream {
namespace {

namespace fs = std::filesystem;

const core::CollectionResult& Collected() {
  static const core::CollectionResult result =
      core::MeasurementPipeline::Collect(core::StudyConfig::Small(60, 2020));
  return result;
}

void ExpectBoxEqual(const analysis::BoxStats& batch,
                    const analysis::BoxStats& streaming, const char* what) {
  EXPECT_EQ(batch.n, streaming.n) << what;
  EXPECT_EQ(batch.p1, streaming.p1) << what;
  EXPECT_EQ(batch.q1, streaming.q1) << what;
  EXPECT_EQ(batch.median, streaming.median) << what;
  EXPECT_EQ(batch.q3, streaming.q3) << what;
  EXPECT_EQ(batch.p95, streaming.p95) << what;
  EXPECT_EQ(batch.p99, streaming.p99) << what;
  EXPECT_EQ(batch.mean, streaming.mean) << what;
}

// Every figure comparison between one batch study and one streaming engine
// over the same dataset. Requires an unsampled run (reservoirs_exact) so the
// sampled figures are checked with exact equality.
void ExpectConverged(const core::LockdownStudy& batch,
                     const StreamingStudy& streaming) {
  const auto report = streaming.Accuracy();
  ASSERT_TRUE(report.reservoirs_exact)
      << "population outgrew the reservoirs; raise the test budget";
  ASSERT_LE(report.state_bytes, report.budget_bytes);

  // Figure 1: HLL estimates within 4 standard errors of the exact counts.
  const double rse = report.hll_relative_standard_error;
  const auto f1b = batch.ActiveDevicesPerDay();
  const auto f1s = streaming.ActiveDevicesPerDay();
  ASSERT_EQ(f1b.size(), f1s.size());
  for (std::size_t i = 0; i < f1b.size(); ++i) {
    for (std::size_t c = 0; c < f1b[i].by_class.size(); ++c) {
      const double exact = f1b[i].by_class[c];
      EXPECT_NEAR(f1s[i].by_class[c], exact, 4.0 * rse * exact + 1.0)
          << "fig1 day " << i << " class " << c;
    }
    EXPECT_NEAR(f1s[i].total, static_cast<double>(f1b[i].total),
                4.0 * rse * f1b[i].total + 2.0)
        << "fig1 day " << i;
  }

  // Figure 2: means exact (integer sums), medians exact (unsampled).
  const auto f2b = batch.BytesPerDevicePerDay();
  const auto f2s = streaming.BytesPerDevicePerDay();
  ASSERT_EQ(f2b.size(), f2s.size());
  for (std::size_t i = 0; i < f2b.size(); ++i) {
    EXPECT_EQ(f2b[i].mean, f2s[i].mean) << "fig2 day " << i;
    EXPECT_EQ(f2b[i].median, f2s[i].median) << "fig2 day " << i;
  }

  // Figure 3: per-device hourly volumes accumulate in flow order on both
  // sides, so the unsampled medians and the normalization match exactly.
  const auto f3b = batch.HourOfWeekVolume();
  const auto f3s = streaming.HourOfWeekVolume();
  EXPECT_EQ(f3b.normalization, f3s.normalization);
  for (std::size_t w = 0; w < 4; ++w) {
    for (int h = 0; h < analysis::HourOfWeekSeries::kHours; ++h) {
      EXPECT_EQ(f3b.weeks[w].at(h), f3s.weeks[w].at(h))
          << "fig3 week " << w << " hour " << h;
    }
  }

  // Figure 4.
  const auto f4b = batch.MedianBytesExcludingZoom();
  const auto f4s = streaming.MedianBytesExcludingZoom();
  ASSERT_EQ(f4b.size(), f4s.size());
  for (std::size_t i = 0; i < f4b.size(); ++i) {
    EXPECT_EQ(f4b[i].intl_mobile_desktop, f4s[i].intl_mobile_desktop) << i;
    EXPECT_EQ(f4b[i].dom_mobile_desktop, f4s[i].dom_mobile_desktop) << i;
    EXPECT_EQ(f4b[i].intl_unclassified, f4s[i].intl_unclassified) << i;
    EXPECT_EQ(f4b[i].dom_unclassified, f4s[i].dom_unclassified) << i;
  }

  // Figures 5 and 8: exact integer-byte daily series.
  const auto zb = batch.ZoomDailyBytes();
  const auto zs = streaming.ZoomDailyBytes();
  ASSERT_EQ(zb.num_days(), zs.num_days());
  for (int d = 0; d < zb.num_days(); ++d) {
    EXPECT_EQ(zb.at(d), zs.at(d)) << "fig5 day " << d;
  }
  const auto gb = batch.SwitchGameplayDaily();
  const auto gs = streaming.SwitchGameplayDaily();
  ASSERT_EQ(gb.num_days(), gs.num_days());
  for (int d = 0; d < gb.num_days(); ++d) {
    EXPECT_EQ(gb.at(d), gs.at(d)) << "fig8 day " << d;
  }
  const auto cb = batch.CountSwitches();
  const auto cs = streaming.CountSwitches();
  EXPECT_EQ(cb.active_february, cs.active_february);
  EXPECT_EQ(cb.active_post_shutdown, cs.active_post_shutdown);
  EXPECT_EQ(cb.new_in_april_may, cs.new_in_april_may);

  // Figures 6 and 7: box statistics over the sampled populations.
  for (int month = 2; month <= 5; ++month) {
    for (const auto app : {apps::SocialApp::kFacebook,
                           apps::SocialApp::kInstagram, apps::SocialApp::kTikTok}) {
      const auto sb = batch.SocialDurations(app, month);
      const auto ss = streaming.SocialDurations(app, month);
      ExpectBoxEqual(sb.domestic, ss.domestic, "fig6 domestic");
      ExpectBoxEqual(sb.international, ss.international, "fig6 international");
    }
    const auto tb = batch.SteamUsage(month);
    const auto ts = streaming.SteamUsage(month);
    ExpectBoxEqual(tb.dom_bytes, ts.dom_bytes, "fig7 dom bytes");
    ExpectBoxEqual(tb.intl_bytes, ts.intl_bytes, "fig7 intl bytes");
    ExpectBoxEqual(tb.dom_conns, ts.dom_conns, "fig7 dom conns");
    ExpectBoxEqual(tb.intl_conns, ts.intl_conns, "fig7 intl conns");
  }

  // Category volumes: exact.
  const auto cvb = batch.CategoryVolumes();
  const auto cvs = streaming.CategoryVolumes();
  ASSERT_EQ(cvb.size(), cvs.size());
  for (std::size_t i = 0; i < cvb.size(); ++i) {
    EXPECT_EQ(cvb[i].education, cvs[i].education) << "categories day " << i;
    EXPECT_EQ(cvb[i].video_conferencing, cvs[i].video_conferencing) << i;
    EXPECT_EQ(cvb[i].streaming, cvs[i].streaming) << i;
    EXPECT_EQ(cvb[i].social_media, cvs[i].social_media) << i;
    EXPECT_EQ(cvb[i].gaming, cvs[i].gaming) << i;
    EXPECT_EQ(cvb[i].messaging, cvs[i].messaging) << i;
    EXPECT_EQ(cvb[i].other, cvs[i].other) << i;
  }

  // Diurnal shape: exact, both engines read the fold's one grid.
  for (const auto& [first, last] :
       {std::pair{0, 28}, std::pair{0, util::StudyCalendar::NumDays() - 1}}) {
    const auto db = batch.DiurnalShape(first, last);
    const auto dst = streaming.DiurnalShape(first, last);
    for (std::size_t h = 0; h < 24; ++h) {
      EXPECT_EQ(db.weekday[h], dst.weekday[h]) << "weekday hour " << h;
      EXPECT_EQ(db.weekend[h], dst.weekend[h]) << "weekend hour " << h;
    }
  }

  // Headline: census and byte ratios exact; device/site counts estimated.
  const auto hb = batch.HeadlineStats();
  const auto hs = streaming.HeadlineStats();
  EXPECT_EQ(hb.post_shutdown_users, hs.post_shutdown_users);
  EXPECT_EQ(hb.international_devices, hs.international_devices);
  EXPECT_EQ(hb.international_share, hs.international_share);
  EXPECT_EQ(hb.traffic_increase, hs.traffic_increase);
  EXPECT_NEAR(hs.peak_active_devices, hb.peak_active_devices,
              4.0 * rse * hb.peak_active_devices + 4.0);
  EXPECT_NEAR(hs.trough_active_devices, hb.trough_active_devices,
              4.0 * rse * hb.trough_active_devices + 4.0);
  EXPECT_NEAR(hs.distinct_sites_increase, hb.distinct_sites_increase, 0.1);
}

// Count-min: one-sided per domain, and within epsilon * total for all but
// (at most) a small-delta fraction of the vocabulary.
void ExpectDomainBytesBounded(const core::Dataset& ds,
                              const StreamingStudy& streaming) {
  std::unordered_map<core::DomainId, std::uint64_t> exact;
  std::uint64_t total = 0;
  for (const core::Flow& f : ds.flows()) {
    if (f.domain == core::kNoDomain) continue;
    exact[f.domain] += f.total_bytes();
    total += f.total_bytes();
  }
  const auto report = streaming.Accuracy();
  EXPECT_EQ(report.cms_total_bytes, total);
  const auto bound = static_cast<std::uint64_t>(report.cms_epsilon *
                                                static_cast<double>(total));
  std::size_t violations = 0;
  for (const auto& [domain, true_bytes] : exact) {
    const std::uint64_t est = streaming.EstimateDomainBytes(domain);
    ASSERT_GE(est, true_bytes) << "count-min undercounted domain " << domain;
    violations += est > true_bytes + bound;
  }
  const double delta_budget =
      2.0 * report.cms_delta * static_cast<double>(exact.size());
  EXPECT_LE(violations, std::max<std::size_t>(
                            2, static_cast<std::size_t>(delta_budget)));
}

TEST(StreamingDifferential, ConvergesToBatchOnCleanInputs) {
  const auto& collection = Collected();
  const auto& catalog = world::ServiceCatalog::Default();
  const core::LockdownStudy batch(collection.dataset, catalog);
  StreamingOptions options;
  options.memory_budget_bytes = std::size_t{64} << 20;
  const StreamingStudy streaming(collection.dataset, catalog, options);
  ExpectConverged(batch, streaming);
  ExpectDomainBytesBounded(collection.dataset, streaming);
}

TEST(StreamingDifferential, ConvergesAcrossSketchSeeds) {
  // The convergence contract cannot depend on a lucky hash seed: the exact
  // figures must be bit-identical under any sketch seed, and the estimated
  // ones must stay in bounds.
  const auto& collection = Collected();
  const auto& catalog = world::ServiceCatalog::Default();
  const core::LockdownStudy batch(collection.dataset, catalog);
  for (const std::uint64_t seed : {1ULL, 77ULL, 20200316ULL}) {
    SCOPED_TRACE(testing::Message() << "sketch seed " << seed);
    StreamingOptions options;
    options.memory_budget_bytes = std::size_t{64} << 20;
    options.sketch_seed = seed;
    const StreamingStudy streaming(collection.dataset, catalog, options);
    ExpectConverged(batch, streaming);
  }
}

// The fault-injected path: export the logs, corrupt conn.log with the
// deterministic injector, re-ingest tolerantly, and require the identical
// batch/streaming agreement on whatever survived.
TEST(StreamingDifferential, ConvergesUnderFaultInjection) {
  const auto config = core::StudyConfig::Small(45, 909);
  const fs::path dir = fs::temp_directory_path() /
                       ("lockdown_stream_fault_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  core::ExportLogs(config, dir);

  const fs::path conn = dir / core::LogFiles::kConn;
  std::ostringstream buffer;
  buffer << std::ifstream(conn).rdbuf();
  const util::FaultInjector injector({20200316, 0.01});
  const std::string dirty =
      injector.Apply(buffer.str(), util::FaultKind::kMixed);
  std::ofstream(conn, std::ios::trunc) << dirty;

  ingest::IngestOptions tolerant;
  tolerant.mode = ingest::Mode::kTolerant;
  tolerant.max_error_rate = 1.0;
  const auto collection = core::CollectFromLogs(dir, config, tolerant);
  fs::remove_all(dir);

  const auto& catalog = world::ServiceCatalog::Default();
  const core::LockdownStudy batch(collection.dataset, catalog);
  StreamingOptions options;
  options.memory_budget_bytes = std::size_t{64} << 20;
  const StreamingStudy streaming(collection.dataset, catalog, options);
  ExpectConverged(batch, streaming);
  ExpectDomainBytesBounded(collection.dataset, streaming);
}

}  // namespace
}  // namespace lockdown::stream
