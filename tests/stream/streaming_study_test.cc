// StreamingStudy engine invariants: bit-identical output at any thread
// count, sketch state held under the configured budget on a dataset several
// times larger than it, and a truthful accuracy report.
#include "stream/streaming_study.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "world/catalog.h"

namespace lockdown::stream {
namespace {

constexpr std::size_t kMiB = std::size_t{1} << 20;

const core::CollectionResult& Collected() {
  static const core::CollectionResult result =
      core::MeasurementPipeline::Collect(core::StudyConfig::Small(60, 2020));
  return result;
}

StreamingOptions WithThreads(int threads) {
  StreamingOptions options;
  options.threads = threads;
  return options;
}

// Bit-exact comparison of every streaming output (estimates included: the
// sketches must hold identical state regardless of thread count).
void ExpectStreamingIdentical(const StreamingStudy& a, const StreamingStudy& b) {
  const auto f1a = a.ActiveDevicesPerDay();
  const auto f1b = b.ActiveDevicesPerDay();
  ASSERT_EQ(f1a.size(), f1b.size());
  for (std::size_t i = 0; i < f1a.size(); ++i) {
    ASSERT_EQ(f1a[i].by_class, f1b[i].by_class) << "fig1 day " << i;
    ASSERT_EQ(f1a[i].total, f1b[i].total) << "fig1 day " << i;
  }

  const auto f2a = a.BytesPerDevicePerDay();
  const auto f2b = b.BytesPerDevicePerDay();
  ASSERT_EQ(f2a.size(), f2b.size());
  for (std::size_t i = 0; i < f2a.size(); ++i) {
    ASSERT_EQ(f2a[i].mean, f2b[i].mean) << "fig2 day " << i;
    ASSERT_EQ(f2a[i].median, f2b[i].median) << "fig2 day " << i;
  }

  const auto f3a = a.HourOfWeekVolume();
  const auto f3b = b.HourOfWeekVolume();
  ASSERT_EQ(f3a.normalization, f3b.normalization);
  for (std::size_t w = 0; w < 4; ++w) {
    for (int h = 0; h < analysis::HourOfWeekSeries::kHours; ++h) {
      ASSERT_EQ(f3a.weeks[w].at(h), f3b.weeks[w].at(h))
          << "fig3 week " << w << " hour " << h;
    }
  }

  const auto f4a = a.MedianBytesExcludingZoom();
  const auto f4b = b.MedianBytesExcludingZoom();
  ASSERT_EQ(f4a.size(), f4b.size());
  for (std::size_t i = 0; i < f4a.size(); ++i) {
    ASSERT_EQ(f4a[i].intl_mobile_desktop, f4b[i].intl_mobile_desktop);
    ASSERT_EQ(f4a[i].dom_mobile_desktop, f4b[i].dom_mobile_desktop);
    ASSERT_EQ(f4a[i].intl_unclassified, f4b[i].intl_unclassified);
    ASSERT_EQ(f4a[i].dom_unclassified, f4b[i].dom_unclassified);
  }

  const auto zda = a.ZoomDailyBytes();
  const auto zdb = b.ZoomDailyBytes();
  for (int d = 0; d < zda.num_days(); ++d) ASSERT_EQ(zda.at(d), zdb.at(d));
  const auto swa = a.SwitchGameplayDaily();
  const auto swb = b.SwitchGameplayDaily();
  for (int d = 0; d < swa.num_days(); ++d) ASSERT_EQ(swa.at(d), swb.at(d));
  EXPECT_EQ(a.CountSwitches().active_february, b.CountSwitches().active_february);

  for (int month = 2; month <= 5; ++month) {
    for (const auto app : {apps::SocialApp::kFacebook,
                           apps::SocialApp::kInstagram, apps::SocialApp::kTikTok}) {
      const auto sa = a.SocialDurations(app, month);
      const auto sb = b.SocialDurations(app, month);
      ASSERT_EQ(sa.domestic.n, sb.domestic.n);
      ASSERT_EQ(sa.domestic.median, sb.domestic.median);
      ASSERT_EQ(sa.domestic.mean, sb.domestic.mean);
      ASSERT_EQ(sa.international.n, sb.international.n);
      ASSERT_EQ(sa.international.median, sb.international.median);
    }
    const auto sta = a.SteamUsage(month);
    const auto stb = b.SteamUsage(month);
    ASSERT_EQ(sta.dom_bytes.n, stb.dom_bytes.n);
    ASSERT_EQ(sta.dom_bytes.median, stb.dom_bytes.median);
    ASSERT_EQ(sta.intl_conns.mean, stb.intl_conns.mean);
  }

  const auto cva = a.CategoryVolumes();
  const auto cvb = b.CategoryVolumes();
  ASSERT_EQ(cva.size(), cvb.size());
  for (std::size_t i = 0; i < cva.size(); ++i) {
    ASSERT_EQ(cva[i].education, cvb[i].education) << "categories day " << i;
    ASSERT_EQ(cva[i].streaming, cvb[i].streaming) << "categories day " << i;
    ASSERT_EQ(cva[i].other, cvb[i].other) << "categories day " << i;
  }

  // Diurnal: the per-chunk fold order is fixed by the dataset size, not the
  // thread count, so even the fractional sums must match exactly.
  const auto da = a.DiurnalShape(0, util::StudyCalendar::NumDays() - 1);
  const auto db = b.DiurnalShape(0, util::StudyCalendar::NumDays() - 1);
  ASSERT_EQ(da.weekday, db.weekday);
  ASSERT_EQ(da.weekend, db.weekend);

  const auto ha = a.HeadlineStats();
  const auto hb = b.HeadlineStats();
  EXPECT_EQ(ha.peak_active_devices, hb.peak_active_devices);
  EXPECT_EQ(ha.trough_active_devices, hb.trough_active_devices);
  EXPECT_EQ(ha.traffic_increase, hb.traffic_increase);
  EXPECT_EQ(ha.distinct_sites_increase, hb.distinct_sites_increase);

  for (core::DomainId d = 0; d < a.context().dataset().num_domains(); ++d) {
    ASSERT_EQ(a.EstimateDomainBytes(d), b.EstimateDomainBytes(d))
        << "domain " << d;
  }
}

TEST(StreamingStudy, BitIdenticalAcrossThreadCounts) {
  const auto& collection = Collected();
  const auto& catalog = world::ServiceCatalog::Default();
  const StreamingStudy serial(collection.dataset, catalog, WithThreads(1));
  for (const int threads : {2, 3, 8}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    const StreamingStudy par(collection.dataset, catalog, WithThreads(threads));
    ExpectStreamingIdentical(serial, par);
  }
}

TEST(StreamingStudy, BudgetBelowFloorThrows) {
  const auto& collection = Collected();
  StreamingOptions options;
  options.memory_budget_bytes = kMiB;  // below the ~1.5 MiB floor
  EXPECT_THROW(
      StreamingStudy(collection.dataset, world::ServiceCatalog::Default(),
                     options),
      std::invalid_argument);
}

TEST(StreamingStudy, AccuracyReportIsTruthful) {
  const auto& collection = Collected();
  const StreamingStudy study(collection.dataset,
                             world::ServiceCatalog::Default(), {});
  const auto report = study.Accuracy();
  EXPECT_EQ(report.hll_precision, study.plan().hll_precision);
  EXPECT_DOUBLE_EQ(report.hll_relative_standard_error,
                   study.plan().HllRelativeStandardError());
  EXPECT_DOUBLE_EQ(report.cms_epsilon, study.plan().CmsEpsilon());
  // The count-min sketch absorbs every byte of every flow with a domain.
  std::uint64_t domain_bytes = 0;
  for (const core::Flow& f : collection.dataset.flows()) {
    if (f.domain != core::kNoDomain) domain_bytes += f.total_bytes();
  }
  EXPECT_GT(domain_bytes, 0u);
  EXPECT_EQ(report.cms_total_bytes, domain_bytes);
  EXPECT_EQ(report.reservoir_capacity, study.plan().reservoir_capacity);
  EXPECT_EQ(report.state_bytes, study.TrackedStateBytes());
  EXPECT_EQ(report.budget_bytes, study.plan().budget_bytes);
  EXPECT_LE(report.state_bytes, report.budget_bytes);
}

// A synthetic dataset several times the budget: 600 devices x 350 flows
// (~8.4 MB of flow records) against a 2 MiB budget. The engine's tracked
// sketch state must stay under the budget — the whole point of streaming.
core::Dataset SyntheticLargeDataset() {
  core::Dataset ds;
  std::vector<core::DomainId> domains;
  for (int i = 0; i < 200; ++i) {
    domains.push_back(ds.InternDomain("svc" + std::to_string(i) + ".example"));
  }
  constexpr int kDevices = 600;
  constexpr int kFlowsPerDevice = 350;
  for (int d = 0; d < kDevices; ++d) {
    const core::DeviceIndex dev =
        ds.AddDevice(privacy::DeviceId{static_cast<std::uint64_t>(d) + 1});
    for (int i = 0; i < kFlowsPerDevice; ++i) {
      core::Flow f;
      const int day = (d + i * 7) % util::StudyCalendar::NumDays();
      f.start_offset_s = static_cast<std::uint32_t>(day) * 86400U +
                         static_cast<std::uint32_t>((i * 613) % 86000);
      f.duration_s = 30.0F + static_cast<float>(i % 900);
      f.device = dev;
      f.domain = domains[static_cast<std::size_t>((d + i) % 200)];
      f.server_ip = net::Ipv4Address{0x0A000000U + static_cast<std::uint32_t>(i)};
      f.bytes_up = 1000 + static_cast<std::uint64_t>(i) * 17;
      f.bytes_down = 50000 + static_cast<std::uint64_t>(d) * 31;
      ds.AddFlow(f);
    }
  }
  ds.Finalize();
  return ds;
}

TEST(StreamingStudy, StateStaysUnderBudgetOnDatasetFourTimesLarger) {
  const core::Dataset ds = SyntheticLargeDataset();
  constexpr std::size_t kBudget = 2 * kMiB;
  ASSERT_GE(ds.num_flows() * sizeof(core::Flow), 4 * kBudget)
      << "test dataset no longer exercises the memory bound";
  StreamingOptions options;
  options.memory_budget_bytes = kBudget;
  const StreamingStudy study(ds, world::ServiceCatalog::Default(), options);
  const auto report = study.Accuracy();
  EXPECT_LE(study.TrackedStateBytes(), kBudget);
  EXPECT_LE(report.state_bytes, report.budget_bytes);
  // The population (600 devices/day) exceeds the floor reservoir capacity,
  // so the engine must be honest about having sampled.
  EXPECT_FALSE(report.reservoirs_exact);
  // Figures still answer: estimates exist for every day with traffic.
  const auto rows = study.BytesPerDevicePerDay();
  std::size_t days_with_traffic = 0;
  for (const auto& row : rows) {
    for (double m : row.mean) days_with_traffic += m > 0.0;
  }
  EXPECT_GT(days_with_traffic, 0u);
}

}  // namespace
}  // namespace lockdown::stream
