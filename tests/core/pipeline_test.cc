#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>

#include "obs/obs.h"
#include "sim/generator.h"
#include "world/oui_db.h"

namespace lockdown::core {
namespace {

// One shared small collection: pipeline runs are deterministic, and several
// tests can examine the same result.
class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new StudyConfig(StudyConfig::Small(80, 77));
    result_ = new CollectionResult(MeasurementPipeline::Collect(*config_));
  }
  static void TearDownTestSuite() {
    delete result_;
    delete config_;
    result_ = nullptr;
    config_ = nullptr;
  }

  static StudyConfig* config_;
  static CollectionResult* result_;
};

StudyConfig* PipelineTest::config_ = nullptr;
CollectionResult* PipelineTest::result_ = nullptr;

TEST_F(PipelineTest, ProducesNonTrivialDataset) {
  EXPECT_GT(result_->dataset.num_flows(), 50000u);
  EXPECT_GT(result_->dataset.num_devices(), 100u);
  EXPECT_GT(result_->dataset.num_domains(), 50u);
}

TEST_F(PipelineTest, TapExclusionDropsTraffic) {
  // iPhones sync to iCloud daily; Apple is on the exclusion list, so the
  // counter must be busy.
  EXPECT_GT(result_->stats.tap_excluded, 1000u);
  // And no excluded-service address may appear in the dataset.
  const auto& catalog = world::ServiceCatalog::Default();
  for (const Flow& f : result_->dataset.flows()) {
    const auto svc = catalog.FindByIp(f.server_ip);
    ASSERT_TRUE(svc.has_value());
    EXPECT_FALSE(catalog.Get(*svc).tap_excluded)
        << catalog.Get(*svc).name;
  }
}

TEST_F(PipelineTest, VisitorFilterApplied) {
  EXPECT_LE(result_->stats.devices_retained, result_->stats.devices_observed);
  EXPECT_EQ(result_->dataset.num_devices(), result_->stats.devices_retained);
}

TEST_F(PipelineTest, MostFlowsAttributedAndMapped) {
  const auto& st = result_->stats;
  EXPECT_LT(static_cast<double>(st.unattributed),
            0.02 * static_cast<double>(st.raw_flows));
  // Most flows should carry a DNS-mapped domain (raw-IP Zoom media being the
  // main exception).
  std::size_t with_domain = 0;
  for (const Flow& f : result_->dataset.flows()) {
    with_domain += f.domain != kNoDomain;
  }
  EXPECT_GT(static_cast<double>(with_domain),
            0.9 * static_cast<double>(result_->dataset.num_flows()));
}

TEST_F(PipelineTest, ObservationsAccumulated) {
  std::size_t with_ua = 0;
  std::size_t with_oui = 0;
  for (DeviceIndex i = 0; i < result_->dataset.num_devices(); ++i) {
    const auto& obs = result_->dataset.device(i).observations;
    EXPECT_GT(obs.flow_count, 0u);
    EXPECT_GT(obs.total_bytes, 0u);
    with_ua += !obs.user_agents.empty();
    with_oui += !obs.locally_administered && obs.oui != 0;
  }
  EXPECT_GT(with_ua, 0u);
  EXPECT_GT(with_oui, result_->dataset.num_devices() / 3);
}

TEST_F(PipelineTest, AnonymizationHidesMacs) {
  // Device ids must not be raw MAC values: check that no id matches any
  // population MAC under the trivial embedding.
  sim::Population pop(config_->generator.population);
  std::unordered_set<std::uint64_t> macs;
  for (const auto& d : pop.devices()) macs.insert(d.mac.value());
  for (DeviceIndex i = 0; i < result_->dataset.num_devices(); ++i) {
    EXPECT_FALSE(macs.count(result_->dataset.device(i).id.value));
  }
}

TEST_F(PipelineTest, AnonymizerLinksGroundTruth) {
  // The exposed anonymizer (simulation-only) must map population MACs onto
  // dataset device ids.
  const auto anon = MeasurementPipeline::MakeAnonymizer(*config_);
  sim::Population pop(config_->generator.population);
  std::unordered_set<std::uint64_t> ids;
  for (DeviceIndex i = 0; i < result_->dataset.num_devices(); ++i) {
    ids.insert(result_->dataset.device(i).id.value);
  }
  std::size_t linked = 0;
  for (const auto& d : pop.devices()) {
    linked += ids.count(anon.AnonymizeMac(d.mac).value);
  }
  EXPECT_EQ(linked, result_->dataset.num_devices());
}

TEST_F(PipelineTest, DeterministicAcrossRuns) {
  const auto again = MeasurementPipeline::Collect(*config_);
  EXPECT_EQ(again.dataset.num_flows(), result_->dataset.num_flows());
  EXPECT_EQ(again.dataset.num_devices(), result_->dataset.num_devices());
  EXPECT_EQ(again.stats.tap_excluded, result_->stats.tap_excluded);
  // Spot-check flow equality.
  for (std::size_t i = 0; i < again.dataset.num_flows(); i += 1009) {
    const Flow& a = again.dataset.flows()[i];
    const Flow& b = result_->dataset.flows()[i];
    EXPECT_EQ(a.start_offset_s, b.start_offset_s);
    EXPECT_EQ(a.device, b.device);
    EXPECT_EQ(a.bytes_down, b.bytes_down);
  }
}

// Hand-crafted inputs exercising every arm of the UA accounting: a retained
// device, a visitor-filtered device, and a sighting from an IP no lease ever
// covered. Process must route each UA record into exactly one counter.
TEST(PipelineUaAccounting, EveryUaRecordLandsInExactlyOneCounter) {
  const util::Timestamp t0 = util::StudyCalendar::StartTs();
  const net::MacAddress resident_mac(0x0017F2000001ULL);
  const net::MacAddress visitor_mac(0x0017F2000002ULL);
  const net::Ipv4Address resident_ip(10, 16, 0, 1);
  const net::Ipv4Address visitor_ip(10, 16, 0, 2);
  const net::Ipv4Address unleased_ip(10, 16, 0, 3);
  const net::Ipv4Address server_ip(198, 51, 100, 7);

  RawInputs inputs;
  const util::Timestamp lease_end = t0 + 40 * util::kSecondsPerDay;
  inputs.dhcp_log.push_back(dhcp::Lease{resident_mac, resident_ip, t0, lease_end});
  inputs.dhcp_log.push_back(dhcp::Lease{visitor_mac, visitor_ip, t0, lease_end});

  const int min_days = 14;
  auto flow_at = [&](net::Ipv4Address client, int day) {
    flow::FlowRecord rec;
    rec.start = t0 + day * util::kSecondsPerDay + 3600;
    rec.duration_s = 10.0;
    rec.client_ip = client;
    rec.server_ip = server_ip;
    rec.server_port = 443;
    rec.bytes_up = 1000;
    rec.bytes_down = 20000;
    return rec;
  };
  // Resident: clears the 14-distinct-day retention bar. Visitor: two days.
  for (int day = 0; day < min_days + 2; ++day) {
    inputs.flows.push_back(flow_at(resident_ip, day));
    if (day < 2) inputs.flows.push_back(flow_at(visitor_ip, day));
  }

  const util::Timestamp ua_ts = t0 + 3600;
  inputs.ua_log.push_back(logs::UaRecord{ua_ts, resident_ip, "Mozilla/5.0 resident"});
  inputs.ua_log.push_back(logs::UaRecord{ua_ts, visitor_ip, "Mozilla/5.0 visitor"});
  inputs.ua_log.push_back(logs::UaRecord{ua_ts, unleased_ip, "Mozilla/5.0 stranger"});
  const std::size_t total_ua = inputs.ua_log.size();

  const privacy::Anonymizer anon(util::SipHashKey{11, 22});
  const auto result =
      MeasurementPipeline::Process(std::move(inputs), anon, min_days);

  EXPECT_EQ(result.stats.ua_sightings, 1u);
  EXPECT_EQ(result.stats.ua_visitor_dropped, 1u);
  EXPECT_EQ(result.stats.ua_unattributed, 1u);
  EXPECT_EQ(result.stats.ua_sightings + result.stats.ua_visitor_dropped +
                result.stats.ua_unattributed,
            total_ua);

  // Only the resident survives the filter, and only its UA string is kept.
  ASSERT_EQ(result.dataset.num_devices(), 1u);
  const auto& obs = result.dataset.device(0).observations;
  ASSERT_EQ(obs.user_agents.size(), 1u);
  EXPECT_EQ(obs.user_agents[0], "Mozilla/5.0 resident");
}

// The full simulated collection must satisfy the same partition invariant;
// any attributed-or-not miscount would break the equality.
TEST_F(PipelineTest, UaCountersPartitionTheLog) {
  const auto& st = result_->stats;
  EXPECT_GT(st.ua_sightings, 0u);
  // The simulator emits visitors and pre-lease sightings, so both miss
  // counters should be exercised at this population size.
  EXPECT_GT(st.ua_visitor_dropped, 0u);
  // Re-run the offline path to learn the raw UA-log size and check the sum.
  sim::TrafficGenerator generator(config_->generator,
                                  world::ServiceCatalog::Default());
  generator.Run([](const flow::TapEvent&) {});
  const std::size_t total_ua = generator.ua_sightings().size();
  EXPECT_EQ(st.ua_sightings + st.ua_unattributed + st.ua_visitor_dropped,
            total_ua);
}

// A DNS answer whose name is the empty string still maps the flow: the flow
// carries kNoDomain (there is no name to intern), but its bytes count under
// bytes_by_domain[""], next to the named domains, at any thread count.
TEST(PipelineDomainFold, EmptyDomainNameKeepsItsBytes) {
  const util::Timestamp t0 = util::StudyCalendar::StartTs();
  const net::MacAddress mac(0x0017F2000001ULL);
  const net::Ipv4Address client(10, 16, 0, 1);
  const net::Ipv4Address nameless(198, 51, 100, 7);
  const net::Ipv4Address named(198, 51, 100, 8);
  const net::Ipv4Address unresolved(198, 51, 100, 9);

  RawInputs inputs;
  inputs.dhcp_log.push_back(
      dhcp::Lease{mac, client, t0, t0 + 40 * util::kSecondsPerDay});
  inputs.dns_log.push_back(dns::Resolution{t0, mac, "", nameless, 3600});
  inputs.dns_log.push_back(dns::Resolution{t0, mac, "example.org", named, 3600});
  std::uint64_t bytes_to[3] = {0, 0, 0};
  const net::Ipv4Address servers[3] = {nameless, named, unresolved};
  for (int day = 0; day < 16; ++day) {
    for (int s = 0; s < 3; ++s) {
      flow::FlowRecord rec;
      rec.start = t0 + day * util::kSecondsPerDay + 600 * s;
      rec.duration_s = 5.0;
      rec.client_ip = client;
      rec.server_ip = servers[s];
      rec.server_port = 443;
      rec.bytes_up = 100 + static_cast<std::uint64_t>(day);
      rec.bytes_down = 1000 * static_cast<std::uint64_t>(s + 1);
      bytes_to[s] += rec.total_bytes();
      inputs.flows.push_back(rec);
    }
  }

  const privacy::Anonymizer anon(util::SipHashKey{11, 22});
  for (const int threads : {1, 4}) {
    const auto result = MeasurementPipeline::Process(inputs, anon, 14, threads);
    ASSERT_EQ(result.dataset.num_devices(), 1u);
    const auto& obs = result.dataset.device(0).observations;
    ASSERT_EQ(obs.bytes_by_domain.size(), 2u) << "threads=" << threads;
    EXPECT_EQ(obs.bytes_by_domain.at(""), bytes_to[0]) << "threads=" << threads;
    EXPECT_EQ(obs.bytes_by_domain.at("example.org"), bytes_to[1]);
    EXPECT_EQ(obs.total_bytes, bytes_to[0] + bytes_to[1] + bytes_to[2]);
    EXPECT_EQ(obs.flow_count, 48u);
    EXPECT_EQ(result.dataset.num_domains(), 2u);  // "" and example.org
    for (const Flow& f : result.dataset.flows()) {
      if (f.server_ip == named) {
        EXPECT_EQ(result.dataset.DomainName(f.domain), "example.org");
      } else {
        EXPECT_EQ(f.domain, kNoDomain);
      }
    }
  }
}

// The direct children of pipeline/process account for its time: no stage of
// Process runs outside a named span.
TEST(PipelineSpans, ChildrenCoverProcess) {
  constexpr std::string_view kChildren[] = {
      "pipeline/indexes",
      "pipeline/pass1_attribution",
      "pipeline/pass2_retention_dns",
      "pipeline/pass3_assemble",
      "pipeline/finalize",
      "pipeline/observations",
      "pipeline/ua_sightings",
  };
  for (const int threads : {1, 4}) {
    StudyConfig config = StudyConfig::Small(60, 2020);
    config.threads = threads;
    obs::ResetMetrics();
    obs::SetMetricsEnabled(true);
    (void)MeasurementPipeline::Collect(config);
    obs::SetMetricsEnabled(false);
    std::uint64_t process_us = 0;
    std::uint64_t children_us = 0;
    for (const auto& h : obs::SnapshotMetrics().histograms) {
      if (h.name == "pipeline/process") {
        EXPECT_EQ(h.count, 1u);
        process_us = h.sum;
      }
      for (const std::string_view child : kChildren) {
        if (h.name == child) children_us += h.sum;
      }
    }
    obs::ResetMetrics();
    ASSERT_GT(process_us, 0u) << "threads=" << threads;
    EXPECT_GE(static_cast<double>(children_us), 0.9 * static_cast<double>(process_us))
        << "threads=" << threads << ": children " << children_us << " us of "
        << process_us << " us";
  }
}

TEST_F(PipelineTest, DifferentSeedsProduceDifferentPseudonyms) {
  auto cfg2 = *config_;
  cfg2.generator.population.seed = config_->generator.population.seed + 1;
  const auto anon1 = MeasurementPipeline::MakeAnonymizer(*config_);
  const auto anon2 = MeasurementPipeline::MakeAnonymizer(cfg2);
  const net::MacAddress mac(0x123456789ABCULL);
  EXPECT_NE(anon1.AnonymizeMac(mac), anon2.AnonymizeMac(mac));
}

}  // namespace
}  // namespace lockdown::core
