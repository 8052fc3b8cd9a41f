#include "core/dataset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.h"
#include "util/thread_pool.h"

namespace lockdown::core {
namespace {

Flow MakeFlow(DeviceIndex dev, std::uint32_t start, DomainId domain = kNoDomain) {
  Flow f;
  f.device = dev;
  f.start_offset_s = start;
  f.duration_s = 10.0F;
  f.domain = domain;
  f.bytes_down = 100;
  f.bytes_up = 10;
  return f;
}

TEST(Dataset, DomainInterning) {
  Dataset ds;
  const DomainId a = ds.InternDomain("zoom.us");
  const DomainId b = ds.InternDomain("netflix.com");
  const DomainId a2 = ds.InternDomain("zoom.us");
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_NE(a, kNoDomain);
  EXPECT_EQ(ds.DomainName(a), "zoom.us");
  EXPECT_EQ(ds.DomainName(kNoDomain), "");
  EXPECT_EQ(ds.InternDomain(""), kNoDomain);
  EXPECT_EQ(ds.num_domains(), 3u);  // "", zoom.us, netflix.com
}

TEST(Dataset, DeviceRegistration) {
  Dataset ds;
  const DeviceIndex a = ds.AddDevice(privacy::DeviceId{111});
  const DeviceIndex b = ds.AddDevice(privacy::DeviceId{222});
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(ds.device(a).id.value, 111u);
  EXPECT_EQ(ds.num_devices(), 2u);
}

TEST(Dataset, FlowsOfDeviceAfterFinalize) {
  Dataset ds;
  const DeviceIndex a = ds.AddDevice(privacy::DeviceId{1});
  const DeviceIndex b = ds.AddDevice(privacy::DeviceId{2});
  const DeviceIndex c = ds.AddDevice(privacy::DeviceId{3});
  ds.AddFlow(MakeFlow(b, 300));
  ds.AddFlow(MakeFlow(a, 200));
  ds.AddFlow(MakeFlow(b, 100));
  ds.AddFlow(MakeFlow(a, 50));
  ds.Finalize();
  const auto a_flows = ds.FlowsOfDevice(a);
  ASSERT_EQ(a_flows.size(), 2u);
  EXPECT_EQ(a_flows[0].start_offset_s, 50u);  // time-sorted per device
  EXPECT_EQ(a_flows[1].start_offset_s, 200u);
  EXPECT_EQ(ds.FlowsOfDevice(b).size(), 2u);
  EXPECT_TRUE(ds.FlowsOfDevice(c).empty());
  EXPECT_EQ(ds.num_flows(), 4u);
}

TEST(Dataset, FlowsOfDeviceThrowsBeforeFinalize) {
  Dataset ds;
  const DeviceIndex a = ds.AddDevice(privacy::DeviceId{1});
  EXPECT_THROW((void)ds.FlowsOfDevice(a), std::logic_error);
}

TEST(Dataset, FlowsOfDeviceBoundsChecked) {
  Dataset ds;
  ds.Finalize();
  EXPECT_THROW((void)ds.FlowsOfDevice(0), std::out_of_range);
}

TEST(Dataset, TimeHelpers) {
  Flow f;
  f.start_offset_s = 3 * util::kSecondsPerDay + 7 * util::kSecondsPerHour;
  EXPECT_EQ(Dataset::DayOf(f), 3);
  EXPECT_EQ(Dataset::StartOf(f),
            util::StudyCalendar::StartTs() + f.start_offset_s);
}

TEST(Dataset, ObservationsMutable) {
  Dataset ds;
  const DeviceIndex a = ds.AddDevice(privacy::DeviceId{1});
  ds.device_mutable(a).observations.total_bytes = 42;
  ds.device_mutable(a).observations.AddUserAgent("agent");
  ds.device_mutable(a).observations.AddUserAgent("agent");  // dedup
  EXPECT_EQ(ds.device(a).observations.total_bytes, 42u);
  EXPECT_EQ(ds.device(a).observations.user_agents.size(), 1u);
}

// Builds a dataset over `num_devices` devices from `flows` (bytes_up tags
// each flow with its insertion index, so order is observable) and checks
// that Finalize under pools of 1, 2, 3 and 8 lanes gives exactly the order
// of a stable sort by (device, start) plus the matching CSR offsets.
void ExpectFinalizeMatchesStableSort(std::size_t num_devices, std::vector<Flow> flows) {
  for (std::size_t i = 0; i < flows.size(); ++i) flows[i].bytes_up = i;
  std::vector<Flow> want = flows;
  std::stable_sort(want.begin(), want.end(), [](const Flow& a, const Flow& b) {
    if (a.device != b.device) return a.device < b.device;
    return a.start_offset_s < b.start_offset_s;
  });
  std::vector<std::uint64_t> want_offsets(num_devices + 1, 0);
  for (const Flow& f : flows) ++want_offsets[f.device + 1];
  for (std::size_t d = 1; d <= num_devices; ++d) want_offsets[d] += want_offsets[d - 1];

  for (const int threads : {1, 2, 3, 8}) {
    Dataset ds;
    for (std::size_t d = 0; d < num_devices; ++d) ds.AddDevice(privacy::DeviceId{d + 1});
    ds.AdoptFlows(flows);
    ds.Finalize(util::ThreadPool(threads));
    const auto got = ds.flows();
    ASSERT_EQ(got.size(), want.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i].bytes_up, want[i].bytes_up) << "threads=" << threads << " at " << i;
    }
    const auto offsets = ds.device_offsets();
    ASSERT_TRUE(std::equal(offsets.begin(), offsets.end(), want_offsets.begin(),
                           want_offsets.end()))
        << "threads=" << threads;
  }
}

// Enough flows for many scatter chunks, with ties everywhere: a few start
// seconds shared by many flows of the same device, devices interleaved in
// insertion order, and every fourth device without flows.
TEST(Dataset, ParallelFinalizeKeepsTiesInInsertionOrder) {
  constexpr std::size_t kDevices = 40;
  util::Pcg32 rng(7, 1);
  std::vector<Flow> flows;
  for (int i = 0; i < 200000; ++i) {
    auto dev = static_cast<DeviceIndex>(rng.NextBounded(kDevices));
    if (dev % 4 == 3) dev -= 1;
    flows.push_back(MakeFlow(dev, 60 * rng.NextBounded(5)));
  }
  ExpectFinalizeMatchesStableSort(kDevices, std::move(flows));
}

TEST(Dataset, ParallelFinalizeSingleDevice) {
  util::Pcg32 rng(8, 1);
  std::vector<Flow> flows;
  for (int i = 0; i < 100000; ++i) flows.push_back(MakeFlow(0, rng.NextBounded(3)));
  ExpectFinalizeMatchesStableSort(1, std::move(flows));
}

TEST(Dataset, ParallelFinalizeNoFlows) {
  ExpectFinalizeMatchesStableSort(5, {});
  ExpectFinalizeMatchesStableSort(0, {});
}

TEST(Dataset, FinalizeRejectsFlowOfUnknownDevice) {
  Dataset ds;
  ds.AddDevice(privacy::DeviceId{1});
  ds.AddFlow(MakeFlow(1, 0));
  EXPECT_THROW(ds.Finalize(), std::logic_error);
}

}  // namespace
}  // namespace lockdown::core
