#include "sim/generator.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/timeline.h"

namespace lockdown::sim {
namespace {

using util::StudyCalendar;

GeneratorConfig SmallConfig(int students = 60, std::uint64_t seed = 2020) {
  GeneratorConfig cfg;
  cfg.population.num_students = students;
  cfg.population.seed = seed;
  return cfg;
}

TEST(TrafficGenerator, EventsNonDecreasingWithinTolerance) {
  TrafficGenerator gen(SmallConfig());
  util::Timestamp last = 0;
  std::uint64_t regressions = 0;
  gen.Run([&](const flow::TapEvent& ev) {
    // Sessions spanning midnight may deliver up to a few hours late relative
    // to the next day's first events; anything larger is an ordering bug.
    if (ev.ts + 12 * util::kSecondsPerHour < last) ++regressions;
    last = std::max(last, ev.ts);
  });
  EXPECT_EQ(regressions, 0u);
}

TEST(TrafficGenerator, DeterministicAcrossRuns) {
  std::vector<flow::TapEvent> a, b;
  TrafficGenerator g1(SmallConfig());
  g1.Run([&a](const flow::TapEvent& ev) { a.push_back(ev); });
  TrafficGenerator g2(SmallConfig());
  g2.Run([&b](const flow::TapEvent& ev) { b.push_back(ev); });
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); i += 97) {
    EXPECT_EQ(a[i].ts, b[i].ts);
    EXPECT_EQ(a[i].tuple, b[i].tuple);
    EXPECT_EQ(a[i].bytes_down, b[i].bytes_down);
  }
  EXPECT_EQ(g1.dhcp_log().size(), g2.dhcp_log().size());
  EXPECT_EQ(g1.dns_log().size(), g2.dns_log().size());
}

TEST(TrafficGenerator, ClientsComeFromCampusPool) {
  GeneratorConfig cfg = SmallConfig(40);
  cfg.last_day = 20;  // keep it quick
  TrafficGenerator gen(cfg);
  gen.Run([&cfg](const flow::TapEvent& ev) {
    EXPECT_TRUE(cfg.client_pool.Contains(ev.tuple.src_ip));
    EXPECT_FALSE(cfg.client_pool.Contains(ev.tuple.dst_ip));
  });
}

TEST(TrafficGenerator, ServersBelongToCatalog) {
  GeneratorConfig cfg = SmallConfig(40);
  cfg.last_day = 10;
  TrafficGenerator gen(cfg);
  const auto& catalog = gen.catalog();
  gen.Run([&catalog](const flow::TapEvent& ev) {
    EXPECT_TRUE(catalog.FindByIp(ev.tuple.dst_ip).has_value())
        << ev.tuple.dst_ip.ToString();
  });
}

TEST(TrafficGenerator, DepartedStudentsGoSilent) {
  GeneratorConfig cfg = SmallConfig(120);
  TrafficGenerator gen(cfg);
  // Track last activity day per client IP owner via DHCP (MAC-level).
  gen.Run([](const flow::TapEvent&) {});
  const Population& pop = gen.population();
  // Find a departing student's devices and assert no lease activity after
  // departure (leases are acquired only when traffic is generated).
  std::unordered_set<std::uint64_t> departed_macs;
  std::unordered_map<std::uint64_t, int> departure_by_mac;
  for (const SimDevice& d : pop.devices()) {
    const StudentPersona& s = pop.student_of(d);
    if (s.leaves_campus) {
      departed_macs.insert(d.mac.value());
      departure_by_mac[d.mac.value()] = s.departure_day;
    }
  }
  ASSERT_FALSE(departed_macs.empty());
  for (const dhcp::Lease& lease : gen.dhcp_log()) {
    const auto it = departure_by_mac.find(lease.mac.value());
    if (it == departure_by_mac.end()) continue;
    EXPECT_LT(StudyCalendar::DayIndex(lease.start), it->second)
        << lease.mac.ToString();
  }
}

TEST(TrafficGenerator, NewDevicesSilentBeforeFirstActiveDay) {
  TrafficGenerator gen(SmallConfig(200));
  gen.Run([](const flow::TapEvent&) {});
  const Population& pop = gen.population();
  std::unordered_map<std::uint64_t, int> first_day_by_mac;
  for (const SimDevice& d : pop.devices()) {
    if (d.first_active_day > 0) first_day_by_mac[d.mac.value()] = d.first_active_day;
  }
  for (const dhcp::Lease& lease : gen.dhcp_log()) {
    const auto it = first_day_by_mac.find(lease.mac.value());
    if (it == first_day_by_mac.end()) continue;
    EXPECT_GE(StudyCalendar::DayIndex(lease.start), it->second);
  }
}

TEST(TrafficGenerator, DnsLogCoversNamedTraffic) {
  GeneratorConfig cfg = SmallConfig(40);
  cfg.last_day = 10;
  TrafficGenerator gen(cfg);
  gen.Run([](const flow::TapEvent&) {});
  EXPECT_FALSE(gen.dns_log().empty());
  // Every logged resolution answers with an address of the owning service.
  const auto& catalog = gen.catalog();
  for (const dns::Resolution& r : gen.dns_log()) {
    const auto svc = catalog.FindByHost(r.qname);
    ASSERT_TRUE(svc.has_value()) << r.qname;
    EXPECT_TRUE(catalog.Get(*svc).block.Contains(r.answer));
  }
}

TEST(TrafficGenerator, UaSightingsReferenceRealCorpus) {
  TrafficGenerator gen(SmallConfig(80));
  gen.Run([](const flow::TapEvent&) {});
  ASSERT_FALSE(gen.ua_sightings().empty());
  for (const UaSighting& ua : gen.ua_sightings()) {
    EXPECT_FALSE(ua.user_agent.empty());
    EXPECT_TRUE(gen.config().client_pool.Contains(ua.client_ip));
  }
}

TEST(TrafficGenerator, DayWindowRestrictsOutput) {
  GeneratorConfig cfg = SmallConfig(40);
  cfg.first_day = 10;
  cfg.last_day = 12;
  TrafficGenerator gen(cfg);
  util::Timestamp lo = StudyCalendar::StartTs() + 10 * util::kSecondsPerDay;
  util::Timestamp hi = StudyCalendar::StartTs() + 13 * util::kSecondsPerDay;
  std::uint64_t n = 0;
  gen.Run([&](const flow::TapEvent& ev) {
    ++n;
    EXPECT_GE(ev.ts, lo);
    EXPECT_LT(ev.ts, hi);  // sessions can spill a little past midnight
  });
  EXPECT_GT(n, 0u);
}

TEST(TrafficGenerator, ActiveDeviceCountCollapsesMidMarch) {
  TrafficGenerator gen(SmallConfig(150));
  // Active MACs per day via DHCP acquisitions.
  gen.Run([](const flow::TapEvent&) {});
  std::vector<std::unordered_set<std::uint64_t>> daily(
      static_cast<std::size_t>(StudyCalendar::NumDays()));
  for (const dhcp::Lease& lease : gen.dhcp_log()) {
    const int day = StudyCalendar::DayIndex(lease.start);
    if (day >= 0 && day < StudyCalendar::NumDays()) {
      daily[static_cast<std::size_t>(day)].insert(lease.mac.value());
    }
  }
  const std::size_t feb_peak = daily[12].size();   // mid-February
  const std::size_t may = daily[100].size();       // mid-May
  EXPECT_GT(feb_peak, 2 * may);
}

// Everything one Run produces, for byte-for-byte comparison across thread
// counts.
struct RunOutput {
  std::vector<flow::TapEvent> events;
  std::vector<dhcp::Lease> dhcp;
  std::vector<dns::Resolution> dns;
  std::vector<UaSighting> ua;
};

RunOutput RunWithThreads(const GeneratorConfig& cfg, int threads) {
  TrafficGenerator gen(cfg);
  RunOutput out;
  gen.Run([&out](const flow::TapEvent& ev) { out.events.push_back(ev); }, threads);
  out.dhcp = gen.dhcp_log();
  out.dns = gen.dns_log();
  out.ua = gen.ua_sightings();
  return out;
}

void ExpectRunsIdentical(const RunOutput& a, const RunOutput& b, int threads) {
  ASSERT_EQ(a.events.size(), b.events.size()) << "threads=" << threads;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    const flow::TapEvent& x = a.events[i];
    const flow::TapEvent& y = b.events[i];
    ASSERT_TRUE(x.ts == y.ts && x.kind == y.kind && x.tuple == y.tuple &&
                x.bytes_up == y.bytes_up && x.bytes_down == y.bytes_down)
        << "threads=" << threads << " event " << i;
  }
  EXPECT_EQ(a.dhcp, b.dhcp) << "threads=" << threads;
  ASSERT_EQ(a.dns.size(), b.dns.size()) << "threads=" << threads;
  for (std::size_t i = 0; i < a.dns.size(); ++i) {
    const dns::Resolution& x = a.dns[i];
    const dns::Resolution& y = b.dns[i];
    ASSERT_TRUE(x.ts == y.ts && x.client == y.client && x.qname == y.qname &&
                x.answer == y.answer && x.ttl == y.ttl)
        << "threads=" << threads << " resolution " << i;
  }
  ASSERT_EQ(a.ua.size(), b.ua.size()) << "threads=" << threads;
  for (std::size_t i = 0; i < a.ua.size(); ++i) {
    ASSERT_TRUE(a.ua[i].ts == b.ua[i].ts && a.ua[i].client_ip == b.ua[i].client_ip &&
                a.ua[i].user_agent == b.ua[i].user_agent)
        << "threads=" << threads << " sighting " << i;
  }
}

// Parallel day planning and the overlapped delivery thread must not change a
// single byte: same events in the same order, same DHCP/DNS logs, same UA
// sightings, whatever the thread count.
TEST(TrafficGenerator, OutputIdenticalAcrossThreadCounts) {
  const GeneratorConfig cfg = SmallConfig(60, 909);
  const RunOutput serial = RunWithThreads(cfg, 1);
  ASSERT_FALSE(serial.events.empty());
  ASSERT_FALSE(serial.ua.empty());
  for (const int threads : {2, 3, 8}) {
    ExpectRunsIdentical(serial, RunWithThreads(cfg, threads), threads);
  }
}

// A sink that throws stops the run: Run rethrows the sink's own exception,
// and once it returns the delivery thread is gone — no call reaches the sink
// afterwards.
TEST(TrafficGenerator, ThrowingSinkPropagatesOutOfRun) {
  GeneratorConfig cfg = SmallConfig(40);
  cfg.last_day = 30;
  for (const int threads : {1, 4}) {
    for (const std::uint64_t throw_at : {std::uint64_t{0}, std::uint64_t{5000}}) {
      TrafficGenerator gen(cfg);
      std::uint64_t calls = 0;
      const auto sink = [&calls, throw_at](const flow::TapEvent&) {
        if (calls++ == throw_at) throw std::runtime_error("sink failed");
      };
      try {
        gen.Run(sink, threads);
        ADD_FAILURE() << "Run returned normally, threads=" << threads;
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "sink failed");
      }
      EXPECT_EQ(calls, throw_at + 1) << "threads=" << threads;
    }
  }
}

// The last day is the one still queued when generation ends: a sink failing
// there must surface from Run just the same.
TEST(TrafficGenerator, ThrowingSinkOnLastDayPropagates) {
  GeneratorConfig cfg = SmallConfig(40);
  cfg.first_day = 20;
  cfg.last_day = 23;
  std::uint64_t total = 0;
  TrafficGenerator(cfg).Run([&total](const flow::TapEvent&) { ++total; }, 1);
  ASSERT_GT(total, 0u);
  TrafficGenerator gen(cfg);
  std::uint64_t calls = 0;
  EXPECT_THROW(gen.Run(
                   [&calls, total](const flow::TapEvent&) {
                     if (++calls == total) throw std::runtime_error("last event");
                   },
                   4),
               std::runtime_error);
  EXPECT_EQ(calls, total);
}

}  // namespace
}  // namespace lockdown::sim
