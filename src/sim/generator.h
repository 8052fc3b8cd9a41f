// The traffic generator: walks the study period day by day, decides which
// devices are active, plans their sessions, acquires DHCP leases, resolves
// hostnames through the campus resolver, and emits time-ordered tap events.
//
// The generator produces exactly the three inputs the paper's pipeline
// consumes (§3): 1) raw bidirectional traffic (tap events), 2) DHCP logs,
// 3) DNS logs — plus User-Agent sightings, which in reality ride inside the
// raw traffic.
#pragma once

#include <functional>
#include <string_view>
#include <vector>

#include "dhcp/server.h"
#include "dns/resolver.h"
#include "flow/event.h"
#include "sim/activity.h"
#include "sim/population.h"
#include "util/thread_pool.h"
#include "world/catalog.h"

namespace lockdown::sim {

struct GeneratorConfig {
  PopulationConfig population;
  /// Campus residential client pool.
  net::Cidr client_pool = net::Cidr(net::Ipv4Address(10, 0, 0, 0), 12);
  dhcp::ServerConfig dhcp;
  std::int32_t dns_ttl = 3600;
  /// Study-day window [first_day, last_day); defaults to the whole period.
  int first_day = 0;
  int last_day = util::StudyCalendar::NumDays();
};

/// A cleartext User-Agent observation at the tap.
struct UaSighting {
  util::Timestamp ts = 0;
  net::Ipv4Address client_ip;
  std::string_view user_agent;
};

class TrafficGenerator {
 public:
  using TapSink = std::function<void(const flow::TapEvent&)>;

  TrafficGenerator(GeneratorConfig config,
                   const world::ServiceCatalog& catalog =
                       world::ServiceCatalog::Default());

  /// Runs the simulation, delivering tap events in non-decreasing time order.
  ///
  /// `threads` (0 = LOCKDOWN_THREADS/hardware; see util::ResolveThreadCount)
  /// plans each day's devices in parallel and overlaps generation with
  /// delivery: while day d+1 is planned and emitted, one helper thread sorts
  /// day d's events and hands them to the sink. The sink's contract is the same at any
  /// thread count — calls are serial and in time order, possibly from that
  /// helper thread, so the sink must not touch this generator. Events, logs
  /// and sightings are byte-identical for every thread count. If the sink
  /// throws, Run rethrows the exception once the helper thread has joined.
  void Run(const TapSink& sink, int threads = 0);

  [[nodiscard]] const Population& population() const noexcept { return population_; }
  [[nodiscard]] const std::vector<dhcp::Lease>& dhcp_log() const noexcept {
    return dhcp_.log();
  }
  [[nodiscard]] const std::vector<dns::Resolution>& dns_log() const noexcept {
    return resolver_.log();
  }
  [[nodiscard]] const std::vector<UaSighting>& ua_sightings() const noexcept {
    return ua_sightings_;
  }
  [[nodiscard]] const world::ServiceCatalog& catalog() const noexcept {
    return *catalog_;
  }
  [[nodiscard]] const GeneratorConfig& config() const noexcept { return config_; }

  /// Whether the device generates any traffic on the given day (presence on
  /// campus + powered on). Exposed for tests of the departure model.
  [[nodiscard]] bool DeviceActiveToday(const SimDevice& dev, int day,
                                       util::Pcg32& rng) const;

 private:
  /// One device's sessions for one day; `plans` is empty when it is idle.
  struct DevicePlan {
    std::vector<SessionPlan> plans;
    util::Pcg32 rng{0};  ///< the (device, day) stream, continued by emission
    std::size_t ua_session = 0;  ///< index of the UA-leaking session, or size
  };
  /// A planned session queued for the day's time-ordered emission.
  struct PendingSession {
    util::Timestamp start = 0;
    const SessionPlan* plan = nullptr;
    std::uint32_t device = 0;
    bool expose_ua = false;
  };
  /// Buffers reused from day to day. Plans stay in their device's slot, so
  /// the worker that plans a device next frees its previous sessions.
  struct DayScratch {
    std::vector<DevicePlan> slots;
    std::vector<PendingSession> sessions;
  };

  /// Plans `dev`'s day into `out`. Touches no shared mutable state, so the
  /// devices of one day plan in parallel.
  void PlanDevice(const SimDevice& dev, int day, DevicePlan& out) const;
  /// Replaces `events` with one day's tap events in emission order; the
  /// caller sorts them by time. Planning runs under `pool`; emission stays
  /// serial.
  void GenerateDay(int day, const util::ThreadPool& pool, DayScratch& scratch,
                   std::vector<flow::TapEvent>& events);
  void EmitSession(const SimDevice& dev, const SessionPlan& plan,
                   bool expose_ua, util::Pcg32& rng,
                   std::vector<flow::TapEvent>& events);

  GeneratorConfig config_;
  const world::ServiceCatalog* catalog_;
  Population population_;
  ActivityModel activity_;
  dhcp::Server dhcp_;
  dns::Resolver resolver_;
  util::Pcg32 master_rng_;
  std::vector<UaSighting> ua_sightings_;
  std::vector<std::uint16_t> port_counter_;
};

}  // namespace lockdown::sim
