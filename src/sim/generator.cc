#include "sim/generator.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <thread>
#include <utility>

#include "sim/parameters.h"
#include "sim/timeline.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace lockdown::sim {

namespace p = params;
using flow::EventKind;
using flow::TapEvent;
using util::StudyCalendar;
using util::Timestamp;

namespace {

// Puts one day's events in delivery order. std::sort is not stable, so the
// order of equal-time events is whatever this exact call makes of the
// emission order — which thread makes the call does not matter.
void SortByTime(std::vector<TapEvent>& events) {
  std::sort(events.begin(), events.end(),
            [](const TapEvent& a, const TapEvent& b) { return a.ts < b.ts; });
}

// Devices per planning chunk. Each device plans into its own slot, so the
// grain only trades scheduling overhead against balance.
constexpr std::size_t kDeviceGrain = 32;

// Sorts each day's events and hands them to the sink on one helper thread,
// so sorting and the sink (tap exclusion + flow assembly in Collect) overlap
// the next day's planning and emission. One day may wait in the slot while
// the helper delivers the previous one; Submit blocks while the slot is
// full. Calls to the sink stay serial and in submission order. The first
// exception the sink throws stops delivery: Submit then returns false, and
// Finish rethrows it after joining the helper.
class TapDelivery {
 public:
  explicit TapDelivery(const TrafficGenerator::TapSink& sink)
      : sink_(sink), helper_([this] { Deliver(); }) {}

  TapDelivery(const TapDelivery&) = delete;
  TapDelivery& operator=(const TapDelivery&) = delete;

  // Joins on every path, so an exception from generation cannot leave the
  // helper running against a dead sink.
  ~TapDelivery() {
    Close();
    if (helper_.joinable()) helper_.join();
  }

  // Queues `events` for delivery and hands back an empty buffer in its
  // place. Returns false once the sink has failed.
  bool Submit(std::vector<TapEvent>& events) {
    const util::MutexLock lock(mu_);
    slot_free_.Wait(mu_, [this] { return !full_ || error_; });
    if (error_) return false;
    std::swap(slot_, events);
    full_ = true;
    slot_full_.NotifyOne();
    return true;
  }

  // Delivers whatever is queued, joins the helper, and rethrows the sink's
  // exception, if any.
  void Finish() {
    Close();
    helper_.join();
    std::exception_ptr error;
    {
      const util::MutexLock lock(mu_);
      error = error_;
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  void Close() {
    const util::MutexLock lock(mu_);
    closed_ = true;
    slot_full_.NotifyOne();
  }

  // The helper's entry point: nothing may escape it, so any exception is
  // recorded for Submit and Finish.
  void Deliver() {
    std::vector<TapEvent> batch;
    try {
      while (Take(batch)) {
        SortByTime(batch);
        for (const TapEvent& ev : batch) sink_(ev);
        batch.clear();
      }
    } catch (...) {
      const util::MutexLock lock(mu_);
      error_ = std::current_exception();
      slot_free_.NotifyOne();
    }
  }

  // Waits for the next queued day and swaps it into `batch` (which must be
  // empty). Returns false once the queue is closed and drained.
  bool Take(std::vector<TapEvent>& batch) {
    const util::MutexLock lock(mu_);
    slot_full_.Wait(mu_, [this] { return full_ || closed_; });
    if (!full_) return false;
    std::swap(batch, slot_);
    full_ = false;
    slot_free_.NotifyOne();
    return true;
  }

  const TrafficGenerator::TapSink& sink_;
  util::Mutex mu_;
  util::CondVar slot_full_;
  util::CondVar slot_free_;
  std::vector<TapEvent> slot_ GUARDED_BY(mu_);
  bool full_ GUARDED_BY(mu_) = false;
  bool closed_ GUARDED_BY(mu_) = false;
  std::exception_ptr error_ GUARDED_BY(mu_);
  std::thread helper_;  // last: starts after every field above exists
};

}  // namespace

TrafficGenerator::TrafficGenerator(GeneratorConfig config,
                                   const world::ServiceCatalog& catalog)
    : config_(config),
      catalog_(&catalog),
      population_(config.population),
      activity_(catalog),
      dhcp_({config.client_pool}, config.dhcp,
            util::Pcg32(config.population.seed, 0xD4C9)),
      resolver_(
          [&catalog](std::string_view qname) { return catalog.ResolveHost(qname); },
          dns::ResolverConfig{config.dns_ttl, 0},
          util::Pcg32(config.population.seed, 0xD45)),
      master_rng_(config.population.seed, 0x7AFF1C),
      port_counter_(population_.devices().size(), 0) {}

bool TrafficGenerator::DeviceActiveToday(const SimDevice& dev, int day,
                                         util::Pcg32& rng) const {
  const StudentPersona& s = population_.student_of(dev);
  if (s.leaves_campus && day >= s.departure_day) return false;
  if (day < dev.first_active_day) return false;

  const bool weekend =
      util::IsWeekend(util::WeekdayOf(StudyCalendar::DateAt(day)));
  const bool shutdown = PandemicTimeline::IsShutdown(day);
  double prob = 0.0;
  switch (dev.kind) {
    case DeviceKind::kPhone:
    case DeviceKind::kLaptop:
    case DeviceKind::kDesktop:
      prob = shutdown ? (weekend ? p::kWeekendActiveShutdown : p::kWeekdayActiveShutdown)
                      : (weekend ? p::kWeekendActive : p::kWeekdayActive);
      break;
    case DeviceKind::kTablet:
      prob = shutdown ? 0.80 : 0.55;
      break;
    case DeviceKind::kIotSmall:
    case DeviceKind::kIotTv:
      prob = 0.97;  // always-on while the owner is on campus
      break;
    case DeviceKind::kSwitch:
    case DeviceKind::kConsoleOther:
      prob = shutdown ? p::kConsoleActiveShutdown : p::kConsoleActivePre;
      break;
    case DeviceKind::kMiscGadget:
      prob = shutdown ? p::kSecondaryActiveShutdown : p::kSecondaryActivePre;
      break;
  }
  return rng.Bernoulli(prob);
}

void TrafficGenerator::EmitSession(const SimDevice& dev, const SessionPlan& plan,
                                   bool expose_ua, util::Pcg32& rng,
                                   std::vector<TapEvent>& events) {
  const Timestamp duration_s =
      std::max<Timestamp>(static_cast<Timestamp>(plan.minutes * 60.0), 10);
  const net::Ipv4Address client_ip = dhcp_.Acquire(dev.mac, plan.start);

  bool ua_pending = expose_ua;
  for (const FlowPlan& f : plan.flows) {
    const auto fstart =
        plan.start + static_cast<Timestamp>(f.start_frac * static_cast<double>(duration_s));
    auto fend =
        plan.start + static_cast<Timestamp>(f.end_frac * static_cast<double>(duration_s));
    if (fend <= fstart) fend = fstart + 1;

    net::Ipv4Address server_ip;
    if (f.raw_ip) {
      const net::Cidr block = catalog_->Get(f.service).block;
      server_ip = block.At(1 + rng.UniformInt(0, static_cast<std::int64_t>(
                                                     block.size()) - 3));
    } else {
      const auto resolved = resolver_.Resolve(dev.mac, f.host, fstart);
      if (!resolved) continue;  // NXDOMAIN: nothing to connect to
      server_ip = *resolved;
    }

    net::FiveTuple tuple;
    tuple.src_ip = client_ip;
    tuple.dst_ip = server_ip;
    tuple.src_port =
        static_cast<net::Port>(32768 + (port_counter_[dev.index]++ % 28000));
    tuple.dst_port = f.port;
    tuple.proto = f.proto;

    if (ua_pending && !f.raw_ip) {
      const auto corpus = world::UserAgentsFor(dev.ua_platform);
      if (!corpus.empty()) {
        ua_sightings_.push_back(
            UaSighting{fstart, client_ip,
                       corpus[dev.index % corpus.size()]});
      }
      ua_pending = false;
    }

    // Long flows must show periodic activity or Zeek-style inactivity
    // timeouts would split them: chunk bytes into <=5-minute data events.
    const Timestamp flow_dur = fend - fstart;
    const int chunks =
        std::max(1, static_cast<int>(flow_dur / (5 * util::kSecondsPerMinute)));
    events.push_back(TapEvent{fstart, EventKind::kOpen, tuple, 0, 0});
    std::uint64_t up_left = f.bytes_up;
    std::uint64_t down_left = f.bytes_down;
    for (int c = 0; c < chunks - 1; ++c) {
      const Timestamp ts =
          fstart + flow_dur * (c + 1) / chunks;
      const std::uint64_t up = up_left / static_cast<std::uint64_t>(chunks - c);
      const std::uint64_t down = down_left / static_cast<std::uint64_t>(chunks - c);
      up_left -= up;
      down_left -= down;
      events.push_back(TapEvent{ts, EventKind::kData, tuple, up, down});
    }
    events.push_back(TapEvent{fend, EventKind::kClose, tuple, up_left, down_left});
  }
}

void TrafficGenerator::PlanDevice(const SimDevice& dev, int day,
                                  DevicePlan& out) const {
  out.plans.clear();
  // Per-(device, day) stream: identical configs replay identical days.
  out.rng = master_rng_.Fork(static_cast<std::uint64_t>(dev.index) * 131071ULL +
                             static_cast<std::uint64_t>(day));
  if (!DeviceActiveToday(dev, day, out.rng)) return;
  activity_.PlanDay(population_, dev, day, out.rng, out.plans);
  if (out.plans.empty()) return;
  std::sort(out.plans.begin(), out.plans.end(),
            [](const SessionPlan& a, const SessionPlan& b) { return a.start < b.start; });
  // At most one session a day leaks a cleartext UA, scaled by how chatty the
  // device's apps are in plaintext.
  out.ua_session =
      out.rng.Bernoulli(dev.ua_visibility)
          ? out.rng.NextBounded(static_cast<std::uint32_t>(out.plans.size()))
          : out.plans.size();
}

void TrafficGenerator::GenerateDay(int day, const util::ThreadPool& pool,
                                   DayScratch& scratch,
                                   std::vector<TapEvent>& events) {
  const std::vector<SimDevice>& devices = population_.devices();
  std::vector<DevicePlan>& slots = scratch.slots;
  slots.resize(devices.size());
  pool.ParallelFor(devices.size(), kDeviceGrain,
                   [&](std::size_t, std::size_t begin, std::size_t end) {
                     for (std::size_t i = begin; i < end; ++i) {
                       PlanDevice(devices[i], day, slots[i]);
                     }
                   });
  // Queue in device order: the sort and fold below see exactly the sequence
  // a serial device loop would build.
  std::vector<PendingSession>& sessions = scratch.sessions;
  sessions.clear();
  for (std::uint32_t d = 0; d < slots.size(); ++d) {
    const DevicePlan& slot = slots[d];
    for (std::size_t i = 0; i < slot.plans.size(); ++i) {
      sessions.push_back(PendingSession{slot.plans[i].start, &slot.plans[i], d,
                                        i == slot.ua_session});
    }
  }
  // Sessions must reach the DHCP server and resolver in global time order
  // — feeding them per-device would let one device's evening resolutions
  // poison the shared DNS cache (and log) for every other device's morning.
  // stable_sort preserves the per-device ordering the DHCP lease logic
  // relies on.
  std::stable_sort(sessions.begin(), sessions.end(),
                   [](const PendingSession& a, const PendingSession& b) {
                     return a.start < b.start;
                   });
  events.clear();
  for (const PendingSession& ps : sessions) {
    EmitSession(devices[ps.device], *ps.plan, ps.expose_ua, slots[ps.device].rng,
                events);
  }
}

void TrafficGenerator::Run(const TapSink& sink, int threads) {
  const util::ThreadPool pool(util::ResolveThreadCount(threads));
  DayScratch scratch;
  std::vector<TapEvent> events;
  if (pool.num_threads() <= 1) {
    for (int day = config_.first_day; day < config_.last_day; ++day) {
      GenerateDay(day, pool, scratch, events);
      SortByTime(events);
      for (const TapEvent& ev : events) sink(ev);
    }
    return;
  }
  TapDelivery delivery(sink);
  for (int day = config_.first_day; day < config_.last_day; ++day) {
    GenerateDay(day, pool, scratch, events);
    if (!delivery.Submit(events)) break;
  }
  delivery.Finish();
}

}  // namespace lockdown::sim
