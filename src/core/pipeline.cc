#include "core/pipeline.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "dhcp/normalizer.h"
#include "dns/mapper.h"
#include "flow/assembler.h"
#include "obs/obs.h"
#include "privacy/visitor_filter.h"
#include "sim/generator.h"
#include "util/hash.h"
#include "util/thread_pool.h"
#include "world/oui_db.h"

namespace lockdown::core {
namespace {

// Shard size for the parallel passes. Chunk boundaries depend only on the
// input length (util/thread_pool.h), never on the thread count, so the
// chunk-ordered merges below give byte-identical results at any parallelism.
constexpr std::size_t kFlowGrain = 16384;

// Per-flow outcome of the retention/mapping pass (pass 2).
enum Disposition : std::uint8_t {
  kDrop = 0,        // no covering DHCP lease
  kVisitor = 1,     // attributed, but the device failed the 14-day filter
  kKeep = 2,        // retained, server IP never resolved in the DNS log
  kKeepDomain = 3,  // retained, with an attributed domain
};

// Devices per chunk of the per-device observation fold.
constexpr std::size_t kDeviceGrain = 16;

// What one chunk of pass 3 saw first: the flows where each device and each
// mapped domain makes its first appearance in the chunk, in flow order.
// Merging these lists in chunk order replays the serial first-appearance
// order over the whole flow sequence.
struct Pass3Shard {
  std::vector<std::size_t> first_device_flows;
  std::vector<std::string_view> first_domains;
  std::uint64_t kept = 0;
  std::uint64_t visitors = 0;
  // Kept flows whose DNS name is the empty string: they carry kNoDomain like
  // unresolved flows, but their bytes still count under bytes_by_domain[""].
  std::vector<std::pair<DeviceIndex, std::uint64_t>> empty_domain_bytes;
};

Flow MakeFlow(const flow::FlowRecord& rec, DeviceIndex device, DomainId domain) {
  Flow f;
  f.start_offset_s =
      static_cast<std::uint32_t>(rec.start - util::StudyCalendar::StartTs());
  f.duration_s = static_cast<float>(rec.duration_s);
  f.device = device;
  f.domain = domain;
  f.server_ip = rec.server_ip;
  f.server_port = rec.server_port;
  f.proto = static_cast<std::uint8_t>(rec.proto);
  f.bytes_up = rec.bytes_up;
  f.bytes_down = rec.bytes_down;
  return f;
}

// A device's traffic totals and per-domain bytes from its finalized flows.
// Sorting the (domain, bytes) pairs turns each domain into one run, so each
// (device, domain) pair costs one string, not one per flow.
void FoldObservations(std::span<const Flow> flows, std::span<const std::string> names,
                      classify::DeviceObservations& obs,
                      std::vector<std::pair<DomainId, std::uint64_t>>& scratch) {
  scratch.clear();
  for (const Flow& f : flows) {
    obs.total_bytes += f.total_bytes();
    if (f.domain != kNoDomain) scratch.emplace_back(f.domain, f.total_bytes());
  }
  obs.flow_count += flows.size();
  std::sort(scratch.begin(), scratch.end());
  for (std::size_t i = 0; i < scratch.size();) {
    const DomainId domain = scratch[i].first;
    std::uint64_t bytes = 0;
    for (; i < scratch.size() && scratch[i].first == domain; ++i) bytes += scratch[i].second;
    obs.bytes_by_domain.emplace(names[domain], bytes);
  }
}

// Counters summarizing a finished Process call; values mirror the
// CollectionStats the caller already gets, so --metrics-out sees them too.
void RecordPipelineStats(const CollectionStats& stats,
                         std::uint64_t kept_flows) {
  if (!obs::MetricsEnabled()) return;
  obs::GetCounter("pipeline/raw_flows", "flows").Add(stats.raw_flows);
  obs::GetCounter("pipeline/unattributed_flows", "flows").Add(stats.unattributed);
  obs::GetCounter("pipeline/visitor_flows", "flows").Add(stats.visitor_flows);
  obs::GetCounter("pipeline/kept_flows", "flows").Add(kept_flows);
  obs::GetCounter("pipeline/devices_observed", "devices")
      .Add(stats.devices_observed);
  obs::GetCounter("pipeline/devices_retained", "devices")
      .Add(stats.devices_retained);
  obs::GetCounter("pipeline/ua_sightings", "records").Add(stats.ua_sightings);
}

}  // namespace

privacy::Anonymizer MeasurementPipeline::MakeAnonymizer(const StudyConfig& config) {
  // Per-run key derived from the seed so runs are reproducible; a deployment
  // would draw this from a CSPRNG and destroy it after processing.
  const std::uint64_t seed = config.generator.population.seed;
  return privacy::Anonymizer(util::SipHashKey{
      seed * 0x9E3779B97F4A7C15ULL + 0x1234, seed * 0xC2B2AE3D27D4EB4FULL + 0x5678});
}

CollectionResult MeasurementPipeline::Process(RawInputs inputs,
                                              const privacy::Anonymizer& anonymizer,
                                              int visitor_min_days,
                                              int threads) {
  OBS_SPAN("pipeline/process");
  CollectionResult result;
  CollectionStats& stats = result.stats;
  const std::size_t n = inputs.flows.size();
  stats.raw_flows = n;

  const util::ThreadPool pool(util::ResolveThreadCount(threads));
  const std::size_t num_chunks = util::ThreadPool::NumChunks(n, kFlowGrain);

  // --- Attribution indexes ---------------------------------------------------
  std::optional<dhcp::IpToMacNormalizer> normalizer_slot;
  std::optional<dns::IpToDomainMapper> mapper_slot;
  {
    OBS_SPAN("pipeline/indexes");
    normalizer_slot.emplace(inputs.dhcp_log);
    mapper_slot.emplace(inputs.dns_log);
  }
  const dhcp::IpToMacNormalizer& normalizer = *normalizer_slot;
  const dns::IpToDomainMapper& mapper = *mapper_slot;

  // --- Pass 1 (sharded): device attribution + visitor observation -------------
  // Each chunk runs its DHCP lookups and accumulates into thread-local shards
  // (a VisitorFilter and an unattributed counter); per-flow results land in
  // disjoint slots of the shared arrays. Shards merge in chunk order below —
  // day sets union order-independently, so the merged filter reproduces the
  // serial scan exactly.
  std::vector<std::uint64_t> record_macs;
  std::vector<privacy::DeviceId> device_ids;
  privacy::VisitorFilter visitors(visitor_min_days);
  {
    OBS_SPAN("pipeline/pass1_attribution");
    record_macs.assign(n, 0);
    device_ids.resize(n);
    std::vector<privacy::VisitorFilter> shard_visitors(
        num_chunks, privacy::VisitorFilter(visitor_min_days));
    std::vector<std::uint64_t> shard_unattributed(num_chunks, 0);
    pool.ParallelFor(n, kFlowGrain,
                     [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                       privacy::VisitorFilter& shard = shard_visitors[chunk];
                       for (std::size_t i = begin; i < end; ++i) {
                         const flow::FlowRecord& rec = inputs.flows[i];
                         const auto mac = normalizer.Lookup(rec.client_ip, rec.start);
                         if (!mac) {
                           ++shard_unattributed[chunk];
                           continue;
                         }
                         record_macs[i] = mac->value();
                         device_ids[i] = anonymizer.AnonymizeMac(*mac);
                         shard.Observe(device_ids[i], rec.start);
                       }
                     });
    for (std::size_t c = 0; c < num_chunks; ++c) {
      stats.unattributed += shard_unattributed[c];
      visitors.Merge(shard_visitors[c]);
    }
  }
  stats.devices_observed = visitors.num_observed();
  stats.devices_retained = visitors.num_retained();

  // --- Pass 2 (sharded): retention check + DNS mapping -------------------------
  // Reads the now-frozen visitor filter; writes disjoint per-flow slots. The
  // domain views point into the mapper, which outlives every use of them.
  std::vector<std::uint8_t> disposition;
  std::vector<std::string_view> domains;
  {
    OBS_SPAN("pipeline/pass2_retention_dns");
    disposition.assign(n, kDrop);
    domains.resize(n);
    pool.ParallelFor(n, kFlowGrain,
                     [&](std::size_t, std::size_t begin, std::size_t end) {
                       for (std::size_t i = begin; i < end; ++i) {
                         if (record_macs[i] == 0) continue;
                         if (!visitors.Retained(device_ids[i])) {
                           disposition[i] = kVisitor;
                           continue;
                         }
                         const flow::FlowRecord& rec = inputs.flows[i];
                         const auto domain = mapper.Lookup(rec.server_ip, rec.start);
                         if (domain) {
                           disposition[i] = kKeepDomain;
                           domains[i] = *domain;
                         } else {
                           disposition[i] = kKeep;
                         }
                       }
                     });
  }

  // --- Pass 3 (sharded): assemble the dataset in flow order -----------------
  // Device indices and interned-domain ids are assigned in first-appearance
  // order over the original flow sequence: each chunk lists its first
  // sightings, and the serial merge walks those lists in chunk order, so the
  // dataset is byte-identical to a serial build. Kept flows then land at
  // prefix-summed offsets of a presized array, in flow order.
  Dataset& ds = result.dataset;
  std::unordered_map<privacy::DeviceId, DeviceIndex, privacy::DeviceIdHash> index;
  std::vector<Pass3Shard> shards(num_chunks);
  {
    OBS_SPAN("pipeline/pass3_assemble");
    pool.ParallelFor(n, kFlowGrain, [&](std::size_t chunk, std::size_t begin,
                                        std::size_t end) {
      Pass3Shard& shard = shards[chunk];
      std::unordered_set<privacy::DeviceId, privacy::DeviceIdHash> devices_seen;
      std::unordered_set<std::string_view> domains_seen;
      for (std::size_t i = begin; i < end; ++i) {
        if (disposition[i] == kDrop) continue;
        if (disposition[i] == kVisitor) {
          ++shard.visitors;
          continue;
        }
        ++shard.kept;
        if (devices_seen.insert(device_ids[i]).second) {
          shard.first_device_flows.push_back(i);
        }
        if (disposition[i] == kKeepDomain && !domains[i].empty() &&
            domains_seen.insert(domains[i]).second) {
          shard.first_domains.push_back(domains[i]);
        }
      }
    });

    std::unordered_map<std::string_view, DomainId> domain_ids;
    std::vector<std::uint64_t> offsets(num_chunks + 1, 0);
    for (std::size_t c = 0; c < num_chunks; ++c) {
      for (const std::size_t i : shards[c].first_device_flows) {
        auto [it, inserted] = index.try_emplace(device_ids[i], 0);
        if (!inserted) continue;
        it->second = ds.AddDevice(device_ids[i]);
        const net::MacAddress mac(record_macs[i]);
        classify::DeviceObservations& obs = ds.device_mutable(it->second).observations;
        obs.oui = mac.oui();
        obs.locally_administered = world::OuiDatabase::IsLocallyAdministered(mac);
      }
      for (const std::string_view domain : shards[c].first_domains) {
        auto [it, inserted] = domain_ids.try_emplace(domain, kNoDomain);
        if (inserted) it->second = ds.InternDomain(domain);
      }
      stats.visitor_flows += shards[c].visitors;
      offsets[c + 1] = offsets[c] + shards[c].kept;
    }

    std::vector<Flow> flows(offsets[num_chunks]);
    pool.ParallelFor(n, kFlowGrain, [&](std::size_t chunk, std::size_t begin,
                                        std::size_t end) {
      std::uint64_t out = offsets[chunk];
      for (std::size_t i = begin; i < end; ++i) {
        if (disposition[i] < kKeep) continue;
        const DeviceIndex dev = index.find(device_ids[i])->second;
        DomainId domain = kNoDomain;
        if (disposition[i] == kKeepDomain) {
          if (domains[i].empty()) {
            shards[chunk].empty_domain_bytes.emplace_back(
                dev, inputs.flows[i].total_bytes());
          } else {
            domain = domain_ids.find(domains[i])->second;
          }
        }
        flows[out++] = MakeFlow(inputs.flows[i], dev, domain);
      }
    });
    ds.AdoptFlows(std::move(flows));
    // The raw flow records and per-flow side arrays are spent: release them
    // before Finalize allocates its scatter buffer.
    std::vector<flow::FlowRecord>().swap(inputs.flows);
    std::vector<std::uint64_t>().swap(record_macs);
    std::vector<privacy::DeviceId>().swap(device_ids);
    std::vector<std::uint8_t>().swap(disposition);
    std::vector<std::string_view>().swap(domains);
  }

  {
    OBS_SPAN("pipeline/finalize");
    ds.Finalize(pool);
  }

  // --- Per-device observations, folded over the finalized CSR ----------------
  {
    OBS_SPAN("pipeline/observations");
    pool.ParallelFor(ds.num_devices(), kDeviceGrain,
                     [&](std::size_t, std::size_t begin, std::size_t end) {
                       std::vector<std::pair<DomainId, std::uint64_t>> scratch;
                       for (std::size_t d = begin; d < end; ++d) {
                         const auto dev = static_cast<DeviceIndex>(d);
                         FoldObservations(ds.FlowsOfDevice(dev), ds.domains(),
                                          ds.device_mutable(dev).observations, scratch);
                       }
                     });
    for (const Pass3Shard& shard : shards) {
      for (const auto& [dev, bytes] : shard.empty_domain_bytes) {
        ds.device_mutable(dev).observations.bytes_by_domain[""] += bytes;
      }
    }
  }

  // --- User-Agent sightings ----------------------------------------------------
  // The lookups (DHCP scan + SipHash) shard like pass 1; the accounting fold
  // stays serial so AddUserAgent's first-seen dedup matches log order. Every
  // record lands in exactly one counter: sightings, unattributed (no covering
  // lease), or visitor_dropped (attributed to a device the filter discarded).
  {
    OBS_SPAN("pipeline/ua_sightings");
    const std::size_t num_ua = inputs.ua_log.size();
    std::vector<privacy::DeviceId> ua_ids(num_ua);
    std::vector<std::uint8_t> ua_attributed(num_ua, 0);
    pool.ParallelFor(num_ua, kFlowGrain,
                     [&](std::size_t, std::size_t begin, std::size_t end) {
                       for (std::size_t i = begin; i < end; ++i) {
                         const logs::UaRecord& ua = inputs.ua_log[i];
                         const auto mac = normalizer.Lookup(ua.client_ip, ua.ts);
                         if (!mac) continue;
                         ua_attributed[i] = 1;
                         ua_ids[i] = anonymizer.AnonymizeMac(*mac);
                       }
                     });
    for (std::size_t i = 0; i < num_ua; ++i) {
      if (!ua_attributed[i]) {
        ++stats.ua_unattributed;
        continue;
      }
      const auto it = index.find(ua_ids[i]);
      if (it == index.end()) {
        ++stats.ua_visitor_dropped;
        continue;
      }
      ds.device_mutable(it->second).observations.AddUserAgent(
          inputs.ua_log[i].user_agent);
      ++stats.ua_sightings;
    }
  }

  RecordPipelineStats(stats, ds.num_flows());
  return result;
}

CollectionResult MeasurementPipeline::Collect(const StudyConfig& config,
                                              const world::ServiceCatalog& catalog) {
  OBS_SPAN("pipeline/collect");
  // --- Stage 1: tap capture + flow extraction ---------------------------------
  sim::TrafficGenerator generator(config.generator, catalog);
  RawInputs inputs;
  std::uint64_t tap_excluded = 0;
  {
    OBS_SPAN("sim/generate");
    flow::Assembler assembler(flow::AssemblerConfig{},
                              [&inputs](const flow::FlowRecord& rec) {
                                inputs.flows.push_back(rec);
                              });
    // The sink may run on the generator's delivery thread; it touches only
    // the assembler, its flow vector and tap_excluded, and the generator's
    // logs are read after Run returns.
    generator.Run(
        [&](const flow::TapEvent& ev) {
          // Tap exclusion list (§3): traffic to these networks is never
          // mirrored.
          const auto svc = catalog.FindByIp(ev.tuple.dst_ip);
          if (svc && catalog.Get(*svc).tap_excluded) {
            ++tap_excluded;
            return;
          }
          assembler.Ingest(ev);
        },
        config.threads);
    assembler.Finish();
  }

  inputs.dhcp_log = generator.dhcp_log();
  inputs.dns_log = generator.dns_log();
  inputs.ua_log.reserve(generator.ua_sightings().size());
  for (const sim::UaSighting& ua : generator.ua_sightings()) {
    inputs.ua_log.push_back(
        logs::UaRecord{ua.ts, ua.client_ip, std::string(ua.user_agent)});
  }
  if (obs::MetricsEnabled()) {
    obs::GetCounter("sim/tap_excluded", "events").Add(tap_excluded);
  }

  // --- Stages 2-5 --------------------------------------------------------------
  CollectionResult result = Process(std::move(inputs), MakeAnonymizer(config),
                                    config.visitor_min_days, config.threads);
  result.stats.tap_excluded = tap_excluded;
  return result;
}

}  // namespace lockdown::core
