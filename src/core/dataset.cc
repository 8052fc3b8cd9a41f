#include "core/dataset.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "util/thread_pool.h"

namespace lockdown::core {
namespace {

// Finalize's scatter keeps one count per (chunk, device), so the flow array
// is cut into at most kMaxScatterChunks chunks of at least kScatterGrain
// flows. Both depend only on the flow count, never on the thread count.
constexpr std::size_t kScatterGrain = 16384;
constexpr std::size_t kMaxScatterChunks = 64;
// Devices per chunk of the per-device sort.
constexpr std::size_t kDeviceGrain = 16;

}  // namespace

Dataset::Dataset() {
  domains_.emplace_back("");  // kNoDomain
}

DomainId Dataset::InternDomain(std::string_view domain) {
  if (domain.empty()) return kNoDomain;
  const auto it = domain_index_.find(domain);
  if (it != domain_index_.end()) return it->second;
  const auto id = static_cast<DomainId>(domains_.size());
  domains_.emplace_back(domain);
  domain_index_.emplace(domains_.back(), id);
  return id;
}

DeviceIndex Dataset::AddDevice(privacy::DeviceId id) {
  const auto index = static_cast<DeviceIndex>(devices_.size());
  devices_.push_back(DeviceEntry{id, {}});
  return index;
}

void Dataset::AdoptFlows(std::vector<Flow> flows) {
  if (finalized_ || flows_borrowed()) {
    throw std::logic_error("Dataset::AdoptFlows after Finalize");
  }
  flows_ = std::move(flows);
}

void Dataset::Finalize() { Finalize(util::ThreadPool(1)); }

void Dataset::Finalize(const util::ThreadPool& pool) {
  if (flows_borrowed()) {
    throw std::logic_error("Dataset::Finalize on borrowed flows (already final)");
  }
  // One canonical order — a stable sort by (device, start), ties in
  // insertion order — regardless of libstdc++ sort internals or threads: the
  // parallel-equivalence tests compare datasets byte for byte. A stable
  // counting scatter groups the flows by device in insertion order; sorting
  // each device's run stably by start then gives exactly that order.
  const std::size_t n = flows_.size();
  const std::size_t num_devices = devices_.size();
  const std::size_t grain =
      std::max(kScatterGrain, (n + kMaxScatterChunks - 1) / kMaxScatterChunks);
  const std::size_t num_chunks = util::ThreadPool::NumChunks(n, grain);
  // cursor[c * num_devices + d]: chunk c's count of device d's flows, then
  // the slot its next such flow scatters to.
  std::vector<std::uint64_t> cursor(num_chunks * num_devices, 0);
  pool.ParallelFor(n, grain, [&](std::size_t chunk, std::size_t begin, std::size_t end) {
    std::uint64_t* counts = cursor.data() + chunk * num_devices;
    for (std::size_t i = begin; i < end; ++i) {
      if (flows_[i].device >= num_devices) {
        throw std::logic_error("Dataset::Finalize: flow of an unknown device");
      }
      ++counts[flows_[i].device];
    }
  });
  device_offsets_.assign(num_devices + 1, 0);
  for (std::size_t d = 0; d < num_devices; ++d) {
    std::uint64_t next = device_offsets_[d];
    for (std::size_t c = 0; c < num_chunks; ++c) {
      const std::uint64_t count = cursor[c * num_devices + d];
      cursor[c * num_devices + d] = next;
      next += count;
    }
    device_offsets_[d + 1] = next;
  }
  std::vector<Flow> sorted(n);
  pool.ParallelFor(n, grain, [&](std::size_t chunk, std::size_t begin, std::size_t end) {
    std::uint64_t* slots = cursor.data() + chunk * num_devices;
    for (std::size_t i = begin; i < end; ++i) sorted[slots[flows_[i].device]++] = flows_[i];
  });
  flows_ = std::move(sorted);
  cursor = {};
  pool.ParallelFor(num_devices, kDeviceGrain,
                   [&](std::size_t, std::size_t begin, std::size_t end) {
                     for (std::size_t d = begin; d < end; ++d) {
                       const auto first = flows_.begin() + static_cast<std::ptrdiff_t>(
                                                               device_offsets_[d]);
                       const auto last = flows_.begin() + static_cast<std::ptrdiff_t>(
                                                              device_offsets_[d + 1]);
                       std::stable_sort(first, last, [](const Flow& a, const Flow& b) {
                         return a.start_offset_s < b.start_offset_s;
                       });
                     }
                   });
  finalized_ = true;
}

void Dataset::BorrowFlows(std::span<const Flow> flows,
                          std::shared_ptr<const void> keepalive) {
  flows_.clear();
  flows_.shrink_to_fit();
  borrowed_flows_ = flows;
  flow_keepalive_ = std::move(keepalive);
}

void Dataset::RestoreDeviceIndex(std::vector<std::uint64_t> offsets) {
  if (offsets.size() != devices_.size() + 1 || offsets.front() != 0 ||
      offsets.back() != num_flows() ||
      !std::is_sorted(offsets.begin(), offsets.end())) {
    throw std::invalid_argument("Dataset::RestoreDeviceIndex: inconsistent CSR index");
  }
  device_offsets_ = std::move(offsets);
  finalized_ = true;
}

std::span<const Flow> Dataset::FlowsOfDevice(DeviceIndex i) const {
  if (!finalized_) throw std::logic_error("Dataset::FlowsOfDevice before Finalize");
  if (i >= devices_.size()) throw std::out_of_range("FlowsOfDevice: bad index");
  const std::uint64_t begin = device_offsets_[i];
  const std::uint64_t end = device_offsets_[i + 1];
  return flows().subspan(begin, end - begin);
}

std::string_view Dataset::DomainName(DomainId id) const {
  return domains_.at(id);
}

}  // namespace lockdown::core
