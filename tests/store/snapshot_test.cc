// LDS snapshot store: round-trip property tests (Collect -> Save -> Load
// must reproduce the dataset and every downstream analysis exactly) and
// corruption tests (truncation, bit flips, bad magic/version all rejected
// with precise errors, never undefined behavior).
#include "store/snapshot.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>

#include "core/study.h"
#include "store/format.h"
#include "util/crc32c.h"

namespace lockdown::store {
namespace {

namespace fs = std::filesystem;

// --- Shared fixture: one small collected campus, snapshotted once -----------

struct SharedCampus {
  fs::path dir;
  fs::path file;
  core::CollectionResult fresh;

  SharedCampus() {
    dir = fs::temp_directory_path() /
          ("lds_test." + std::to_string(::getpid()));
    fs::create_directories(dir);
    file = dir / "campus.lds";
    fresh = core::MeasurementPipeline::Collect(core::StudyConfig::Small(60, 4));
    SaveSnapshot(file, fresh, SnapshotMeta{60, 4});
  }
  ~SharedCampus() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

const SharedCampus& Campus() {
  static const SharedCampus campus;
  return campus;
}

/// A scratch copy of the shared snapshot this test may corrupt freely.
fs::path ScratchCopy(const std::string& name) {
  const fs::path out = Campus().dir / name;
  fs::copy_file(Campus().file, out, fs::copy_options::overwrite_existing);
  return out;
}

void PatchByte(const fs::path& path, std::uint64_t offset, std::uint8_t value) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(reinterpret_cast<const char*>(&value), 1);
}

/// Flips the 0x20 bit of the byte at `offset`.
void FlipByte(const fs::path& path, std::uint64_t offset) {
  std::ifstream in(path, std::ios::binary);
  in.seekg(static_cast<std::streamoff>(offset));
  char original = 0;
  in.read(&original, 1);
  in.close();
  PatchByte(path, offset, static_cast<std::uint8_t>(original) ^ 0x20);
}

void ExpectLoadError(const fs::path& path, const std::string& message_part) {
  try {
    (void)LoadSnapshot(path);
    FAIL() << "expected store::Error containing '" << message_part << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(message_part), std::string::npos)
        << "actual message: " << e.what();
  }
}

void ExpectDatasetsEqual(const core::Dataset& a, const core::Dataset& b) {
  ASSERT_EQ(a.num_flows(), b.num_flows());
  ASSERT_EQ(a.num_devices(), b.num_devices());
  ASSERT_EQ(a.num_domains(), b.num_domains());

  for (std::size_t i = 0; i < a.num_flows(); ++i) {
    const core::Flow& fa = a.flows()[i];
    const core::Flow& fb = b.flows()[i];
    ASSERT_EQ(fa.start_offset_s, fb.start_offset_s) << "flow " << i;
    ASSERT_EQ(fa.duration_s, fb.duration_s) << "flow " << i;
    ASSERT_EQ(fa.device, fb.device) << "flow " << i;
    ASSERT_EQ(fa.domain, fb.domain) << "flow " << i;
    ASSERT_EQ(fa.server_ip.value(), fb.server_ip.value()) << "flow " << i;
    ASSERT_EQ(fa.server_port, fb.server_port) << "flow " << i;
    ASSERT_EQ(fa.proto, fb.proto) << "flow " << i;
    ASSERT_EQ(fa.bytes_up, fb.bytes_up) << "flow " << i;
    ASSERT_EQ(fa.bytes_down, fb.bytes_down) << "flow " << i;
  }
  for (core::DomainId d = 0; d < a.num_domains(); ++d) {
    ASSERT_EQ(a.DomainName(d), b.DomainName(d)) << "domain " << d;
  }
  for (core::DeviceIndex i = 0; i < a.num_devices(); ++i) {
    const core::DeviceEntry& da = a.device(i);
    const core::DeviceEntry& db = b.device(i);
    ASSERT_EQ(da.id.value, db.id.value) << "device " << i;
    ASSERT_EQ(da.observations.oui, db.observations.oui);
    ASSERT_EQ(da.observations.locally_administered,
              db.observations.locally_administered);
    ASSERT_EQ(da.observations.total_bytes, db.observations.total_bytes);
    ASSERT_EQ(da.observations.flow_count, db.observations.flow_count);
    ASSERT_EQ(da.observations.user_agents, db.observations.user_agents);
    ASSERT_EQ(da.observations.bytes_by_domain, db.observations.bytes_by_domain);
    ASSERT_EQ(a.FlowsOfDevice(i).size(), b.FlowsOfDevice(i).size());
  }
}

void ExpectStatsEqual(const core::CollectionStats& a,
                      const core::CollectionStats& b) {
  EXPECT_EQ(a.raw_flows, b.raw_flows);
  EXPECT_EQ(a.tap_excluded, b.tap_excluded);
  EXPECT_EQ(a.unattributed, b.unattributed);
  EXPECT_EQ(a.visitor_flows, b.visitor_flows);
  EXPECT_EQ(a.devices_observed, b.devices_observed);
  EXPECT_EQ(a.devices_retained, b.devices_retained);
  EXPECT_EQ(a.ua_sightings, b.ua_sightings);
  EXPECT_EQ(a.ua_unattributed, b.ua_unattributed);
  EXPECT_EQ(a.ua_visitor_dropped, b.ua_visitor_dropped);
}

// --- Round-trip properties ----------------------------------------------------

TEST(SnapshotRoundTrip, PreservesDatasetAndStats) {
  const LoadedSnapshot snap = LoadSnapshot(Campus().file);
  ExpectDatasetsEqual(Campus().fresh.dataset, snap.collection.dataset);
  ExpectStatsEqual(Campus().fresh.stats, snap.collection.stats);
  EXPECT_EQ(snap.info.meta.num_students, 60u);
  EXPECT_EQ(snap.info.meta.seed, 4u);
  EXPECT_EQ(snap.info.flow_stride, kFlowStride);
}

TEST(SnapshotRoundTrip, ZeroCopyAndPortablePathsAgree) {
  const LoadedSnapshot mmaped =
      LoadSnapshot(Campus().file, {LoadMode::kMmap});
  const LoadedSnapshot copied =
      LoadSnapshot(Campus().file, {LoadMode::kCopy});
  EXPECT_TRUE(mmaped.zero_copy);
  EXPECT_TRUE(mmaped.collection.dataset.flows_borrowed());
  EXPECT_FALSE(copied.zero_copy);
  EXPECT_FALSE(copied.collection.dataset.flows_borrowed());
  ExpectDatasetsEqual(mmaped.collection.dataset, copied.collection.dataset);
}

TEST(SnapshotRoundTrip, StudyOutputsIdentical) {
  // The paper-facing property: every figure computed from the loaded
  // snapshot must equal the figure computed from the fresh collection.
  const LoadedSnapshot snap = LoadSnapshot(Campus().file);
  const auto& catalog = world::ServiceCatalog::Default();
  const core::LockdownStudy fresh(Campus().fresh.dataset, catalog);
  const core::LockdownStudy loaded(snap.collection.dataset, catalog);

  const auto h1 = fresh.HeadlineStats();
  const auto h2 = loaded.HeadlineStats();
  EXPECT_EQ(h1.peak_active_devices, h2.peak_active_devices);
  EXPECT_EQ(h1.trough_active_devices, h2.trough_active_devices);
  EXPECT_EQ(h1.post_shutdown_users, h2.post_shutdown_users);
  EXPECT_EQ(h1.traffic_increase, h2.traffic_increase);
  EXPECT_EQ(h1.distinct_sites_increase, h2.distinct_sites_increase);
  EXPECT_EQ(h1.international_devices, h2.international_devices);
  EXPECT_EQ(h1.international_share, h2.international_share);

  const auto rows1 = fresh.ActiveDevicesPerDay();
  const auto rows2 = loaded.ActiveDevicesPerDay();
  ASSERT_EQ(rows1.size(), rows2.size());
  for (std::size_t i = 0; i < rows1.size(); ++i) {
    EXPECT_EQ(rows1[i].by_class, rows2[i].by_class) << "day " << i;
    EXPECT_EQ(rows1[i].total, rows2[i].total) << "day " << i;
  }

  const auto zoom1 = fresh.ZoomDailyBytes();
  const auto zoom2 = loaded.ZoomDailyBytes();
  ASSERT_EQ(zoom1.num_days(), zoom2.num_days());
  for (int i = 0; i < zoom1.num_days(); ++i) {
    EXPECT_EQ(zoom1.at(i), zoom2.at(i)) << "day " << i;
  }

  const auto sw1 = fresh.CountSwitches();
  const auto sw2 = loaded.CountSwitches();
  EXPECT_EQ(sw1.active_february, sw2.active_february);
  EXPECT_EQ(sw1.active_post_shutdown, sw2.active_post_shutdown);
  EXPECT_EQ(sw1.new_in_april_may, sw2.new_in_april_may);
}

TEST(SnapshotRoundTrip, SecondSaveOfLoadedSnapshotIsValid) {
  const LoadedSnapshot snap = LoadSnapshot(Campus().file);
  const fs::path resaved = Campus().dir / "resaved.lds";
  SaveSnapshot(resaved, snap.collection, snap.info.meta);
  VerifySnapshot(resaved);
  const LoadedSnapshot again = LoadSnapshot(resaved);
  ExpectDatasetsEqual(snap.collection.dataset, again.collection.dataset);
  fs::remove(resaved);
}

TEST(SnapshotRoundTrip, WriterIsDeterministic) {
  const fs::path a = Campus().dir / "det_a.lds";
  const fs::path b = Campus().dir / "det_b.lds";
  SaveSnapshot(a, Campus().fresh, SnapshotMeta{60, 4});
  SaveSnapshot(b, Campus().fresh, SnapshotMeta{60, 4});
  std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
  const std::string ca((std::istreambuf_iterator<char>(fa)), {});
  const std::string cb((std::istreambuf_iterator<char>(fb)), {});
  EXPECT_EQ(ca, cb);
  fs::remove(a);
  fs::remove(b);
}

TEST(SnapshotRoundTrip, OverwritesExistingFileAtomically) {
  const fs::path target = Campus().dir / "overwrite.lds";
  {
    std::ofstream junk(target, std::ios::binary);
    junk << "not a snapshot at all";
  }
  SaveSnapshot(target, Campus().fresh, {});
  VerifySnapshot(target);
  // No temporary files may remain next to the target.
  for (const auto& entry : fs::directory_iterator(Campus().dir)) {
    EXPECT_EQ(entry.path().string().find(".tmp."), std::string::npos)
        << "stray temp file: " << entry.path();
  }
  fs::remove(target);
}

TEST(SnapshotWriter, RejectsNonFinalizedDataset) {
  core::CollectionResult unfinalized;
  EXPECT_THROW(SaveSnapshot(Campus().dir / "nope.lds", unfinalized, {}), Error);
}

// --- Corruption and truncation ------------------------------------------------

TEST(SnapshotCorruption, BadMagicRejected) {
  const fs::path p = Campus().dir / "magic.lds";
  {
    std::ofstream f(p, std::ios::binary);
    f << std::string(4096, 'x');
  }
  ExpectLoadError(p, "bad magic");
  fs::remove(p);
}

TEST(SnapshotCorruption, EmptyAndTinyFilesRejected) {
  const fs::path p = Campus().dir / "tiny.lds";
  { std::ofstream f(p, std::ios::binary); }
  ExpectLoadError(p, "empty file");
  {
    std::ofstream f(p, std::ios::binary);
    f << "LDSNAP01";
  }
  ExpectLoadError(p, "too small");
  fs::remove(p);
}

TEST(SnapshotCorruption, UnsupportedVersionRejected) {
  const fs::path p = ScratchCopy("version.lds");
  // Version lives at offset 12 (magic 8 + endian marker 4).
  PatchByte(p, 12, 99);
  ExpectLoadError(p, "unsupported format version 99");
  fs::remove(p);
}

TEST(SnapshotCorruption, OlderVersionsRejectedWithRebuildHint) {
  // Snapshots are rebuildable caches: every entry point refuses an older
  // file outright, naming its version and the command that rebuilds it.
  for (const std::uint8_t version : {1, 2, 3}) {
    const fs::path p = ScratchCopy("old_v" + std::to_string(version) + ".lds");
    PatchByte(p, 12, version);
    const std::string want = "unsupported format version " + std::to_string(version);
    const auto expect_rejected = [&](const char* entry, const auto& call) {
      try {
        call();
        ADD_FAILURE() << entry << " accepted a version-" << int{version} << " file";
      } catch (const Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(want), std::string::npos) << entry << ": " << what;
        EXPECT_NE(what.find("snapshot save"), std::string::npos)
            << entry << ": " << what;
      }
    };
    expect_rejected("LoadSnapshot", [&] { (void)LoadSnapshot(p); });
    expect_rejected("InspectSnapshot", [&] { (void)InspectSnapshot(p); });
    expect_rejected("VerifySnapshot", [&] { VerifySnapshot(p); });
    fs::remove(p);
  }
}

TEST(SnapshotCorruption, RetiredSectionKindRejected) {
  // Kind 7 held version 3's day index. A table naming it is malformed even
  // when the trailer's table checksum agrees, so re-seal the table after
  // renaming the stats section to kind 7.
  const SnapshotInfo info = InspectSnapshot(Campus().file);
  const fs::path p = ScratchCopy("kind7.lds");
  std::ifstream in(p, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), {});
  in.close();
  for (std::size_t i = 0; i < info.sections.size(); ++i) {
    if (info.sections[i].name == "stats") bytes[kHeaderSize + i * kSectionDescSize] = 7;
  }
  const std::size_t table_end = kHeaderSize + info.sections.size() * kSectionDescSize;
  std::uint32_t crc = util::Crc32c(std::as_bytes(std::span(bytes.data(), table_end)));
  for (std::size_t b = 0; b < 4; ++b, crc >>= 8) {
    bytes[bytes.size() - kTrailerSize + 8 + b] = static_cast<char>(crc & 0xFF);
  }
  std::ofstream(p, std::ios::binary | std::ios::trunc) << bytes;
  ExpectLoadError(p, "unknown section kind 7");
  fs::remove(p);
}

TEST(SnapshotCorruption, TruncationRejectedAtEveryBoundary) {
  const std::uintmax_t full = fs::file_size(Campus().file);
  for (const std::uintmax_t size :
       {full - 1, full / 2, full / 4, std::uintmax_t{300}}) {
    const fs::path p = ScratchCopy("trunc.lds");
    fs::resize_file(p, size);
    EXPECT_THROW((void)LoadSnapshot(p), Error) << "truncated to " << size;
    fs::remove(p);
  }
}

TEST(SnapshotCorruption, FlippedByteInEverySectionRejected) {
  const SnapshotInfo info = InspectSnapshot(Campus().file);
  ASSERT_EQ(info.sections.size(), 6u);  // five fixed sections + raw flows
  for (const SectionInfo& section : info.sections) {
    if (section.size == 0) continue;
    const fs::path p = ScratchCopy("flip_" + section.name + ".lds");
    FlipByte(p, section.offset + section.size / 2);
    if (section.name == "meta") {
      // A flip inside meta may hit a structurally validated field (e.g. the
      // flow stride) and be rejected before checksumming — either way it
      // must surface as a store::Error, never UB.
      EXPECT_THROW((void)LoadSnapshot(p), Error);
    } else {
      ExpectLoadError(p, "checksum mismatch in " + section.name);
    }
    fs::remove(p);
  }
}

TEST(SnapshotCorruption, HeaderTableTamperRejected) {
  // Flip a byte inside the section table (after the header's own fields):
  // the trailer CRC over header+table must catch it.
  const fs::path p = ScratchCopy("table.lds");
  PatchByte(p, kHeaderSize + 20, 0xAB);
  ExpectLoadError(p, "checksum");
  fs::remove(p);
}

TEST(SnapshotCorruption, VerifySnapshotAcceptsCleanFile) {
  EXPECT_NO_THROW(VerifySnapshot(Campus().file));
}

TEST(SnapshotCorruption, VerifySnapshotRejectsFlippedFlowByte) {
  SectionInfo flows;
  for (const SectionInfo& s : InspectSnapshot(Campus().file).sections) {
    if (s.name == "flows") flows = s;
  }
  ASSERT_GT(flows.size, 0u);
  const fs::path p = ScratchCopy("verify_flip.lds");
  FlipByte(p, flows.offset + flows.size / 2);
  try {
    VerifySnapshot(p);
    ADD_FAILURE() << "VerifySnapshot accepted a flipped flow byte";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum mismatch in flows"),
              std::string::npos)
        << e.what();
  }
  fs::remove(p);
}

TEST(SnapshotInspect, ReportsSectionsAndCounts) {
  const SnapshotInfo info = InspectSnapshot(Campus().file);
  EXPECT_EQ(info.version, kFormatVersion);
  EXPECT_EQ(info.num_flows, Campus().fresh.dataset.num_flows());
  EXPECT_EQ(info.num_devices, Campus().fresh.dataset.num_devices());
  EXPECT_EQ(info.num_domains, Campus().fresh.dataset.num_domains());
  EXPECT_EQ(info.file_size, fs::file_size(Campus().file));
  for (const SectionInfo& s : info.sections) {
    EXPECT_EQ(s.offset % kSectionAlign, 0u) << s.name;
  }
}

}  // namespace
}  // namespace lockdown::store
