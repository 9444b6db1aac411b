// LDS snapshot store: round-trip property tests (Collect -> Save -> Load
// must reproduce the dataset and every downstream analysis exactly) and
// corruption tests (truncation, bit flips, bad magic/version all rejected
// with precise errors, never undefined behavior).
#include "store/snapshot.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <unistd.h>

#include "core/study.h"
#include "store/format.h"

#include "../core/dataset_equal.h"
#include "../core/figure_render.h"
#include "snapshot_patch.h"

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

void ExpectLoadError(const fs::path& path, const std::string& message_part) {
  try {
    (void)LoadSnapshot(path);
    FAIL() << "expected store::Error containing '" << message_part << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(message_part), std::string::npos)
        << "actual message: " << e.what();
  }
}

// --- Round-trip properties ----------------------------------------------------

TEST(SnapshotRoundTrip, PreservesDatasetAndStats) {
  const LoadedSnapshot snap = LoadSnapshot(Campus().file);
  core::testing::ExpectSameCollection(Campus().fresh, snap.collection);
  EXPECT_EQ(snap.info.meta.num_students, 60u);
  EXPECT_EQ(snap.info.meta.seed, 4u);
  EXPECT_EQ(snap.info.flow_stride, kFlowStride);
}

TEST(SnapshotRoundTrip, ZeroCopyAndPortablePathsAgree) {
  const LoadedSnapshot mmaped =
      LoadSnapshot(Campus().file, {LoadMode::kMmap, true});
  const LoadedSnapshot copied =
      LoadSnapshot(Campus().file, {LoadMode::kCopy, true});
  EXPECT_TRUE(mmaped.zero_copy);
  EXPECT_FALSE(copied.zero_copy);
  core::testing::ExpectSameDataset(mmaped.collection.dataset, copied.collection.dataset);
}

TEST(SnapshotRoundTrip, StudyOutputsIdentical) {
  // The paper-facing property: every figure computed from the loaded
  // snapshot must equal the figure computed from the fresh collection.
  const LoadedSnapshot snap = LoadSnapshot(Campus().file);
  const auto& catalog = world::ServiceCatalog::Default();
  const core::LockdownStudy fresh(Campus().fresh.dataset, catalog);
  const core::LockdownStudy loaded(snap.collection.dataset, catalog);

  EXPECT_EQ(core::testing::RenderFigures(Campus().fresh, fresh),
            core::testing::RenderFigures(snap.collection, loaded));
}

TEST(SnapshotRoundTrip, SecondSaveOfLoadedSnapshotIsValid) {
  const LoadedSnapshot snap = LoadSnapshot(Campus().file);
  const fs::path resaved = Campus().dir / "resaved.lds";
  SaveSnapshot(resaved, snap.collection, snap.info.meta);
  VerifySnapshot(resaved);
  const LoadedSnapshot again = LoadSnapshot(resaved);
  core::testing::ExpectSameDataset(snap.collection.dataset, again.collection.dataset);
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

// A dataset's device index is valid from construction on, so even an empty
// collection is a snapshot: no devices, no flows, the one-entry index.
TEST(SnapshotWriter, EmptyCollectionRoundTrips) {
  const core::CollectionResult empty;
  for (const bool compress : {false, true}) {
    const fs::path p = Campus().dir / "empty.lds";
    SaveSnapshot(p, empty, {}, {.compress = compress});
    VerifySnapshot(p);
    const LoadedSnapshot snap = LoadSnapshot(p);
    core::testing::ExpectSameCollection(empty, snap.collection);
    EXPECT_EQ(snap.collection.dataset.device_offsets().size(), 1u);
    fs::remove(p);
  }
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
  ASSERT_EQ(info.sections.size(), 5u);  // meta, flows, string pool, devices, stats
  for (const SectionInfo& section : info.sections) {
    if (section.size == 0) continue;
    const fs::path p = ScratchCopy("flip_" + section.name + ".lds");
    const std::uint64_t target = section.offset + section.size / 2;
    std::ifstream in(p, std::ios::binary);
    in.seekg(static_cast<std::streamoff>(target));
    char original = 0;
    in.read(&original, 1);
    in.close();
    PatchByte(p, target, static_cast<std::uint8_t>(original) ^ 0x20);
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

TEST(SnapshotCorruption, WrappedFlowCountRejected) {
  // A flow count of n + 2^61 times the 40-byte stride wraps to the true
  // section size in u64 arithmetic. Reseal the meta CRC and the table CRC so
  // only the count check stands between the file and a load that would
  // reserve (or mmap-view) 2^61 flows.
  testing::PatchedSnapshot file(Campus().file);
  // num_flows is the first little-endian u64 of meta; add 2^61.
  const std::uint64_t at = file.section("meta").offset;
  file.Put(at, file.Get(at, 8) ^ (std::uint64_t{1} << 61), 8);
  file.Reseal();
  const fs::path p = Campus().dir / "wrapped_count.lds";
  file.Write(p);
  ExpectLoadError(p, "flows section size disagrees with flow count");
  fs::remove(p);
}

TEST(SnapshotCorruption, DeviceUaCountBeyondPayloadIsCorrupt) {
  // Device 0's user-agent count (after its u64 id, u32 OUI and u8 flags) is
  // raised past what the devices section can hold as 4-byte refs, with every
  // CRC resealed, in a current raw file and in the v5 fixture. The count
  // must fail as corruption before it sizes a reservation: 0xFFFFFFFF would
  // ask for ~128 GiB.
  const fs::path sources[] = {Campus().file,
                              fs::path(LOCKDOWN_LEGACY_DIR) / "v5_raw.lds"};
  for (const fs::path& source : sources) {
    const testing::PatchedSnapshot clean(source);
    const SectionInfo& dev = clean.section("devices");
    constexpr std::uint64_t kUaCountAt = 8 + 4 + 1;
    ASSERT_GT(dev.size, kUaCountAt + 4) << source;
    const std::uint64_t remaining = dev.size - kUaCountAt - 4;
    for (const std::uint64_t count :
         {std::uint64_t{0xFFFFFFFF}, remaining / 4 + 1}) {
      testing::PatchedSnapshot file = clean;
      file.Put(dev.offset + kUaCountAt, count, 4);
      file.Reseal();
      const fs::path p = Campus().dir / "ua_count.lds";
      file.Write(p);
      const std::string what = source.filename().string() + " count " +
                               std::to_string(count);
      EXPECT_THROW((void)LoadSnapshot(p), Error) << what;
      EXPECT_THROW((void)LoadSnapshot(p, {.salvage = true}), Error) << what;
      EXPECT_THROW(VerifySnapshot(p), Error) << what;
      fs::remove(p);
    }
  }
}

TEST(SnapshotCorruption, VerifySnapshotAcceptsCleanFile) {
  EXPECT_NO_THROW(VerifySnapshot(Campus().file));
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
