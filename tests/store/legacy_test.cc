// Snapshots written by earlier format versions stay readable: each fixture in
// tests/store/legacy (see its README.md) must render, byte for byte, the
// figures its writing build recorded — at 1 and 4 threads, and again after
// re-saving it in the current format. The v4 fixture also pins how the
// reader treats the day-index section that v5 dropped: checked, never
// decoded, required of v3/v4 files and unknown to v5 ones. The v5 fixture
// pins the device-offsets section that v6 dropped: a v1-v5 file's stored
// index must equal the one derived from its flows, its size must agree with
// a device count the devices section bounds, and a v6 file may not carry
// one.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/study.h"
#include "store/format.h"
#include "store/snapshot.h"

#include "../core/figure_render.h"
#include "snapshot_patch.h"

namespace lockdown::store {
namespace {

const std::filesystem::path kLegacyDir = LOCKDOWN_LEGACY_DIR;

std::string Recorded(const std::string& name) {
  std::ostringstream recorded;
  recorded << std::ifstream(kLegacyDir / (name + ".figures.tsv")).rdbuf();
  return recorded.str();
}

std::filesystem::path TempPath(const std::string& name) {
  return std::filesystem::temp_directory_path() /
         ("lockdown_legacy_" + name + "." + std::to_string(::getpid()) + ".lds");
}

/// A strict load of `path` throws store::Error containing `what`.
void ExpectLoadError(const std::filesystem::path& path, const std::string& what) {
  try {
    (void)LoadSnapshot(path);
    ADD_FAILURE() << path << " loaded; expected an error containing: " << what;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
  }
}

std::string Render(const core::CollectionResult& collection, int threads) {
  const core::LockdownStudy study(collection.dataset,
                                  world::ServiceCatalog::Default(), threads);
  return core::testing::RenderFigures(collection, study);
}

void ExpectRecordedFigures(const std::string& name, std::uint32_t version) {
  const std::string recorded = Recorded(name);
  ASSERT_FALSE(recorded.empty()) << name;
  const LoadedSnapshot legacy = LoadSnapshot(kLegacyDir / (name + ".lds"));
  EXPECT_EQ(legacy.info.version, version);
  EXPECT_TRUE(legacy.warnings.empty()) << name;
  for (const int threads : {1, 4}) {
    EXPECT_EQ(Render(legacy.collection, threads), recorded)
        << name << " / threads=" << threads;
  }

  const std::filesystem::path resaved = TempPath(name);
  SaveSnapshot(resaved, legacy.collection, legacy.info.meta);
  VerifySnapshot(resaved);
  const LoadedSnapshot current = LoadSnapshot(resaved);
  std::filesystem::remove(resaved);
  EXPECT_EQ(current.info.version, kFormatVersion);
  for (const SectionInfo& s : current.info.sections) {
    EXPECT_NE(s.name, "day-index") << name << " re-saved";
    EXPECT_NE(s.name, "device-offsets") << name << " re-saved";
  }
  EXPECT_EQ(Render(current.collection, 1), recorded) << name << " re-saved";
}

TEST(LegacySnapshot, V2RawRendersRecordedFigures) {
  ExpectRecordedFigures("v2_raw", 2);
}

TEST(LegacySnapshot, V3CompressedRendersRecordedFigures) {
  ExpectRecordedFigures("v3_compressed", 3);
}

TEST(LegacySnapshot, V4RawRendersRecordedFigures) {
  ExpectRecordedFigures("v4_raw", 4);
}

TEST(LegacySnapshot, V5RawRendersRecordedFigures) {
  ExpectRecordedFigures("v5_raw", 5);
}

TEST(LegacySnapshot, V4CorruptDayIndexFailsStrictAndSalvagesWithOneWarning) {
  testing::PatchedSnapshot file(kLegacyDir / "v4_raw.lds");
  const SectionInfo& day_index = file.section("day-index");
  ASSERT_GT(day_index.size, 0u);
  const std::uint64_t at = day_index.offset + day_index.size / 2;
  file.Put(at, file.Get(at, 1) ^ 0x40, 1);  // not resealed
  const std::filesystem::path bad = TempPath("bad_day_index");
  file.Write(bad);

  ExpectLoadError(bad, "checksum mismatch in day-index");
  const LoadedSnapshot snap = LoadSnapshot(bad, {.salvage = true});
  std::filesystem::remove(bad);
  ASSERT_EQ(snap.warnings.size(), 1u);
  EXPECT_NE(snap.warnings[0].find("day-index"), std::string::npos)
      << snap.warnings[0];
  EXPECT_EQ(Render(snap.collection, 1), Recorded("v4_raw"));
}

/// Rewrites `file`'s last descriptor (stats) to claim, in its leading kind
/// field, `kind`, and requires the load to reject the kind as unknown.
void ExpectLastDescriptorKindUnknown(const std::filesystem::path& file,
                                     std::uint32_t version, SectionKind kind) {
  testing::PatchedSnapshot patched(file);
  ASSERT_EQ(patched.info().version, version);
  patched.Put(patched.descriptor("stats"), static_cast<std::uint32_t>(kind), 4);
  patched.Reseal();
  const std::filesystem::path path = TempPath("kind_" + std::to_string(version));
  patched.Write(path);
  ExpectLoadError(path, "unknown section kind " +
                            std::to_string(static_cast<std::uint32_t>(kind)));
  std::filesystem::remove(path);
}

TEST(LegacySnapshot, V5DescriptorClaimingDayIndexKindIsUnknown) {
  ExpectLastDescriptorKindUnknown(kLegacyDir / "v5_raw.lds", 5,
                                  SectionKind::kDayIndex);
}

TEST(LegacySnapshot, V6DescriptorClaimingDeviceOffsetsKindIsUnknown) {
  const LoadedSnapshot legacy = LoadSnapshot(kLegacyDir / "v5_raw.lds");
  const std::filesystem::path path = TempPath("v6");
  SaveSnapshot(path, legacy.collection, legacy.info.meta);
  ExpectLastDescriptorKindUnknown(path, 6, SectionKind::kDeviceOffsets);
  std::filesystem::remove(path);
}

TEST(LegacySnapshot, V5DeviceOffsetsDisagreeingWithFlowsIsRejected) {
  testing::PatchedSnapshot file(kLegacyDir / "v5_raw.lds");
  const SectionInfo& csr = file.section("device-offsets");
  ASSERT_EQ(csr.size, (file.info().num_devices + 1) * 8);
  ASSERT_GE(file.info().num_devices, 2u);
  // Move the boundary between devices 0 and 1 by one flow: still monotone
  // and in range, so only the comparison with the derived index catches it.
  file.Put(csr.offset + 8, file.Get(csr.offset + 8, 8) + 1, 8);
  file.Reseal();
  const std::filesystem::path path = TempPath("v5_bad_offsets");
  file.Write(path);
  ExpectLoadError(path, "inconsistent device index section");
  EXPECT_THROW((void)LoadSnapshot(path, {.mode = LoadMode::kCopy}), Error);
  EXPECT_THROW(VerifySnapshot(path), Error);
  std::filesystem::remove(path);
}

TEST(LegacySnapshot, V4WithoutDayIndexIsRejected) {
  testing::PatchedSnapshot file(kLegacyDir / "v4_raw.lds");
  ASSERT_EQ(file.info().sections.back().name, "day-index");
  // Drop the last descriptor: one fewer in the header's count, table resealed.
  file.Put(20, file.info().sections.size() - 1, 4);  // header section count
  file.Reseal();
  const std::filesystem::path path = TempPath("v4_no_day_index");
  file.Write(path);
  ExpectLoadError(path, "missing day-index section");
  std::filesystem::remove(path);
}

TEST(LegacySnapshot, DeviceCountWrapIsCorrupt) {
  // num_devices + 1 wraps to 0 at 2^64 - 1, which an empty device-offsets
  // section would match: the count must be bounded by the devices section
  // before any check adds to it, so the file fails as soon as it is opened.
  testing::PatchedSnapshot file(kLegacyDir / "v5_raw.lds");
  file.Put(file.section("meta").offset + 8, ~std::uint64_t{0}, 8);  // num_devices
  file.Put(file.descriptor("device-offsets") + 16, 0, 8);           // its size
  file.Reseal();
  const std::filesystem::path path = TempPath("v5_device_count_wrap");
  file.Write(path);
  EXPECT_THROW((void)InspectSnapshot(path), Error);
  EXPECT_THROW((void)LoadSnapshot(path), Error);
  EXPECT_THROW(VerifySnapshot(path), Error);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace lockdown::store
