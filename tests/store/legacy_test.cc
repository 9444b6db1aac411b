// Snapshots written by earlier format versions stay readable: each fixture in
// tests/store/legacy (see its README.md) must render, byte for byte, the
// figures its writing build recorded — at 1 and 4 threads, and again after
// re-saving it in the current format. The v4 fixture also pins how the
// reader treats the day-index section that v5 dropped: checked, never
// decoded, required of v3/v4 files and unknown to v5 ones. The v5 fixture
// pins the device-offsets section that v6 dropped: a v1-v5 file's stored
// index must equal the one derived from its flows, and a v6 file may not
// carry one.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <sstream>
#include <string>

#include "core/study.h"
#include "store/format.h"
#include "store/snapshot.h"
#include "util/crc32c.h"

#include "../core/figure_render.h"

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

std::string ReadBytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

void WriteBytes(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void PutU32(std::string& bytes, std::size_t at, std::uint32_t v) {
  for (int b = 0; b < 4; ++b) bytes[at + b] = static_cast<char>(v >> (8 * b));
}

/// Rewrites the trailer CRC over the header and the first `sections`
/// descriptors, so a patched table passes the structural checksum.
void ResealTable(std::string& bytes, std::size_t sections) {
  const std::size_t table_end = kHeaderSize + sections * kSectionDescSize;
  PutU32(bytes, bytes.size() - kTrailerSize + 8,
         util::Crc32c(std::as_bytes(std::span<const char>(bytes.data(), table_end))));
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
  const std::filesystem::path fixture = kLegacyDir / "v4_raw.lds";
  SectionInfo day_index;
  for (const SectionInfo& s : InspectSnapshot(fixture).sections) {
    if (s.name == "day-index") day_index = s;
  }
  ASSERT_GT(day_index.size, 0u);
  std::string bytes = ReadBytes(fixture);
  bytes[day_index.offset + day_index.size / 2] ^= 0x40;
  const std::filesystem::path bad = TempPath("bad_day_index");
  WriteBytes(bad, bytes);

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
  const SnapshotInfo info = InspectSnapshot(file);
  ASSERT_EQ(info.version, version);
  std::string bytes = ReadBytes(file);
  PutU32(bytes, kHeaderSize + (info.sections.size() - 1) * kSectionDescSize,
         static_cast<std::uint32_t>(kind));
  ResealTable(bytes, info.sections.size());
  const std::filesystem::path path = TempPath("kind_" + std::to_string(version));
  WriteBytes(path, bytes);
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
  const std::filesystem::path fixture = kLegacyDir / "v5_raw.lds";
  const SnapshotInfo info = InspectSnapshot(fixture);
  std::size_t slot = info.sections.size();
  for (std::size_t i = 0; i < info.sections.size(); ++i) {
    if (info.sections[i].name == "device-offsets") slot = i;
  }
  ASSERT_LT(slot, info.sections.size());
  const SectionInfo& csr = info.sections[slot];
  ASSERT_EQ(csr.size, (info.num_devices + 1) * 8);
  ASSERT_GE(info.num_devices, 2u);
  // Move the boundary between devices 0 and 1 by one flow: still monotone
  // and in range, so only the comparison with the derived index catches it.
  std::string bytes = ReadBytes(fixture);
  bytes[csr.offset + 8] = static_cast<char>(bytes[csr.offset + 8] + 1);
  PutU32(bytes, kHeaderSize + slot * kSectionDescSize + 24,
         util::Crc32c(std::as_bytes(
             std::span<const char>(bytes.data() + csr.offset, csr.size))));
  ResealTable(bytes, info.sections.size());
  const std::filesystem::path path = TempPath("v5_bad_offsets");
  WriteBytes(path, bytes);
  ExpectLoadError(path, "inconsistent device index section");
  EXPECT_THROW((void)LoadSnapshot(path, {.mode = LoadMode::kCopy}), Error);
  EXPECT_THROW(VerifySnapshot(path), Error);
  std::filesystem::remove(path);
}

TEST(LegacySnapshot, V4WithoutDayIndexIsRejected) {
  const std::filesystem::path fixture = kLegacyDir / "v4_raw.lds";
  const SnapshotInfo info = InspectSnapshot(fixture);
  ASSERT_EQ(info.sections.back().name, "day-index");
  // Drop the last descriptor: one fewer in the header's count, table resealed.
  const std::size_t kept = info.sections.size() - 1;
  std::string bytes = ReadBytes(fixture);
  PutU32(bytes, 20, static_cast<std::uint32_t>(kept));  // header section count
  ResealTable(bytes, kept);
  const std::filesystem::path path = TempPath("v4_no_day_index");
  WriteBytes(path, bytes);
  ExpectLoadError(path, "missing day-index section");
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace lockdown::store
