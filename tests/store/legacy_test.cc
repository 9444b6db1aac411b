// Snapshots written by earlier format versions stay readable: each fixture in
// tests/store/legacy (see its README.md) must render, byte for byte, the
// figures its writing build recorded — at 1 and 4 threads, and again after
// re-saving it in the current format. The v4 fixture also pins how the
// reader treats the day-index section that v5 dropped: checked, never
// decoded, required of v3/v4 files and unknown to v5 ones.
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

TEST(LegacySnapshot, V5DescriptorClaimingDayIndexKindIsUnknown) {
  const LoadedSnapshot legacy = LoadSnapshot(kLegacyDir / "v4_raw.lds");
  const std::filesystem::path path = TempPath("v5_kind7");
  SaveSnapshot(path, legacy.collection, legacy.info.meta);
  const SnapshotInfo info = InspectSnapshot(path);
  ASSERT_EQ(info.version, 5u);
  std::string bytes = ReadBytes(path);
  // The last descriptor (stats) now claims, in its leading kind field, the
  // kind only v3/v4 may carry.
  PutU32(bytes, kHeaderSize + (info.sections.size() - 1) * kSectionDescSize,
         static_cast<std::uint32_t>(SectionKind::kDayIndex));
  ResealTable(bytes, info.sections.size());
  WriteBytes(path, bytes);
  ExpectLoadError(path, "unknown section kind 7");
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
