// Asserts the `snapshot info` output shape: the per-section table must list
// every section with its codec, stored and raw byte counts, and the
// stored/raw compression ratio — "1.00" for raw sections, below 1 for coded
// ones — so the CLI surface the compression work is judged by cannot drift
// silently.
#include "tools/snapshot_info.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "store/snapshot.h"

namespace lockdown::cli {
namespace {

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

class SnapshotInfoTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Per-process suite directory: each TEST is its own ctest process.
    dir_ = new std::filesystem::path(
        std::filesystem::temp_directory_path() /
        ("lockdown_snapinfo_test_" + std::to_string(::getpid())));
    std::filesystem::remove_all(*dir_);
    std::filesystem::create_directories(*dir_);
    const auto result =
        core::MeasurementPipeline::Collect(core::StudyConfig::Small(4, 1));
    store::SaveSnapshot(*dir_ / "plain.lds", result, {.num_students = 4, .seed = 1});
    store::SaveSnapshot(*dir_ / "comp.lds", result, {.num_students = 4, .seed = 1},
                        {.compress = true});
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete dir_;
    dir_ = nullptr;
  }
  static std::filesystem::path* dir_;
};

std::filesystem::path* SnapshotInfoTest::dir_ = nullptr;

TEST_F(SnapshotInfoTest, HeaderTableListsProvenance) {
  const store::SnapshotInfo info = store::InspectSnapshot(*dir_ / "plain.lds");
  std::ostringstream out;
  RenderSnapshotHeader(info, out);
  const std::string text = out.str();
  for (const char* field :
       {"format version", "file size", "flows", "devices", "interned domains",
        "flow stride", "students (provenance)", "seed (provenance)"}) {
    EXPECT_NE(text.find(field), std::string::npos) << field;
  }
  EXPECT_NE(text.find("4"), std::string::npos);  // provenance student count
}

TEST_F(SnapshotInfoTest, SectionTableHasOneRowPerSectionWithRatios) {
  const store::SnapshotInfo info = store::InspectSnapshot(*dir_ / "comp.lds");
  std::ostringstream out;
  RenderSectionTable(info, out);
  const std::vector<std::string> lines = Lines(out.str());
  // Header + separator + one row per section.
  ASSERT_EQ(lines.size(), 2 + info.sections.size());
  for (const char* column :
       {"section", "codec", "offset", "stored", "raw", "ratio", "crc32c"}) {
    EXPECT_NE(lines[0].find(column), std::string::npos) << column;
  }
  for (std::size_t i = 0; i < info.sections.size(); ++i) {
    const store::SectionInfo& s = info.sections[i];
    const std::string& row = lines[2 + i];
    EXPECT_EQ(row.find(s.name), 0u) << row;  // first column is the name
    EXPECT_NE(row.find(s.codec_name), std::string::npos) << row;
    EXPECT_NE(row.find(std::to_string(s.size)), std::string::npos) << row;
    EXPECT_NE(row.find(std::to_string(s.raw_size)), std::string::npos) << row;
  }
  // Raw sections print ratio 1.00; every coded section compresses (< 1).
  const std::string text = out.str();
  EXPECT_NE(text.find("1.00"), std::string::npos);
  EXPECT_NE(text.find("dictionary"), std::string::npos);
  EXPECT_NE(text.find("delta-varint"), std::string::npos);
  EXPECT_NE(text.find("packed"), std::string::npos);
  EXPECT_NE(text.find("0."), std::string::npos);  // at least one ratio < 1
}

TEST_F(SnapshotInfoTest, V2SnapshotIsAllRaw) {
  // Version 2 predates the coded sections; the legacy fixture was written by
  // a build that could still produce it.
  const store::SnapshotInfo info = store::InspectSnapshot(
      std::filesystem::path(LOCKDOWN_LEGACY_DIR) / "v2_raw.lds");
  ASSERT_EQ(info.version, 2u);
  std::ostringstream out;
  RenderSectionTable(info, out);
  for (const std::string& line : Lines(out.str())) {
    EXPECT_EQ(line.find("dictionary"), std::string::npos) << line;
    EXPECT_EQ(line.find("delta-varint"), std::string::npos) << line;
  }
  for (const store::SectionInfo& s : info.sections) {
    EXPECT_EQ(s.codec, 0u) << s.name;
    EXPECT_EQ(s.raw_size, s.size) << s.name;
  }
}

}  // namespace
}  // namespace lockdown::cli
