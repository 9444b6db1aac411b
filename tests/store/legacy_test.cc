// Snapshots written by earlier format versions stay readable: each fixture in
// tests/store/legacy (see its README.md) must render, byte for byte, the
// figures its writing build recorded — at 1 and 4 threads, and again after
// re-saving it in the current format.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/study.h"
#include "store/format.h"
#include "store/snapshot.h"

#include "../core/figure_render.h"

namespace lockdown::store {
namespace {

std::string Render(const core::CollectionResult& collection, int threads) {
  const core::LockdownStudy study(collection.dataset,
                                  world::ServiceCatalog::Default(), threads);
  return core::testing::RenderFigures(collection, study);
}

void ExpectRecordedFigures(const std::string& name, std::uint32_t version) {
  const std::filesystem::path dir = LOCKDOWN_LEGACY_DIR;
  std::ostringstream recorded;
  recorded << std::ifstream(dir / (name + ".figures.tsv")).rdbuf();
  ASSERT_FALSE(recorded.str().empty()) << name;
  const LoadedSnapshot legacy = LoadSnapshot(dir / (name + ".lds"));
  EXPECT_EQ(legacy.info.version, version);
  EXPECT_TRUE(legacy.warnings.empty()) << name;
  for (const int threads : {1, 4}) {
    EXPECT_EQ(Render(legacy.collection, threads), recorded.str())
        << name << " / threads=" << threads;
  }

  const std::filesystem::path resaved =
      std::filesystem::temp_directory_path() /
      ("lockdown_legacy_" + name + "." + std::to_string(::getpid()) + ".lds");
  SaveSnapshot(resaved, legacy.collection, legacy.info.meta);
  VerifySnapshot(resaved);
  const LoadedSnapshot current = LoadSnapshot(resaved);
  std::filesystem::remove(resaved);
  EXPECT_EQ(current.info.version, kFormatVersion);
  EXPECT_EQ(Render(current.collection, 1), recorded.str()) << name << " re-saved";
}

TEST(LegacySnapshot, V2RawRendersRecordedFigures) {
  ExpectRecordedFigures("v2_raw", 2);
}

TEST(LegacySnapshot, V3CompressedRendersRecordedFigures) {
  ExpectRecordedFigures("v3_compressed", 3);
}

}  // namespace
}  // namespace lockdown::store
