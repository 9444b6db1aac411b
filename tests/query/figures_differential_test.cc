// Figures 1-8 (plus extension analyses and headline stats) are
// bit-identical across {raw, compressed} snapshots x {1, 4} threads — four
// configurations, one canonical %.17g rendering each, all compared
// byte-for-byte against the serial baseline computed straight from the
// pipeline. Snapshots written by older format versions are checked against
// their recorded figures in tests/store/legacy_test.cc.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/study.h"
#include "store/snapshot.h"
#include "world/catalog.h"

#include "../core/figure_render.h"

namespace lockdown::query {
namespace {

constexpr int kStudents = 48;
constexpr std::uint64_t kSeed = 77;

class FiguresDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // gtest_discover_tests runs each TEST as its own process, so the suite
    // directory must be per-process or parallel ctest races remove_all.
    dir_ = new std::filesystem::path(
        std::filesystem::temp_directory_path() /
        ("lockdown_fig_diff_test_" + std::to_string(::getpid())));
    std::filesystem::remove_all(*dir_);
    std::filesystem::create_directories(*dir_);
    collection_ = new core::CollectionResult(core::MeasurementPipeline::Collect(
        core::StudyConfig::Small(kStudents, kSeed)));
    store::SaveSnapshot(*dir_ / "raw.lds", *collection_);
    store::SaveSnapshot(*dir_ / "compressed.lds", *collection_, {},
                        {.compress = true});
    // The baseline every configuration must reproduce byte-for-byte:
    // serial, straight from the pipeline.
    baseline_ = new std::string(Render(*collection_, 1));
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete dir_;
    delete collection_;
    delete baseline_;
    dir_ = nullptr;
    collection_ = nullptr;
    baseline_ = nullptr;
  }

  /// Renders all figures for one configuration cell.
  static std::string Render(const core::CollectionResult& collection,
                            int threads) {
    const core::LockdownStudy study(collection.dataset,
                                    world::ServiceCatalog::Default(), threads);
    return core::testing::RenderFigures(collection, study);
  }

  static void ExpectIdentical(const std::string& rendered, const char* what) {
    ASSERT_FALSE(baseline_->empty());
    if (rendered == *baseline_) return;
    // Pinpoint the first diverging line instead of dumping both blobs.
    std::size_t line = 1;
    std::size_t pos = 0;
    const std::size_t n = std::min(rendered.size(), baseline_->size());
    while (pos < n && rendered[pos] == (*baseline_)[pos]) {
      line += rendered[pos] == '\n';
      ++pos;
    }
    FAIL() << what << " diverges from the serial baseline at line "
           << line << " (byte " << pos << " of " << baseline_->size() << ")";
  }

  static std::filesystem::path* dir_;
  static core::CollectionResult* collection_;
  static std::string* baseline_;
};

std::filesystem::path* FiguresDifferentialTest::dir_ = nullptr;
core::CollectionResult* FiguresDifferentialTest::collection_ = nullptr;
std::string* FiguresDifferentialTest::baseline_ = nullptr;

TEST_F(FiguresDifferentialTest, AllConfigurationsBitIdentical) {
  for (const char* file : {"raw.lds", "compressed.lds"}) {
    const store::LoadedSnapshot snap = store::LoadSnapshot(*dir_ / file);
    ASSERT_TRUE(snap.warnings.empty()) << file;
    for (const int threads : {1, 4}) {
      const std::string what =
          std::string(file) + " / threads=" + std::to_string(threads);
      ExpectIdentical(Render(snap.collection, threads), what.c_str());
    }
  }
}

TEST_F(FiguresDifferentialTest, PipelineCollectionMatchesAcrossThreads) {
  // The threaded study without the store round-trip: isolates study-layer
  // threading divergence from snapshot codec bugs.
  ExpectIdentical(Render(*collection_, 4), "direct / threads=4");
}

}  // namespace
}  // namespace lockdown::query
