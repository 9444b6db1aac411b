// Figures 1-8 (plus extension analyses and headline stats) from both
// aggregator policies of the figure engine, across {raw, compressed}
// current-format snapshots x {1, 4} threads, against one serial baseline computed straight
// from the pipeline:
//   * the exact policy (LockdownStudy) renders it byte for byte;
//   * the sketched policy (StreamingStudy), at a budget where no reservoir
//     evicts, renders every figure it does not estimate byte for byte and
//     holds Figure 1 and the headline counts within its HLL bounds.
// Snapshots written by older format versions are checked against their
// recorded figures in tests/store/legacy_test.cc.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

#include "core/pipeline.h"
#include "core/study.h"
#include "store/snapshot.h"
#include "stream/streaming_study.h"
#include "world/catalog.h"

#include "../core/figure_render.h"
#include "policy_compare.h"

namespace lockdown::stream {
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
    // The baseline every configuration must reproduce: the exact policy,
    // serial, straight from the pipeline.
    baseline_study_ = new core::LockdownStudy(
        collection_->dataset, world::ServiceCatalog::Default(), 1);
    baseline_ = new std::string(
        core::testing::RenderFigures(*collection_, *baseline_study_));
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete baseline_;
    delete baseline_study_;
    delete collection_;
    delete dir_;
    baseline_ = nullptr;
    baseline_study_ = nullptr;
    collection_ = nullptr;
    dir_ = nullptr;
  }

  /// Checks both policies over one (dataset, threads) cell of the matrix.
  static void ExpectPoliciesMatchBaseline(const core::CollectionResult& collection,
                                          int threads, const std::string& what) {
    SCOPED_TRACE(what);
    const core::LockdownStudy exact(collection.dataset,
                                    world::ServiceCatalog::Default(), threads);
    ExpectIdentical(core::testing::RenderFigures(collection, exact));

    StreamingOptions options;
    options.memory_budget_bytes = std::size_t{64} << 20;
    options.threads = threads;
    const StreamingStudy sketched(collection.dataset,
                                  world::ServiceCatalog::Default(), options);
    testing::ExpectSketchedMatchesExact(collection, *baseline_study_, sketched);
  }

  static void ExpectIdentical(const std::string& rendered) {
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
    FAIL() << "exact policy diverges from the serial baseline at line " << line
           << " (byte " << pos << " of " << baseline_->size() << ")";
  }

  static std::filesystem::path* dir_;
  static core::CollectionResult* collection_;
  static core::LockdownStudy* baseline_study_;
  static std::string* baseline_;
};

std::filesystem::path* FiguresDifferentialTest::dir_ = nullptr;
core::CollectionResult* FiguresDifferentialTest::collection_ = nullptr;
core::LockdownStudy* FiguresDifferentialTest::baseline_study_ = nullptr;
std::string* FiguresDifferentialTest::baseline_ = nullptr;

TEST_F(FiguresDifferentialTest, AllConfigurationsBitIdentical) {
  for (const char* file : {"raw.lds", "compressed.lds"}) {
    const store::LoadedSnapshot snap = store::LoadSnapshot(*dir_ / file);
    ASSERT_TRUE(snap.warnings.empty()) << file;
    for (const int threads : {1, 4}) {
      ExpectPoliciesMatchBaseline(
          snap.collection, threads,
          std::string(file) + " / threads=" + std::to_string(threads));
    }
  }
}

TEST_F(FiguresDifferentialTest, PipelineCollectionMatchesAcrossThreads) {
  // Both policies, threaded, without the store round-trip: isolates
  // figure-engine threading divergence from snapshot codec bugs.
  ExpectPoliciesMatchBaseline(*collection_, 4, "direct / threads=4");
}

}  // namespace
}  // namespace lockdown::stream
