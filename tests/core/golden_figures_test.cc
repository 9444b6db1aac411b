// Golden-figure regression test: renders every Figure 1-8 output (plus the
// extension analyses and headline stats) for a fixed small campus into a
// canonical TSV and diffs it against the checked-in fixture. Catches any
// unintended numeric drift in the pipeline or study — including drift that
// the determinism (parallel-vs-serial) tests cannot see because both sides
// would move together.
//
// Doubles are printed with %.17g, which round-trips IEEE binary64 exactly, so
// a one-ulp change anywhere fails the diff. To regenerate after an intended
// change (and review the diff in git):
//
//   LOCKDOWN_REGEN_GOLDEN=1 ./tests/core_test --gtest_filter='GoldenFigures.*'
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/pipeline.h"
#include "core/study.h"
#include "figure_render.h"
#include "world/catalog.h"

namespace lockdown::core {
namespace {

constexpr int kStudents = 60;
constexpr std::uint64_t kSeed = 2020;

/// One canonical text rendering of everything the study computes (the
/// renderer itself is shared with tests/stream/figures_differential_test.cc).
std::string RenderFigures() {
  const StudyConfig cfg = StudyConfig::Small(kStudents, kSeed);
  const CollectionResult collection = MeasurementPipeline::Collect(cfg);
  const LockdownStudy study(collection.dataset,
                            world::ServiceCatalog::Default());
  return testing::RenderFigures(collection, study);
}

std::string GoldenPath() {
  return std::string(LOCKDOWN_GOLDEN_DIR) + "/figures_s" +
         std::to_string(kStudents) + "_seed" + std::to_string(kSeed) + ".tsv";
}

TEST(GoldenFigures, MatchesCheckedInFixture) {
  const std::string rendered = RenderFigures();
  const std::string path = GoldenPath();

  if (std::getenv("LOCKDOWN_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << rendered;
    GTEST_SKIP() << "regenerated " << path << " (" << rendered.size()
                 << " bytes); review the diff and re-run without "
                    "LOCKDOWN_REGEN_GOLDEN";
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden fixture " << path
                  << " — run with LOCKDOWN_REGEN_GOLDEN=1 to create it";
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string golden = buf.str();

  if (rendered == golden) return;

  // Pinpoint the first differing line; dumping both blobs is unreadable.
  std::istringstream ra(rendered);
  std::istringstream rb(golden);
  std::string la;
  std::string lb;
  int line = 0;
  while (true) {
    ++line;
    const bool more_a = static_cast<bool>(std::getline(ra, la));
    const bool more_b = static_cast<bool>(std::getline(rb, lb));
    if (!more_a && !more_b) break;
    if (la != lb || more_a != more_b) {
      FAIL() << "figure output diverges from " << path << " at line " << line
             << "\n  golden:   " << (more_b ? lb : "<eof>")
             << "\n  computed: " << (more_a ? la : "<eof>")
             << "\nIf the change is intended, regenerate with "
                "LOCKDOWN_REGEN_GOLDEN=1 and commit the diff.";
    }
  }
  FAIL() << "outputs differ but line scan found no mismatch (check trailing "
            "bytes)";
}

}  // namespace
}  // namespace lockdown::core
