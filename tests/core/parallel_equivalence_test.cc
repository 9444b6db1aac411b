// Differential harness for the determinism contract (util/thread_pool.h):
// collection and every figure computation must produce byte-identical output
// at any thread count, because work decomposes into fixed input-sized chunks
// that are merged in chunk order. These tests run the pipeline and the study
// serially and at several parallel widths — including a width far above this
// machine's core count — and compare every output with exact equality
// (doubles included: same additions in the same order, same bits).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <vector>

#include "core/pipeline.h"
#include "core/study.h"
#include "store/snapshot.h"
#include "world/catalog.h"

#include "dataset_equal.h"
#include "figure_render.h"

namespace lockdown::core {
namespace {

CollectionResult CollectWith(int students, std::uint64_t seed, int threads) {
  StudyConfig cfg = StudyConfig::Small(students, seed);
  cfg.threads = threads;
  return MeasurementPipeline::Collect(cfg);
}

// The census every figure starts from, then every figure and headline the
// study produces through the canonical %.17g rendering (equal text iff
// bit-identical numbers).
void ExpectStudiesIdentical(const CollectionResult& ca, const LockdownStudy& a,
                            const CollectionResult& cb, const LockdownStudy& b) {
  const auto xa = a.classifications();
  const auto xb = b.classifications();
  ASSERT_EQ(xa.size(), xb.size());
  for (std::size_t i = 0; i < xa.size(); ++i) {
    ASSERT_EQ(xa[i].device_class, xb[i].device_class) << "device " << i;
    ASSERT_EQ(xa[i].evidence, xb[i].evidence) << "device " << i;
  }
  ASSERT_EQ(a.PostShutdownDevices(), b.PostShutdownDevices());
  ASSERT_EQ(a.Split().international, b.Split().international);
  EXPECT_EQ(a.Split().num_with_geo, b.Split().num_with_geo);
  EXPECT_EQ(testing::RenderFigures(ca, a), testing::RenderFigures(cb, b));
}

// Widths to test against serial: even split, odd split (chunks don't divide
// evenly across lanes), and more lanes than this machine has cores.
constexpr int kWidths[] = {2, 3, 8};

TEST(ParallelEquivalence, CollectionIdenticalAcrossThreadCounts) {
  struct Case {
    int students;
    std::uint64_t seed;
  };
  for (const Case c : {Case{60, 2020}, Case{45, 909}}) {
    const CollectionResult serial = CollectWith(c.students, c.seed, 1);
    for (const int threads : kWidths) {
      SCOPED_TRACE(::testing::Message() << c.students << " students, seed "
                                      << c.seed << ", " << threads << " threads");
      const CollectionResult par = CollectWith(c.students, c.seed, threads);
      testing::ExpectSameCollection(serial, par);
    }
  }
}

TEST(ParallelEquivalence, StudyIdenticalAcrossThreadCounts) {
  const CollectionResult collection = CollectWith(60, 2020, 1);
  const auto& catalog = world::ServiceCatalog::Default();
  const LockdownStudy serial(collection.dataset, catalog, 1);
  for (const int threads : kWidths) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    const LockdownStudy par(collection.dataset, catalog, threads);
    ExpectStudiesIdentical(collection, serial, collection, par);
  }
}

// A dataset loaded back from an LDS snapshot (zero-copy path included) must
// drive the parallel study to the same outputs as the in-memory original.
TEST(ParallelEquivalence, SnapshotRoundTripStudyIdentical) {
  const CollectionResult original = CollectWith(60, 2020, 1);
  const auto path =
      std::filesystem::temp_directory_path() / "lockdown_parallel_equiv.lds";
  store::SaveSnapshot(path, original, store::SnapshotMeta{60, 2020});
  store::LoadedSnapshot snap = store::LoadSnapshot(path);
  std::filesystem::remove(path);

  testing::ExpectSameCollection(original, snap.collection);

  const auto& catalog = world::ServiceCatalog::Default();
  const LockdownStudy serial(original.dataset, catalog, 1);
  const LockdownStudy par(snap.collection.dataset, catalog, 3);
  ExpectStudiesIdentical(original, serial, snap.collection, par);
}

}  // namespace
}  // namespace lockdown::core
