// The span registry (src/obs/span_names.h) holds no dead entry. OBS_SPAN
// refuses an unregistered name at compile time; this test covers the other
// direction. With tracing on it drives every spanned stage once at a small
// scale: collect, log export and re-ingest, snapshot save/load/verify, and
// both figure policies. The static span names in the trace must then equal
// the registry. The per-file "ingest/<log>" spans carry runtime names and
// are left out.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <unistd.h>

#include "core/offline.h"
#include "core/pipeline.h"
#include "core/study.h"
#include "obs/obs.h"
#include "obs/span_names.h"
#include "store/snapshot.h"
#include "stream/streaming_study.h"
#include "world/catalog.h"

namespace lockdown::obs {
namespace {

namespace fs = std::filesystem;

// The names of the complete ("ph": "X") events in a Chrome trace document.
std::set<std::string> SpanNamesIn(const std::string& doc) {
  std::set<std::string> names;
  const std::string key = "{\"name\": \"";
  const std::string complete = "\", \"ph\": \"X\"";
  for (std::size_t pos = doc.find(key); pos != std::string::npos;
       pos = doc.find(key, pos + 1)) {
    const std::size_t begin = pos + key.size();
    const std::size_t end = doc.find('"', begin);
    if (doc.compare(end, complete.size(), complete) == 0) {
      names.insert(doc.substr(begin, end - begin));
    }
  }
  return names;
}

TEST(SpanRegistry, EveryRegisteredNameIsEmittedByAStage) {
  const fs::path dir = fs::path(testing::TempDir()) /
                       ("span_registry_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  ResetTrace();
  SetTracingEnabled(true);
  {
    const core::StudyConfig config = core::StudyConfig::Small(20, 2020);
    const world::ServiceCatalog& catalog = world::ServiceCatalog::Default();
    const core::CollectionResult collection =
        core::MeasurementPipeline::Collect(config);
    core::ExportLogs(config, dir);
    (void)core::CollectFromLogs(dir, config);
    const fs::path snapshot = dir / "registry.lds";
    store::SaveSnapshot(snapshot, collection);
    (void)store::LoadSnapshot(snapshot);
    store::VerifySnapshot(snapshot);
    const core::LockdownStudy exact(collection.dataset, catalog, 1);
    (void)exact.DiurnalShape(0, 13);
    const stream::StreamingStudy sketched(collection.dataset, catalog);
  }
  SetTracingEnabled(false);
  std::ostringstream trace;
  WriteChromeTrace(trace);
  ResetTrace();
  fs::remove_all(dir);

  std::set<std::string> emitted = SpanNamesIn(trace.str());
  for (const char* log : {core::LogFiles::kConn, core::LogFiles::kDhcp,
                          core::LogFiles::kDns, core::LogFiles::kUa}) {
    EXPECT_EQ(emitted.erase(std::string("ingest/") + log), 1u) << log;
  }
  const std::set<std::string> registered(kRegisteredSpanNames.begin(),
                                         kRegisteredSpanNames.end());
  EXPECT_EQ(emitted, registered);
}

}  // namespace
}  // namespace lockdown::obs
