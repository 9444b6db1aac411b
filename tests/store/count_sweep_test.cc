// Every count the LDS reader reads, swept through hostile values with every
// CRC resealed: the header's section count; the meta flow, device and domain
// counts; the string pool's string and domain counts; each flow column's raw
// size, count and dictionary size; and the user-agent count and (v1-v3) the
// domain-list count of device records. Each is set to 0, 1, the maximum of
// its width and one past the bytes left for what it counts. A load of each
// patched file must either equal the clean load, dataset and stats, or throw
// store::Error: never std::bad_alloc, std::length_error or anything else.
// The inputs are a 60-student raw and --compress snapshot and the v2-v5
// fixtures in tests/store/legacy.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <string>
#include <typeinfo>
#include <vector>

#include "core/pipeline.h"
#include "store/format.h"
#include "store/snapshot.h"

#include "../core/dataset_equal.h"
#include "snapshot_patch.h"

namespace lockdown::store {
namespace {

namespace fs = std::filesystem;

/// One count field: where it sits, how wide it is, and how many bytes are
/// left for what it counts.
struct CountField {
  std::string name;
  std::uint64_t at;
  int width;
  std::uint64_t remaining;
};

/// The count fields of every device record in `file` when `all_devices`,
/// else of its first, middle and last.
void AddDeviceFields(const testing::PatchedSnapshot& file, bool all_devices,
                     std::vector<CountField>& fields) {
  const SectionInfo& dev = file.section("devices");
  const std::uint64_t end = dev.offset + dev.size;
  const bool legacy = file.info().version < 4;
  const std::uint64_t n = file.info().num_devices;
  std::uint64_t at = dev.offset;
  for (std::uint64_t i = 0; i < n; ++i) {
    at += 8 + 4 + 1 + (legacy ? 16 : 0);  // id, OUI, flags, v1-v3 totals
    const bool chosen = all_devices || i == 0 || i == n / 2 || i == n - 1;
    const std::string device = "device " + std::to_string(i);
    if (chosen) fields.push_back({device + " user-agent count", at, 4, end - at - 4});
    at += 4 + 4 * file.Get(at, 4);
    if (!legacy) continue;
    if (chosen) fields.push_back({device + " domain-list count", at, 4, end - at - 4});
    at += 4 + 12 * file.Get(at, 4);
  }
  ASSERT_EQ(at, end) << "device records do not fill the devices section";
}

std::vector<CountField> CountFields(const testing::PatchedSnapshot& file,
                                    bool all_devices) {
  const SnapshotInfo& info = file.info();
  const std::uint64_t meta = file.section("meta").offset;
  const SectionInfo& pool = file.section("string-pool");
  const bool columnar = info.sections.end() !=
      std::find_if(info.sections.begin(), info.sections.end(),
                   [](const SectionInfo& s) { return s.name == "col-rest"; });
  const std::uint64_t flow_bytes = columnar ? file.section("col-rest").size - 16
                                            : file.section("flows").size;
  std::vector<CountField> fields = {
      {"header section count", 20, 4, info.file_size - kHeaderSize - kTrailerSize},
      {"meta num_flows", meta, 8, flow_bytes},
      {"meta num_devices", meta + 8, 8, file.section("devices").size},
      {"meta num_domains", meta + 16, 8, pool.size - 8},
      {"string-pool string count", pool.offset, 4, pool.size - 4},
      {"string-pool domain count", pool.offset + 4, 4, pool.size - 8},
  };
  if (columnar) {
    for (const char* column : {"col-timestamps", "col-domains", "col-rest"}) {
      const SectionInfo& s = file.section(column);
      fields.push_back({std::string(column) + " raw size", s.offset, 8, s.size - 8});
      fields.push_back({std::string(column) + " count", s.offset + 8, 8, s.size - 16});
    }
    const SectionInfo& dom = file.section("col-domains");
    fields.push_back({"col-domains dictionary size", dom.offset + 16, 4, dom.size - 20});
  }
  AddDeviceFields(file, all_devices, fields);
  return fields;
}

/// Sweeps every count field of `source` and checks the pass rule for each
/// patched file, in every load mode the file allows.
void SweepCounts(const fs::path& source, bool all_devices) {
  const testing::PatchedSnapshot clean(source);
  const LoadedSnapshot expected = LoadSnapshot(source);
  const fs::path path = fs::temp_directory_path() /
                        ("lockdown_count_sweep." + std::to_string(::getpid()) +
                         "." + source.filename().string());
  // A raw file also loads by copy, which sizes an array by the flow count.
  std::vector<LoadMode> modes = {LoadMode::kAuto};
  if (expected.zero_copy) modes.push_back(LoadMode::kCopy);
  int rejected = 0;
  int cases = 0;
  for (const CountField& field : CountFields(clean, all_devices)) {
    const std::uint64_t max =
        field.width == 8 ? ~std::uint64_t{0} : (std::uint64_t{1} << (8 * field.width)) - 1;
    for (const std::uint64_t value : {std::uint64_t{0}, std::uint64_t{1}, max,
                                      std::min(field.remaining + 1, max)}) {
      if (value == clean.Get(field.at, field.width)) continue;
      testing::PatchedSnapshot file = clean;
      file.Put(field.at, value, field.width);
      file.Reseal();
      file.Write(path);
      for (const LoadMode mode : modes) {
        const std::string what = source.filename().string() + ": " + field.name +
                                 " = " + std::to_string(value) +
                                 (mode == LoadMode::kCopy ? " (copy load)" : "");
        ++cases;
        try {
          const LoadedSnapshot got = LoadSnapshot(path, {.mode = mode});
          SCOPED_TRACE(what);
          core::testing::ExpectSameCollection(expected.collection, got.collection);
        } catch (const Error&) {
          ++rejected;
        } catch (const std::exception& e) {
          ADD_FAILURE() << what << ": " << typeid(e).name() << ": " << e.what();
        } catch (...) {
          ADD_FAILURE() << what << ": a non-standard exception";
        }
      }
    }
  }
  fs::remove(path);
  EXPECT_GT(rejected, 0);
  EXPECT_GT(cases, 0);
}

/// One small collected campus, saved raw and compressed once per process.
struct Campus60 {
  fs::path dir = fs::temp_directory_path() /
                 ("lockdown_count_sweep_campus." + std::to_string(::getpid()));
  Campus60() {
    fs::create_directories(dir);
    const core::CollectionResult campus =
        core::MeasurementPipeline::Collect(core::StudyConfig::Small(60, 4));
    SaveSnapshot(dir / "raw.lds", campus, SnapshotMeta{60, 4});
    SaveSnapshot(dir / "compressed.lds", campus, SnapshotMeta{60, 4},
                 {.compress = true});
  }
  ~Campus60() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

const Campus60& Campus() {
  static const Campus60 campus;
  return campus;
}

TEST(CountSweep, RawSixtyStudentSnapshot) {
  SweepCounts(Campus().dir / "raw.lds", false);
}

TEST(CountSweep, CompressedSixtyStudentSnapshot) {
  SweepCounts(Campus().dir / "compressed.lds", false);
}

TEST(CountSweep, LegacyFixtures) {
  for (const char* name : {"v2_raw", "v3_compressed", "v4_raw", "v5_raw"}) {
    SweepCounts(fs::path(LOCKDOWN_LEGACY_DIR) / (std::string(name) + ".lds"), true);
  }
}

}  // namespace
}  // namespace lockdown::store
