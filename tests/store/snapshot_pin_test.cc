// Pins the LDS writer byte for byte: the size and FNV-1a 64 of the file
// SaveSnapshot writes for the 60-student seed-2020 campus, raw and
// compressed.
//
// The round-trip and legacy tests prove a snapshot reloads to the same
// dataset; this pin proves the bytes on disk did not move, so a change to a
// section encoder (the flow columns above all) that keeps the format must
// leave both files identical, and one that changes the format must bump the
// version and re-record these constants from the failure message.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/pipeline.h"
#include "store/snapshot.h"

namespace lockdown::store {
namespace {

namespace fs = std::filesystem;

struct FileDigest {
  std::uint64_t size = 0;
  std::uint64_t fnv1a = 0xCBF29CE484222325ULL;
};

/// Saves the seed-2020 campus with `options` and digests the file.
FileDigest SaveAndDigest(const SaveOptions& options) {
  const core::CollectionResult campus =
      core::MeasurementPipeline::Collect(core::StudyConfig::Small(60, 2020));
  const fs::path dir = fs::temp_directory_path() /
                       ("lds_pin." + std::to_string(::getpid()));
  fs::create_directories(dir);
  const fs::path file = dir / "campus.lds";
  SaveSnapshot(file, campus, SnapshotMeta{60, 2020}, options);
  std::ifstream in(file, std::ios::binary);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  fs::remove_all(dir);

  FileDigest d;
  d.size = bytes.size();
  for (const char c : bytes) {
    d.fnv1a ^= static_cast<std::uint8_t>(c);
    d.fnv1a *= 0x100000001B3ULL;
  }
  return d;
}

TEST(SnapshotPin, Seed2020Students60RawIsByteIdentical) {
  const FileDigest d = SaveAndDigest({});
  EXPECT_EQ(d.size, 10534672u);
  EXPECT_EQ(d.fnv1a, 0x991a2b82c68a6148ULL);
}

TEST(SnapshotPin, Seed2020Students60CompressedIsByteIdentical) {
  const FileDigest d = SaveAndDigest({.compress = true});
  EXPECT_EQ(d.size, 5693008u);
  EXPECT_EQ(d.fnv1a, 0x028586038ee2d14aULL);
}

}  // namespace
}  // namespace lockdown::store
