// LDS snapshot store: persist a processed core::CollectionResult once, load
// it many times. See store/format.h for the on-disk layout.
//
//   store::SaveSnapshot("campus.lds", result, {.num_students = 1200, .seed = 2020});
//   ...
//   store::LoadedSnapshot snap = store::LoadSnapshot("campus.lds");
//   core::LockdownStudy study(snap.collection.dataset, catalog);
//
// Loading memory-maps the file and, on little-endian hosts, hands the fixed
// stride flow array to the Dataset zero-copy (the mapping stays alive inside
// the Dataset); variable-length sections (devices, string pool) are decoded
// portably. The Dataset derives its device index from the flows in the scan
// that checks their references and (device, start) order; no index is
// stored. Every load validates magic, version, endianness, section bounds
// and per-section CRC32C checksums and throws store::Error with a precise
// message on truncation or corruption — never undefined behavior.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.h"

namespace lockdown::store {

/// All store failures (I/O, truncation, corruption, format mismatch).
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& message)
      : std::runtime_error(std::string(kPrefix) + message) {}
  /// `cause`, naming the file it came from: "lds: <file>: <cause>".
  Error(const std::filesystem::path& file, const Error& cause)
      : Error(file.string() + ": " +
              std::string(std::string_view(cause.what()).substr(kPrefix.size()))) {}

 private:
  static constexpr std::string_view kPrefix = "lds: ";
};

/// Optional provenance recorded in the snapshot (0 = unknown): lets tools
/// and the bench cache detect which simulated campus a file came from.
struct SnapshotMeta {
  std::uint64_t num_students = 0;
  std::uint64_t seed = 0;
};

enum class LoadMode {
  kAuto,  ///< zero-copy when eligible, else portable copy
  kMmap,  ///< require the zero-copy fast path; Error if ineligible
  kCopy,  ///< force the portable field-by-field path
};

struct LoadOptions {
  LoadMode mode = LoadMode::kAuto;
  /// CRC32C-check every section before decoding. Leave on except when the
  /// file was verified out-of-band and load latency matters.
  bool verify_checksums = true;
  /// Per-section salvage: a section whose kSections row carries a salvage
  /// note (stats, zero-filled; a v3/v4 day-index, skipped) degrades with
  /// that note in LoadedSnapshot::warnings instead of failing the load.
  /// Every other corrupt section still throws Error, naming the section and
  /// its file offset.
  bool salvage = false;
};

/// How a snapshot should be written. Snapshots are always written in the
/// current format (store::kFormatVersion); older versions are read only.
struct SaveOptions {
  /// Store flows as dictionary/delta-varint coded columns instead of the
  /// raw (zero-copy eligible) record array.
  bool compress = false;
};

struct SectionInfo {
  std::uint32_t kind = 0;
  std::string name;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;      ///< stored (on-disk) bytes
  std::uint32_t crc32c = 0;
  std::uint32_t codec = 0;     ///< store::SectionCodec as written in flags
  std::string codec_name;
  /// Decoded size: equals `size` for raw sections, the payload's recorded
  /// raw size for coded ones — so stored/raw is the compression ratio.
  std::uint64_t raw_size = 0;
};

struct SnapshotInfo {
  std::uint32_t version = 0;
  std::uint64_t file_size = 0;
  std::uint64_t num_flows = 0;
  std::uint64_t num_devices = 0;
  std::uint64_t num_domains = 0;
  std::uint32_t flow_stride = 0;
  SnapshotMeta meta;
  std::vector<SectionInfo> sections;
};

struct LoadedSnapshot {
  core::CollectionResult collection;
  SnapshotInfo info;
  /// True when collection.dataset.flows() views the file mapping.
  bool zero_copy = false;
  /// One entry per section salvaged under LoadOptions::salvage (e.g. a
  /// stats section that failed its CRC and was zero-filled). Empty on a
  /// fully clean load.
  std::vector<std::string> warnings;
};

class MmapFile;

/// Streaming snapshot writer. Sections are encoded and appended to a
/// temporary file in the target directory (the multi-megabyte flow section
/// in bounded chunks, never fully buffered); Commit() fsyncs and atomically
/// renames into place, so readers only ever observe complete snapshots.
class Writer {
 public:
  explicit Writer(std::filesystem::path path);
  ~Writer();  ///< unlinks the temporary file if not committed
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Encodes and writes all sections of `result`. Call once per Writer.
  void WriteCollection(const core::CollectionResult& result,
                       const SnapshotMeta& meta = {},
                       const SaveOptions& options = {});
  /// fsync + rename over the target path (+ directory fsync).
  void Commit();

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

/// Validating snapshot reader over a memory-mapped file. Construction
/// validates the header, trailer and section table (magic, version,
/// endianness, bounds, alignment, table CRC); Load()/VerifyChecksums()
/// additionally CRC-check section payloads.
class Reader {
 public:
  explicit Reader(std::filesystem::path path);
  ~Reader();
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  [[nodiscard]] const SnapshotInfo& info() const noexcept;
  /// CRC32C-checks every section payload; throws Error on any mismatch.
  void VerifyChecksums() const;
  /// Full decode into a CollectionResult: every flow's references and the
  /// (device, start) order are checked as the dataset derives its device
  /// index. May be called multiple times.
  [[nodiscard]] LoadedSnapshot Load(const LoadOptions& options = {}) const;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

// --- One-shot conveniences ---------------------------------------------------

/// Collect -> disk: write `result` to `path` atomically.
void SaveSnapshot(const std::filesystem::path& path,
                  const core::CollectionResult& result,
                  const SnapshotMeta& meta = {},
                  const SaveOptions& options = {});

/// Disk -> analysis: validate and load a snapshot.
[[nodiscard]] LoadedSnapshot LoadSnapshot(const std::filesystem::path& path,
                                          const LoadOptions& options = {});

/// Header/section-table metadata only (no payload CRC pass, no decode).
[[nodiscard]] SnapshotInfo InspectSnapshot(const std::filesystem::path& path);

/// Full integrity check: structure, checksums, and one complete load.
/// Throws Error describing the first problem found.
void VerifySnapshot(const std::filesystem::path& path);

/// Tmp files a crashed writer left next to `target` (the naming scheme is
/// `<target>.tmp.<pid>`): every sibling matching the scheme whose writing
/// process is no longer alive, sorted. Never lists a live writer's tmp.
[[nodiscard]] std::vector<std::filesystem::path> FindOrphanTmpFiles(
    const std::filesystem::path& target);

/// Removes the orphans FindOrphanTmpFiles reports; returns the paths
/// actually removed. Writer's constructor and the CLI's `snapshot save` run
/// this, so a crashed save cannot strand disk space past the next save.
std::vector<std::filesystem::path> SweepOrphanTmpFiles(
    const std::filesystem::path& target);

}  // namespace lockdown::store
