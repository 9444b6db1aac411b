// Column-codec verification: varint property tests, encode/decode round
// trips over random flow tables (edge values included), decoder fuzz (random
// payload mutations must throw store::Error or return a validated value —
// never crash or read out of bounds; the ASan tier is the real judge), a
// byte-sweep over every compressed section of a real snapshot proving the
// reader rejects or salvages but never silently misreads, and format-matrix
// round trips (raw and compressed both reload to the identical dataset; the
// legacy v2, v3 and v4 layouts are covered by the fixtures in
// tests/store/legacy).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <span>
#include <vector>

#include "core/pipeline.h"
#include "store/codec.h"
#include "store/column_codec.h"
#include "store/format.h"
#include "store/snapshot.h"

#include "../core/dataset_equal.h"
#include "snapshot_patch.h"

namespace lockdown::store {
namespace {

using core::Flow;

// --- varint properties -------------------------------------------------------

TEST(VarintProperty, UvarintRoundTripsEdgeAndRandomValues) {
  std::mt19937_64 rng(1);
  std::vector<std::uint64_t> values = {0, 1, 127, 128, 16383, 16384,
                                       std::uint64_t{1} << 32,
                                       ~std::uint64_t{0}};
  for (int i = 0; i < 2000; ++i) {
    // Bias toward boundary magnitudes: random bit width, then random value.
    const int bits = static_cast<int>(rng() % 64) + 1;
    values.push_back(rng() & ((~std::uint64_t{0}) >> (64 - bits)));
  }
  detail::Encoder enc;
  for (const std::uint64_t v : values) enc.Uvarint(v);
  detail::Decoder dec(enc.bytes(), "test");
  for (const std::uint64_t v : values) ASSERT_EQ(dec.Uvarint(), v);
  dec.ExpectDone();
}

TEST(VarintProperty, SvarintRoundTripsBothSigns) {
  std::mt19937_64 rng(2);
  std::vector<std::int64_t> values = {0, -1, 1, -64, 63, -65, 64,
                                      std::numeric_limits<std::int64_t>::min(),
                                      std::numeric_limits<std::int64_t>::max()};
  for (int i = 0; i < 2000; ++i) {
    values.push_back(static_cast<std::int64_t>(rng()));
  }
  detail::Encoder enc;
  for (const std::int64_t v : values) enc.Svarint(v);
  detail::Decoder dec(enc.bytes(), "test");
  for (const std::int64_t v : values) ASSERT_EQ(dec.Svarint(), v);
  dec.ExpectDone();
}

TEST(VarintProperty, OverlongAndTruncatedEncodingsThrow) {
  // 11 continuation bytes: past the 10-byte LEB128 maximum for u64.
  const std::vector<std::byte> overlong(11, std::byte{0x80});
  detail::Decoder dec(overlong, "test");
  EXPECT_THROW((void)dec.Uvarint(), Error);
  // A continuation bit with nothing after it.
  const std::vector<std::byte> cut = {std::byte{0x80}};
  detail::Decoder dec2(cut, "test");
  EXPECT_THROW((void)dec2.Uvarint(), Error);
}

// --- column round trips ------------------------------------------------------

/// Random flow table in (device, start) order with
/// edge values mixed in — the encoder input contract.
std::vector<Flow> RandomFlows(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Flow> flows(n);
  std::uint32_t device = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Flow& f = flows[i];
    if (rng() % 5 == 0) device += static_cast<std::uint32_t>(rng() % 3);
    f.device = device;
    f.start_offset_s = static_cast<std::uint32_t>(rng());
    f.duration_s = static_cast<float>(rng() % 100000) / 7.0F;
    f.domain = rng() % 7 == 0 ? core::kNoDomain
                              : static_cast<std::uint32_t>(rng() % 50);
    f.server_ip = net::Ipv4Address(static_cast<std::uint32_t>(rng()));
    f.server_port = static_cast<std::uint16_t>(rng());
    f.proto = rng() % 2 == 0 ? 6 : 17;
    f.bytes_up = rng();
    f.bytes_down = rng();
  }
  // (device, start) order, as a dataset holds its flows.
  std::stable_sort(flows.begin(), flows.end(), [](const Flow& a, const Flow& b) {
    return a.device != b.device ? a.device < b.device
                                : a.start_offset_s < b.start_offset_s;
  });
  return flows;
}

TEST(ColumnCodec, TimestampColumnRoundTrips) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{257},
                              std::size_t{5000}}) {
    const auto flows = RandomFlows(n, 10 + n);
    const detail::Encoder enc = detail::EncodeTimestampColumn(flows);
    EXPECT_EQ(detail::PeekRawSize(enc.bytes()), n * 4);
    std::vector<Flow> decoded(n);
    detail::DecodeTimestampColumn(enc.bytes(), decoded);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(decoded[i].start_offset_s, flows[i].start_offset_s) << i;
    }
  }
}

TEST(ColumnCodec, DomainColumnRoundTrips) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{257},
                              std::size_t{5000}}) {
    const auto flows = RandomFlows(n, 20 + n);
    const detail::Encoder enc = detail::EncodeDomainColumn(flows);
    std::vector<Flow> decoded(n);
    detail::DecodeDomainColumn(enc.bytes(), decoded);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(decoded[i].domain, flows[i].domain) << i;
    }
  }
}

TEST(ColumnCodec, RestColumnRoundTrips) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{257},
                              std::size_t{5000}}) {
    const auto flows = RandomFlows(n, 30 + n);
    const detail::Encoder enc = detail::EncodeRestColumn(flows);
    std::vector<Flow> decoded(n);
    detail::DecodeRestColumn(enc.bytes(), decoded);
    for (std::size_t i = 0; i < n; ++i) {
      const Flow& f = flows[i];
      ASSERT_EQ(decoded[i].duration_s, f.duration_s) << i;
      ASSERT_EQ(decoded[i].device, f.device) << i;
      ASSERT_EQ(decoded[i].server_ip, f.server_ip) << i;
      ASSERT_EQ(decoded[i].server_port, f.server_port) << i;
      ASSERT_EQ(decoded[i].proto, f.proto) << i;
      ASSERT_EQ(decoded[i].bytes_up, f.bytes_up) << i;
      ASSERT_EQ(decoded[i].bytes_down, f.bytes_down) << i;
    }
  }
}

/// The three decoders together rebuild the flows, and a decode into an
/// array of another length is a count mismatch.
TEST(ColumnCodec, ColumnsDecodeIntoOneFlowArray) {
  const auto flows = RandomFlows(3000, 40);
  const detail::Encoder ts = detail::EncodeTimestampColumn(flows);
  const detail::Encoder dom = detail::EncodeDomainColumn(flows);
  const detail::Encoder rest = detail::EncodeRestColumn(flows);
  std::vector<Flow> decoded(flows.size());
  detail::DecodeTimestampColumn(ts.bytes(), decoded);
  detail::DecodeDomainColumn(dom.bytes(), decoded);
  detail::DecodeRestColumn(rest.bytes(), decoded);
  EXPECT_EQ(decoded, flows);

  std::vector<Flow> shorter(flows.size() - 1);
  EXPECT_THROW(detail::DecodeTimestampColumn(ts.bytes(), shorter), Error);
  EXPECT_THROW(detail::DecodeDomainColumn(dom.bytes(), shorter), Error);
  EXPECT_THROW(detail::DecodeRestColumn(rest.bytes(), shorter), Error);
}

// --- decoder fuzz ------------------------------------------------------------

/// Mutates coded payloads at random offsets; every decode must either throw
/// store::Error or return (validation may accept a flip that lands in value
/// bytes — the snapshot layer's CRC rejects those; here we only require
/// memory safety and bounded results).
TEST(ColumnCodecFuzz, MutatedPayloadsNeverCrash) {
  const auto flows = RandomFlows(600, 99);
  const detail::Encoder ts = detail::EncodeTimestampColumn(flows);
  const detail::Encoder dom = detail::EncodeDomainColumn(flows);
  const detail::Encoder rest = detail::EncodeRestColumn(flows);
  std::mt19937_64 rng(7);
  int threw = 0;
  int decoded = 0;
  for (int round = 0; round < 3000; ++round) {
    const detail::Encoder* src =
        round % 3 == 0 ? &ts : (round % 3 == 1 ? &dom : &rest);
    std::vector<std::byte> payload(src->bytes().begin(), src->bytes().end());
    // 1-4 random byte mutations (XOR, so round 0's identity flip is impossible).
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f) {
      payload[rng() % payload.size()] ^=
          static_cast<std::byte>(1 + rng() % 255);
    }
    std::vector<Flow> out(flows.size());
    try {
      switch (round % 3) {
        case 0:
          detail::DecodeTimestampColumn(payload, out);
          break;
        case 1:
          detail::DecodeDomainColumn(payload, out);
          break;
        default:
          detail::DecodeRestColumn(payload, out);
          break;
      }
      ++decoded;
    } catch (const Error&) {
      ++threw;
    }
  }
  // Both outcomes must occur: most mutations break structure (throw), some
  // only perturb values (decode fine; CRC would catch them upstream).
  EXPECT_GT(threw, 0);
  EXPECT_GT(decoded, 0);
}

TEST(ColumnCodecFuzz, TruncatedPayloadsThrow) {
  const auto flows = RandomFlows(300, 5);
  const detail::Encoder ts = detail::EncodeTimestampColumn(flows);
  const detail::Encoder dom = detail::EncodeDomainColumn(flows);
  const detail::Encoder rest = detail::EncodeRestColumn(flows);
  for (const detail::Encoder* enc : {&ts, &dom, &rest}) {
    const auto payload = enc->bytes();
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{7}, payload.size() / 2,
          payload.size() - 1}) {
      const auto cut = payload.first(keep);
      std::vector<Flow> out(flows.size());
      if (enc == &ts) {
        EXPECT_THROW(detail::DecodeTimestampColumn(cut, out), Error);
      } else if (enc == &dom) {
        EXPECT_THROW(detail::DecodeDomainColumn(cut, out), Error);
      } else {
        EXPECT_THROW(detail::DecodeRestColumn(cut, out), Error);
      }
    }
  }
}

// --- snapshot-level: format matrix and compressed byte sweep -----------------

class CompressedSnapshotTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Per-process suite directory: each TEST is its own ctest process.
    dir_ = new std::filesystem::path(
        std::filesystem::temp_directory_path() /
        ("lockdown_codec_test_" + std::to_string(::getpid())));
    std::filesystem::remove_all(*dir_);
    std::filesystem::create_directories(*dir_);
    result_ = new core::CollectionResult(core::MeasurementPipeline::Collect(
        core::StudyConfig::Small(4, 1)));
    SaveSnapshot(*dir_ / "raw.lds", *result_);
    SaveSnapshot(*dir_ / "compressed.lds", *result_, {}, {.compress = true});
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete dir_;
    delete result_;
    dir_ = nullptr;
    result_ = nullptr;
  }

  static std::filesystem::path* dir_;
  static core::CollectionResult* result_;
};

std::filesystem::path* CompressedSnapshotTest::dir_ = nullptr;
core::CollectionResult* CompressedSnapshotTest::result_ = nullptr;

TEST_F(CompressedSnapshotTest, AllFormatsReloadTheIdenticalDataset) {
  for (const char* file : {"raw.lds", "compressed.lds"}) {
    const LoadedSnapshot snap = LoadSnapshot(*dir_ / file);
    EXPECT_TRUE(snap.warnings.empty()) << file;
    core::testing::ExpectSameDataset(result_->dataset, snap.collection.dataset);
  }
}

TEST_F(CompressedSnapshotTest, CompressedFileIsSmallerAndDescribesCodecs) {
  const SnapshotInfo raw = InspectSnapshot(*dir_ / "raw.lds");
  const SnapshotInfo comp = InspectSnapshot(*dir_ / "compressed.lds");
  EXPECT_LT(comp.file_size, raw.file_size);
  int coded = 0;
  for (const SectionInfo& s : comp.sections) {
    if (s.codec != 0) {
      ++coded;
      EXPECT_LT(s.size, s.raw_size) << s.name;
    }
  }
  EXPECT_EQ(coded, 3);  // the three flow columns
}

/// The salvage_test byte-sweep discipline applied to the compressed file:
/// flip every structure byte and a stride through the coded payloads. Every
/// load must succeed with the identical flow table, salvage with a warning,
/// or throw — a flip that silently changes decoded flows would be a CRC hole.
TEST_F(CompressedSnapshotTest, CompressedByteSweepNeverMisreads) {
  const auto path = *dir_ / "compressed.lds";
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  const std::uint64_t structure_end =
      kHeaderSize + InspectSnapshot(path).sections.size() * kSectionDescSize;

  std::vector<std::uint64_t> offsets;
  for (std::uint64_t i = 0; i < structure_end; ++i) offsets.push_back(i);
  for (std::uint64_t i = structure_end; i < bytes.size(); i += 97) {
    offsets.push_back(i);
  }
  offsets.push_back(bytes.size() - 1);

  const auto flows = result_->dataset.flows();
  const auto sweep_path = *dir_ / "sweep.lds";
  int intact = 0;
  int salvaged = 0;
  int rejected = 0;
  for (const std::uint64_t offset : offsets) {
    for (const unsigned mask : {0x01u, 0xFFu}) {
      auto mutated = bytes;
      mutated[offset] = static_cast<char>(
          static_cast<unsigned char>(mutated[offset]) ^ mask);
      std::ofstream out(sweep_path, std::ios::binary | std::ios::trunc);
      out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
      out.close();
      try {
        const LoadedSnapshot snap = LoadSnapshot(sweep_path, {.salvage = true});
        // Silent misread check: a load that reports clean must reproduce the
        // original flow table bit-for-bit.
        const auto got = snap.collection.dataset.flows();
        ASSERT_EQ(got.size(), flows.size()) << "offset " << offset;
        ASSERT_EQ(0, std::memcmp(got.data(), flows.data(),
                                 flows.size() * sizeof(Flow)))
            << "silent flow misread at offset " << offset;
        snap.warnings.empty() ? ++intact : ++salvaged;
      } catch (const Error&) {
        ++rejected;
      }
    }
  }
  EXPECT_GT(rejected, 0);
  EXPECT_GT(intact + salvaged + rejected, 0);
}

/// A flow count must be bounded by what every column can hold before it
/// sizes the flow array. Each column is checked on its own: past its 16-byte
/// raw-size and count prefix, its payload bounds a count by its kSections
/// row's fewest bytes per flow, and 2^62, 2^40, one past its remaining bytes
/// and one past what they hold at that many bytes per flow all fail that
/// bound. In the file, with every CRC resealed:
///   - a meta flow count one past one column's bound fails as soon as the
///     file is opened;
///   - one column's own count raised to those values (its raw-size prefix
///     set to count x raw bytes per flow, wrapping) fails the load, naming
///     that column;
///   - the meta count with all three columns, or only col-rest (the last
///     decoded), raised to 2^62 or 2^40 fails to open, load and verify.
/// Every failure is store::Error, never std::bad_alloc or std::length_error.
TEST_F(CompressedSnapshotTest, ColumnCountBeyondPayloadIsCorrupt) {
  const testing::PatchedSnapshot clean(*dir_ / "compressed.lds");
  struct Column {
    SectionKind kind;
    const char* name;
    std::uint64_t raw_bytes;  ///< decoded bytes per flow
    std::uint64_t min_bytes;  ///< fewest payload bytes per flow
  };
  const Column columns[] = {
      {SectionKind::kColTimestamps, "col-timestamps", 4, 1},
      {SectionKind::kColDomains, "col-domains", 4, 1},
      {SectionKind::kColRest, "col-rest", 31, 14}};
  const std::uint64_t num_flows = clean.info().num_flows;
  const auto path = *dir_ / "crafted_count.lds";
  const auto expect_corrupt = [&](const testing::PatchedSnapshot& file,
                                  const std::string& what,
                                  const std::string& message_part) {
    file.Write(path);
    try {
      (void)LoadSnapshot(path);
      ADD_FAILURE() << what << " loaded";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(message_part), std::string::npos)
          << what << ": " << e.what();
    }
    EXPECT_THROW((void)LoadSnapshot(path, {.salvage = true}), Error) << what;
    EXPECT_THROW(VerifySnapshot(path), Error) << what;
  };

  for (const Column& column : columns) {
    const SectionDesc& row = *FindSection(static_cast<std::uint32_t>(column.kind));
    ASSERT_EQ(row.flow_bytes, column.min_bytes) << column.name;
    const SectionInfo& s = clean.section(column.name);
    ASSERT_GT(s.size, 16u);
    const std::uint64_t remaining = s.size - 16;  // after raw size and count
    const auto payload = std::as_bytes(std::span<const char>(
        clean.bytes().data() + s.offset, static_cast<std::size_t>(s.size)));
    detail::Decoder dec(payload, column.name);
    (void)dec.Bytes(16);
    EXPECT_EQ(dec.Bound(num_flows, row.flow_bytes, "flow").value(), num_flows);

    testing::PatchedSnapshot meta_only = clean;
    meta_only.Put(clean.section("meta").offset, remaining / column.min_bytes + 1, 8);
    meta_only.Reseal();
    meta_only.Write(path);
    EXPECT_THROW((void)InspectSnapshot(path), Error) << column.name;

    for (const std::uint64_t count :
         {std::uint64_t{1} << 62, std::uint64_t{1} << 40, remaining + 1,
          remaining / column.min_bytes + 1}) {
      const std::string what =
          std::string(column.name) + " count " + std::to_string(count);
      EXPECT_THROW((void)dec.Bound(count, row.flow_bytes, "flow"), Error) << what;
      testing::PatchedSnapshot file = clean;
      file.Put(s.offset, count * column.raw_bytes, 8);
      file.Put(s.offset + 8, count, 8);
      file.Reseal();
      expect_corrupt(file, what, column.name);
    }
  }

  for (const bool rest_only : {false, true}) {
    for (const std::uint64_t count :
         {std::uint64_t{1} << 62, std::uint64_t{1} << 40}) {
      testing::PatchedSnapshot file = clean;
      file.Put(clean.section("meta").offset, count, 8);  // num_flows
      for (const Column& column : columns) {
        if (rest_only && column.kind != SectionKind::kColRest) continue;
        const SectionInfo& s = clean.section(column.name);
        file.Put(s.offset, count * column.raw_bytes, 8);
        file.Put(s.offset + 8, count, 8);
      }
      file.Reseal();
      const std::string what =
          (rest_only ? "col-rest only, count " : "all columns, count ") +
          std::to_string(count);
      expect_corrupt(file, what, "section size disagrees with flow count");
      EXPECT_THROW((void)InspectSnapshot(path), Error) << what;
    }
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace lockdown::store
