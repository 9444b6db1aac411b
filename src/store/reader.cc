#include <array>
#include <bit>
#include <chrono>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "store/codec.h"
#include "store/column_codec.h"
#include "store/format.h"
#include "store/mmap_file.h"
#include "store/snapshot.h"
#include "util/crc32c.h"
#include "util/memstats.h"

namespace lockdown::store {

namespace {

constexpr bool kHostIsLittleEndian = std::endian::native == std::endian::little;

struct ParsedSection {
  const SectionDesc* desc = nullptr;
  std::uint64_t offset = 0;
  std::uint32_t crc32c = 0;
  std::span<const std::byte> payload;
};

// CRC with its cost recorded per call; checksum time is the dominant
// non-mmap cost of opening a snapshot, so it gets its own histogram.
std::uint32_t TimedCrc32c(std::span<const std::byte> bytes) {
  if (!obs::MetricsEnabled()) return util::Crc32c(bytes);
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint32_t crc = util::Crc32c(bytes);
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  static obs::Histogram& crc_us =
      obs::GetHistogram("store/crc_us", obs::Buckets::kDurationUs, "us");
  crc_us.Observe(static_cast<std::uint64_t>(us));
  return crc;
}

}  // namespace

class Reader::Impl {
 public:
  explicit Impl(std::filesystem::path path) : path_(std::move(path)) {
    OBS_SPAN("store/open");
    map_ = MmapFile::Open(path_);
    if (obs::MetricsEnabled()) {
      obs::GetCounter("store/bytes_read", "bytes").Add(map_->bytes().size());
    }
    NamingFile([this] { ParseStructure(); });
  }

  [[nodiscard]] const SnapshotInfo& info() const noexcept { return info_; }

  [[nodiscard]] bool SectionChecksumOk(std::size_t i) const {
    const ParsedSection& s = sections_[i];
    return TimedCrc32c(s.payload) == s.crc32c;
  }

  [[nodiscard]] std::string ChecksumMessage(std::size_t i) const {
    return "checksum mismatch in " + std::string(sections_[i].desc->name) +
           " section at offset " + std::to_string(sections_[i].offset) +
           " (corrupt file)";
  }

  void VerifyChecksums() const {
    OBS_SPAN("store/verify_checksums");
    NamingFile([this] {
      for (std::size_t i = 0; i < sections_.size(); ++i) {
        if (!SectionChecksumOk(i)) Fail(ChecksumMessage(i));
      }
    });
  }

  [[nodiscard]] LoadedSnapshot Load(const LoadOptions& options) const {
    OBS_SPAN("store/load");
    return NamingFile([&] { return Decode(options); });
  }

 private:
  /// Runs `fn`, naming the file in any store::Error it throws: Fail and the
  /// section decoders say what is wrong, this says where.
  template <typename Fn>
  auto NamingFile(Fn&& fn) const -> decltype(fn()) {
    try {
      return fn();
    } catch (const Error& e) {
      throw Error(path_, e);
    }
  }

  [[nodiscard]] LoadedSnapshot Decode(const LoadOptions& options) const {
    LoadedSnapshot out;
    // A corrupt section fails the load, naming the section and offset,
    // unless the section table gives it a salvage note (the advisory stats,
    // zero-filled; a legacy day index, which nothing reads) — so months of
    // flow data survive one bad section.
    bool stats_salvaged = false;
    if (options.verify_checksums) {
      for (std::size_t i = 0; i < sections_.size(); ++i) {
        if (SectionChecksumOk(i)) continue;
        const SectionDesc& desc = *sections_[i].desc;
        if (!options.salvage || desc.salvage == nullptr) Fail(ChecksumMessage(i));
        stats_salvaged = stats_salvaged || desc.kind == SectionKind::kStats;
        out.warnings.push_back(ChecksumMessage(i) + ": " + desc.salvage);
      }
    }

    out.info = info_;
    core::Dataset& ds = out.collection.dataset;

    // --- String pool ---------------------------------------------------------
    const std::vector<std::string_view> strings = DecodeStringPool();
    for (std::size_t i = 1; i < num_domains_.value(); ++i) {
      const core::DomainId id = ds.InternDomain(strings[i]);
      if (id != i) Fail("duplicate domain in string pool");
    }

    // --- Devices -------------------------------------------------------------
    // v1-v3 records also carry per-device byte/flow totals and a (domain ref,
    // bytes) list. The flows say the same, so those fields are decoded under
    // the usual bounds and string-ref checks and discarded.
    const bool legacy_totals = info_.version < 4;
    detail::Decoder dev(Section(SectionKind::kDevices), "devices");
    for (std::size_t i = 0; i < num_devices_.value(); ++i) {
      const core::DeviceIndex idx = ds.AddDevice(privacy::DeviceId{dev.U64()});
      classify::DeviceObservations& obs = ds.device_mutable(idx).observations;
      obs.oui = dev.U32();
      const std::uint8_t flags = dev.U8();
      if (flags > 1) Fail("corrupt device flags");
      obs.locally_administered = flags != 0;
      if (legacy_totals) {
        (void)dev.Bytes(16);  // total_bytes, flow_count
      }
      // Each user agent is a 4-byte string ref.
      const detail::BoundedCount num_uas = dev.Count(4, "user-agent");
      obs.user_agents.reserve(num_uas.value());
      for (std::size_t u = 0; u < num_uas.value(); ++u) {
        obs.user_agents.emplace_back(StringAt(strings, dev.U32()));
      }
      if (legacy_totals) {
        // Each entry is a 4-byte domain ref and its u64 bytes.
        const detail::BoundedCount num_domains = dev.Count(12, "domain");
        for (std::size_t d = 0; d < num_domains.value(); ++d) {
          (void)StringAt(strings, dev.U32());
          (void)dev.U64();  // bytes
        }
      }
    }
    dev.ExpectDone();

    // --- Flows ---------------------------------------------------------------
    // Either a view of the mapped section or an array decoded onto fresh
    // pages (util::MapArray); the dataset borrows it either way.
    std::span<const core::Flow> flows;
    std::shared_ptr<const void> owner;
    const auto map_flows = [&] {
      std::shared_ptr<core::Flow[]> array =
          util::MapArray<core::Flow>(num_flows_.value());
      const std::span<core::Flow> decoded(array.get(), num_flows_.value());
      flows = decoded;
      owner = std::move(array);
      return decoded;
    };
    if (HasSection(SectionKind::kFlows)) {
      const std::span<const std::byte> flow_bytes = Section(SectionKind::kFlows);
      const bool zero_copy_eligible = kHostIsLittleEndian;
      if (options.mode == LoadMode::kMmap && !zero_copy_eligible) {
        Fail("zero-copy load unavailable on a big-endian host");
      }
      if (options.mode != LoadMode::kCopy && zero_copy_eligible) {
        flows = {reinterpret_cast<const core::Flow*>(flow_bytes.data()),
                 num_flows_.value()};
        owner = map_;
        out.zero_copy = true;
        if (lockdown::obs::MetricsEnabled()) {
          lockdown::obs::GetCounter("store/load_zero_copy", "loads").Increment();
        }
      } else {
        detail::Decoder dec(flow_bytes, "flows");
        for (core::Flow& f : map_flows()) {
          f.start_offset_s = dec.U32();
          f.duration_s = dec.F32();
          f.device = dec.U32();
          f.domain = dec.U32();
          f.server_ip = net::Ipv4Address(dec.U32());
          f.server_port = dec.U16();
          f.proto = dec.U8();
          (void)dec.U8();  // padding byte
          f.bytes_up = dec.U64();
          f.bytes_down = dec.U64();
        }
        dec.ExpectDone();
        if (lockdown::obs::MetricsEnabled()) {
          lockdown::obs::GetCounter("store/load_copy", "loads").Increment();
        }
      }
    } else {
      // Columnar (compressed) flow storage: the columns decode together
      // straight into one array; the varint streams cannot back a zero-copy
      // view.
      if (options.mode == LoadMode::kMmap) {
        Fail("zero-copy load unavailable: flows are stored compressed");
      }
      detail::DecodeColumns(Section(SectionKind::kColTimestamps),
                            Section(SectionKind::kColDomains),
                            Section(SectionKind::kColRest), map_flows());
      if (lockdown::obs::MetricsEnabled()) {
        lockdown::obs::GetCounter("store/load_columnar", "loads").Increment();
      }
    }
    // The dataset checks every flow's references and the (device, start)
    // order as it derives the device index, so a CRC-valid but ill-formed
    // file fails here, not as UB or a wrong figure in a consumer.
    try {
      ds.BorrowFlows(flows, std::move(owner));
    } catch (const std::invalid_argument& e) {
      Fail(e.what());
    }

    // --- Legacy stored device index (v1-v5) ----------------------------------
    // Its size is checked with the structure; it must also equal the index
    // the flows give, entry for entry.
    if (HasSection(SectionKind::kDeviceOffsets)) {
      detail::Decoder csr(Section(SectionKind::kDeviceOffsets), "device-offsets");
      for (const std::uint64_t offset : ds.device_offsets()) {
        if (csr.U64() != offset) Fail("inconsistent device index section");
      }
    }

    // --- Stats ---------------------------------------------------------------
    // Decode errors here are salvageable like a bad checksum: the stats are
    // reporting counters, not data the analyses index into.
    if (!stats_salvaged) {
      try {
        detail::Decoder stats(Section(SectionKind::kStats), "stats");
        core::CollectionStats& st = out.collection.stats;
        st.raw_flows = stats.U64();
        st.tap_excluded = stats.U64();
        st.unattributed = stats.U64();
        st.visitor_flows = stats.U64();
        st.devices_observed = stats.U64();
        st.devices_retained = stats.U64();
        st.ua_sightings = stats.U64();
        if (info_.version >= 2) {
          st.ua_unattributed = stats.U64();
          st.ua_visitor_dropped = stats.U64();
        }
        stats.ExpectDone();
      } catch (const Error&) {
        if (!options.salvage) throw;
        out.collection.stats = core::CollectionStats{};
        out.warnings.push_back(path_.string() +
                               ": undecodable stats section: zero-filled");
      }
    }

    return out;
  }

  [[noreturn]] static void Fail(const std::string& message) { throw Error(message); }

  [[nodiscard]] bool HasSection(SectionKind kind) const noexcept {
    return kind_slot_[static_cast<std::size_t>(kind) - 1] >= 0;
  }

  [[nodiscard]] std::span<const std::byte> Section(SectionKind kind) const {
    const int slot = kind_slot_[static_cast<std::size_t>(kind) - 1];
    if (slot < 0) Fail(std::string(SectionName(kind)) + " section missing");
    return sections_[static_cast<std::size_t>(slot)].payload;
  }

  [[nodiscard]] std::string_view StringAt(
      const std::vector<std::string_view>& strings, std::uint32_t ref) const {
    if (ref >= strings.size()) Fail("string reference out of range");
    return strings[ref];
  }

  [[nodiscard]] std::vector<std::string_view> DecodeStringPool() const {
    detail::Decoder dec(Section(SectionKind::kStringPool), "string-pool");
    // Each string has a u64 end offset, after the u64 start of the first.
    const detail::BoundedCount num_strings = dec.Count(8, "string");
    const std::uint32_t num_domains = dec.U32();
    if (num_domains != info_.num_domains || num_domains > num_strings.value() ||
        num_domains == 0) {
      Fail("string pool domain count mismatch");
    }
    std::vector<std::uint64_t> offsets(num_strings.value() + 1);
    for (std::uint64_t& v : offsets) v = dec.U64();
    const std::uint64_t blob_size = dec.remaining();
    if (offsets.front() != 0 || offsets.back() != blob_size ||
        !std::is_sorted(offsets.begin(), offsets.end())) {
      Fail("corrupt string pool offsets");
    }
    const std::string_view blob = dec.Str(static_cast<std::size_t>(blob_size));
    std::vector<std::string_view> strings(num_strings.value());
    for (std::size_t i = 0; i < strings.size(); ++i) {
      strings[i] = blob.substr(static_cast<std::size_t>(offsets[i]),
                               static_cast<std::size_t>(offsets[i + 1] - offsets[i]));
    }
    if (!strings.empty() && !strings[0].empty()) {
      Fail("string pool entry 0 must be the empty domain");
    }
    return strings;
  }

  void ParseStructure() {
    const std::span<const std::byte> file = map_->bytes();
    info_.file_size = file.size();
    if (file.size() < kHeaderSize + kSectionDescSize + kTrailerSize) {
      Fail("file too small to be an LDS snapshot (" +
           std::to_string(file.size()) + " bytes)");
    }

    detail::Decoder hdr(file.subspan(0, kHeaderSize), "header");
    for (const char expected : kMagic) {
      if (static_cast<char>(hdr.U8()) != expected) {
        Fail("bad magic (not an LDS snapshot)");
      }
    }
    if (hdr.U32() != kEndianMarker) Fail("endianness marker mismatch");
    info_.version = hdr.U32();
    if (info_.version < kMinReadVersion || info_.version > kFormatVersion) {
      Fail("unsupported format version " + std::to_string(info_.version) +
           " (this build reads versions " + std::to_string(kMinReadVersion) +
           ".." + std::to_string(kFormatVersion) + ")");
    }
    if (hdr.U32() != kHeaderSize) Fail("bad header size");
    // v1/v2 files have exactly the six classic sections; from v3 on the
    // header's count is authoritative (bounded by the kinds the version may
    // carry, each at most once).
    const std::uint32_t section_count = hdr.U32();
    const std::uint32_t max_sections = MaxSectionCount(info_.version);
    if (info_.version < 3 ? section_count != max_sections
                          : (section_count < 1 || section_count > max_sections)) {
      Fail("unexpected section count " + std::to_string(section_count));
    }
    const std::uint64_t recorded_size = hdr.U64();
    if (recorded_size != file.size()) {
      Fail("file size mismatch (header says " + std::to_string(recorded_size) +
           ", file has " + std::to_string(file.size()) + " bytes — truncated?)");
    }
    const std::uint64_t table_offset = hdr.U64();
    if (table_offset != kHeaderSize) Fail("bad section table offset");

    const std::uint64_t trailer_offset = file.size() - kTrailerSize;
    detail::Decoder table(file.subspan(kHeaderSize, trailer_offset - kHeaderSize),
                          "section table");
    const detail::BoundedCount sections =
        table.Bound(section_count, kSectionDescSize, "section");
    const std::uint64_t table_end = kHeaderSize + sections.value() * kSectionDescSize;

    detail::Decoder trailer(file.subspan(trailer_offset, kTrailerSize), "trailer");
    for (const char expected : kTrailerMagic) {
      if (static_cast<char>(trailer.U8()) != expected) {
        Fail("bad trailer magic (truncated or corrupt file)");
      }
    }
    const std::uint32_t table_crc = trailer.U32();
    if (table_crc != util::Crc32c(file.subspan(0, table_end))) {
      Fail("header/section table checksum mismatch");
    }

    kind_slot_.fill(-1);
    for (std::size_t i = 0; i < sections.value(); ++i) {
      const std::uint32_t kind = table.U32();
      const std::uint32_t flags = table.U32();
      const std::uint64_t offset = table.U64();
      const std::uint64_t size = table.U64();
      const std::uint32_t crc = table.U32();
      (void)table.U32();  // reserved
      const SectionDesc* desc = FindSection(kind);
      if (desc == nullptr || !desc->CarriedBy(info_.version)) {
        Fail("unknown section kind " + std::to_string(kind));
      }
      if (kind_slot_[kind - 1] >= 0) {
        Fail("duplicate " + std::string(desc->name) + " section");
      }
      if (offset % kSectionAlign != 0) Fail("misaligned section");
      if (offset < table_end || size > trailer_offset ||
          offset > trailer_offset - size) {
        Fail("section out of bounds");
      }
      if (flags != static_cast<std::uint32_t>(desc->codec)) {
        Fail("unsupported codec " + std::to_string(flags) + " for " +
             std::string(desc->name) + " section");
      }
      const std::span<const std::byte> payload =
          file.subspan(static_cast<std::size_t>(offset),
                       static_cast<std::size_t>(size));
      kind_slot_[kind - 1] = static_cast<int>(sections_.size());
      sections_.push_back(ParsedSection{desc, offset, crc, payload});
      info_.sections.push_back(SectionInfo{
          kind, desc->name, offset, size, crc, flags, CodecName(desc->codec),
          desc->codec == SectionCodec::kRaw ? size : detail::PeekRawSize(payload)});
    }

    // --- Required sections and flow storage ---------------------------------
    bool has_flows = false;
    bool has_columns = false;
    bool all_columns = true;
    for (const SectionDesc& desc : kSections) {
      if (!desc.CarriedBy(info_.version)) continue;
      const bool present = HasSection(desc.kind);
      if (desc.required && !present) {
        Fail("missing " + std::string(desc.name) + " section");
      }
      if (desc.storage == FlowStorage::kRaw) has_flows = has_flows || present;
      if (desc.storage == FlowStorage::kColumnar) {
        has_columns = has_columns || present;
        all_columns = all_columns && present;
      }
    }
    if (has_flows == has_columns) {
      Fail(has_flows ? "both raw and columnar flow sections present"
                     : "no flow storage (neither raw nor columnar sections)");
    }
    if (has_columns && !all_columns) Fail("incomplete columnar flow storage");

    // --- Meta + cross-section size consistency -------------------------------
    const std::span<const std::byte> meta = Section(SectionKind::kMeta);
    if (meta.size() != kMetaSectionSize) Fail("bad meta section size");
    detail::Decoder m(meta, "meta");
    info_.num_flows = m.U64();
    info_.num_devices = m.U64();
    info_.num_domains = m.U64();
    info_.flow_stride = m.U32();
    (void)m.U32();
    info_.meta.num_students = m.U64();
    info_.meta.seed = m.U64();
    if (info_.flow_stride != kFlowStride) {
      Fail("incompatible flow stride " + std::to_string(info_.flow_stride) +
           " (this build uses " + std::to_string(kFlowStride) + ")");
    }
    // Each meta count is bounded by the section it sizes: flows by the raw
    // section (exactly) or each column past its raw-size and count prefix.
    for (const SectionDesc& desc : kSections) {
      if (desc.flow_bytes == 0 || !HasSection(desc.kind)) continue;
      detail::Decoder dec(Section(desc.kind), desc.name);
      if (desc.storage == FlowStorage::kColumnar) (void)dec.Bytes(16);
      num_flows_ = dec.Bound(info_.num_flows, desc.flow_bytes, "flow");
      if (desc.storage == FlowStorage::kRaw &&
          dec.remaining() != num_flows_.value() * kFlowStride) {
        Fail("flows section size disagrees with flow count");
      }
    }
    // u64 id, u32 OUI, u8 flags and u32 UA count; v1-v3 add two u64 totals
    // and a u32 domain count.
    num_devices_ = detail::Decoder(Section(SectionKind::kDevices), "devices")
                       .Bound(info_.num_devices, info_.version < 4 ? 37 : 17,
                              "device");
    if (HasSection(SectionKind::kDeviceOffsets) &&
        Section(SectionKind::kDeviceOffsets).size() !=
            (num_devices_.value() + 1) * sizeof(std::uint64_t)) {
      Fail("device-offsets section size disagrees with device count");
    }
    // After the two u32 counts, each domain has a u64 string offset.
    detail::Decoder pool(Section(SectionKind::kStringPool), "string-pool");
    (void)pool.Bytes(8);
    num_domains_ = pool.Bound(info_.num_domains, 8, "domain");
    const std::size_t want_stats =
        info_.version >= 2 ? kStatsSectionSize : kStatsSectionSizeV1;
    if (Section(SectionKind::kStats).size() != want_stats) {
      Fail("bad stats section size");
    }
  }

  std::filesystem::path path_;
  std::shared_ptr<const MmapFile> map_;
  SnapshotInfo info_;
  /// The meta counts, each bounded by the section it sizes.
  detail::BoundedCount num_flows_, num_devices_, num_domains_;
  std::vector<ParsedSection> sections_;  ///< in section-table order
  std::array<int, kSections.size()> kind_slot_{};  ///< kind-1 -> sections_ slot
};

Reader::Reader(std::filesystem::path path)
    : impl_(std::make_unique<Impl>(std::move(path))) {}
Reader::~Reader() = default;

const SnapshotInfo& Reader::info() const noexcept { return impl_->info(); }
void Reader::VerifyChecksums() const { impl_->VerifyChecksums(); }
LoadedSnapshot Reader::Load(const LoadOptions& options) const {
  return impl_->Load(options);
}

LoadedSnapshot LoadSnapshot(const std::filesystem::path& path,
                            const LoadOptions& options) {
  return Reader(path).Load(options);
}

SnapshotInfo InspectSnapshot(const std::filesystem::path& path) {
  return Reader(path).info();
}

void VerifySnapshot(const std::filesystem::path& path) {
  const Reader reader(path);
  reader.VerifyChecksums();
  (void)reader.Load({LoadMode::kAuto, false});
}

}  // namespace lockdown::store
