#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <string>
#include <string_view>
#include <system_error>
#include <unordered_map>
#include <utility>
#include <vector>

#include "io/io.h"
#include "obs/obs.h"
#include "store/codec.h"
#include "store/column_codec.h"
#include "store/format.h"
#include "store/snapshot.h"
#include "util/crc32c.h"

namespace lockdown::store {

namespace {

constexpr std::size_t kFlowsPerChunk = 16384;  // 640 KiB encode buffer

// Accumulates checksum time across a save; one histogram observation per
// WriteCollection, not per chunk, so the sample means "CRC cost of a save".
class CrcTimer {
 public:
  CrcTimer() : on_(obs::MetricsEnabled()) {}

  std::uint32_t Crc(std::span<const std::byte> bytes,
                    util::Crc32cAccumulator* acc = nullptr) {
    if (!on_) {
      if (acc != nullptr) {
        acc->Update(bytes);
        return acc->value();
      }
      return util::Crc32c(bytes);
    }
    const auto t0 = std::chrono::steady_clock::now();
    std::uint32_t crc;
    if (acc != nullptr) {
      acc->Update(bytes);
      crc = acc->value();
    } else {
      crc = util::Crc32c(bytes);
    }
    total_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    return crc;
  }

  void Record() const {
    if (!on_) return;
    static obs::Histogram& crc_us =
        obs::GetHistogram("store/crc_us", obs::Buckets::kDurationUs, "us");
    crc_us.Observe(static_cast<std::uint64_t>(total_ns_ / 1000));
  }

 private:
  bool on_;
  std::int64_t total_ns_ = 0;
};

void EncodeFlow(detail::Encoder& enc, const core::Flow& f) {
  enc.U32(f.start_offset_s);
  enc.F32(f.duration_s);
  enc.U32(f.device);
  enc.U32(f.domain);
  enc.U32(f.server_ip.value());
  enc.U16(f.server_port);
  enc.U8(f.proto);
  enc.U8(0);  // the struct's padding byte, pinned to zero on disk
  enc.U64(f.bytes_up);
  enc.U64(f.bytes_down);
}

/// String pool under construction: dataset domains first (in DomainId
/// order), then any extra strings the device records reference.
class PoolBuilder {
 public:
  explicit PoolBuilder(std::span<const std::string> domains) {
    strings_.reserve(domains.size());
    for (const std::string& d : domains) {
      index_.emplace(d, static_cast<std::uint32_t>(strings_.size()));
      strings_.push_back(d);
    }
  }

  [[nodiscard]] std::uint32_t Ref(std::string_view s) {
    const auto it = index_.find(s);
    if (it != index_.end()) return it->second;
    const auto ref = static_cast<std::uint32_t>(strings_.size());
    strings_.emplace_back(s);
    // Key views the stored string, which lives as long as the builder.
    index_.emplace(strings_.back(), ref);
    return ref;
  }

  [[nodiscard]] detail::Encoder Encode(std::size_t num_domains) const {
    detail::Encoder enc;
    enc.U32(static_cast<std::uint32_t>(strings_.size()));
    enc.U32(static_cast<std::uint32_t>(num_domains));
    std::uint64_t offset = 0;
    enc.U64(offset);
    for (const std::string& s : strings_) {
      offset += s.size();
      enc.U64(offset);
    }
    for (const std::string& s : strings_) enc.Str(s);
    return enc;
  }

 private:
  std::vector<std::string> strings_;
  std::unordered_map<std::string_view, std::uint32_t> index_;
};

detail::Encoder EncodeDevices(const core::Dataset& ds, PoolBuilder& pool) {
  detail::Encoder enc;
  for (core::DeviceIndex i = 0; i < ds.num_devices(); ++i) {
    const core::DeviceEntry& dev = ds.device(i);
    const classify::DeviceObservations& obs = dev.observations;
    enc.U64(dev.id.value);
    enc.U32(obs.oui);
    enc.U8(obs.locally_administered ? 1 : 0);
    enc.U32(static_cast<std::uint32_t>(obs.user_agents.size()));
    for (const std::string& ua : obs.user_agents) enc.U32(pool.Ref(ua));
  }
  return enc;
}

detail::Encoder EncodeMeta(const core::Dataset& ds, const SnapshotMeta& meta) {
  detail::Encoder enc;
  enc.U64(ds.num_flows());
  enc.U64(ds.num_devices());
  enc.U64(ds.num_domains());
  enc.U32(kFlowStride);
  enc.U32(0);
  enc.U64(meta.num_students);
  enc.U64(meta.seed);
  return enc;
}

detail::Encoder EncodeStats(const core::CollectionStats& stats) {
  detail::Encoder enc;
  enc.U64(stats.raw_flows);
  enc.U64(stats.tap_excluded);
  enc.U64(stats.unattributed);
  enc.U64(stats.visitor_flows);
  enc.U64(stats.devices_observed);
  enc.U64(stats.devices_retained);
  enc.U64(stats.ua_sightings);
  enc.U64(stats.ua_unattributed);
  enc.U64(stats.ua_visitor_dropped);
  return enc;
}

}  // namespace

class Writer::Impl {
 public:
  explicit Impl(std::filesystem::path path)
      : target_(std::move(path)),
        tmp_(target_.string() + ".tmp." + std::to_string(::getpid())) {
    // A crashed predecessor may have left its tmp file behind; reclaim the
    // space before laying down ours (the sweep never touches a live
    // writer's tmp — see FindOrphanTmpFiles).
    SweepOrphanTmpFiles(target_);
    file_ = io::File::Create(tmp_);
  }

  ~Impl() {
    if (!committed_) {
      file_ = io::File();  // close (best-effort) before unlinking
      io::TryRemove(tmp_);
    }
  }

  void WriteCollection(const core::CollectionResult& result,
                       const SnapshotMeta& meta, const SaveOptions& options) {
    if (written_) throw Error("WriteCollection called twice");
    const core::Dataset& ds = result.dataset;
    written_ = true;
    OBS_SPAN("store/save");
    CrcTimer crc_timer;

    // Variable-length sections are encoded up front so every section size —
    // and with it the header and section table — is known before the first
    // byte hits the file; the (uncompressed) flow section streams afterwards
    // in chunks.
    PoolBuilder pool(ds.domains());
    const detail::Encoder devices = EncodeDevices(ds, pool);
    const detail::Encoder pool_enc = pool.Encode(ds.num_domains());
    const detail::Encoder meta_enc = EncodeMeta(ds, meta);
    const detail::Encoder stats_enc = EncodeStats(result.stats);
    const auto flows = ds.flows();
    detail::Encoder col_ts;
    detail::Encoder col_dom;
    detail::Encoder col_rest;
    if (options.compress) {
      col_ts = detail::EncodeTimestampColumn(flows);
      col_dom = detail::EncodeDomainColumn(flows);
      col_rest = detail::EncodeRestColumn(flows);
    }
    // Encoded bodies by kind - 1; the raw flow array has none (it streams).
    std::array<const detail::Encoder*, kSections.size()> bodies{};
    const auto put = [&](SectionKind kind, const detail::Encoder& enc) {
      bodies[static_cast<std::size_t>(kind) - 1] = &enc;
    };
    put(SectionKind::kMeta, meta_enc);
    put(SectionKind::kStringPool, pool_enc);
    put(SectionKind::kDevices, devices);
    put(SectionKind::kStats, stats_enc);
    put(SectionKind::kColTimestamps, col_ts);
    put(SectionKind::kColDomains, col_dom);
    put(SectionKind::kColRest, col_rest);

    struct Section {
      const SectionDesc* desc;
      const detail::Encoder* body;  // null for the streamed flows
      std::uint64_t size;
      std::uint64_t offset = 0;
      std::uint32_t crc = 0;
    };
    // The rows the current version carries, in table order, with the raw
    // flow array or the flow columns as options.compress asks.
    const FlowStorage storage =
        options.compress ? FlowStorage::kColumnar : FlowStorage::kRaw;
    std::vector<Section> sections;
    for (const SectionDesc& desc : kSections) {
      if (!desc.CarriedBy(kFormatVersion)) continue;
      if (desc.storage != FlowStorage::kNone && desc.storage != storage) continue;
      if (desc.kind == SectionKind::kFlows) {
        sections.push_back({&desc, nullptr, ds.num_flows() * kFlowStride});
        continue;
      }
      const detail::Encoder* body = bodies[static_cast<std::size_t>(desc.kind) - 1];
      if (body == nullptr) {
        throw Error(std::string("no encoder for the ") + desc.name + " section");
      }
      sections.push_back({&desc, body, body->size()});
    }

    std::uint64_t cursor =
        AlignUp(kHeaderSize + sections.size() * kSectionDescSize);
    for (Section& s : sections) {
      s.offset = cursor;
      cursor = AlignUp(s.offset + s.size);
    }
    const std::uint64_t trailer_offset = cursor;
    const std::uint64_t file_size = trailer_offset + kTrailerSize;

    for (Section& s : sections) {
      if (s.body != nullptr) s.crc = crc_timer.Crc(s.body->bytes());
    }

    // The raw flow section is not buffered: the file is sized up front
    // (holes read back as the zero padding the format wants), flows stream
    // through a bounded chunk while accumulating their CRC, and the header +
    // table go in last, once every section CRC is known.
    io::CrashPoint("store.writer.pre_write");
    file_.Truncate(file_size);

    Section* flow_section = nullptr;
    for (Section& s : sections) {
      if (s.desc->kind == SectionKind::kFlows) flow_section = &s;
    }
    if (flow_section != nullptr) {
      util::Crc32cAccumulator flow_crc;
      for (std::size_t begin = 0; begin < flows.size(); begin += kFlowsPerChunk) {
        const std::size_t end = std::min(begin + kFlowsPerChunk, flows.size());
        detail::Encoder chunk;
        chunk.Reserve((end - begin) * kFlowStride);
        for (std::size_t i = begin; i < end; ++i) EncodeFlow(chunk, flows[i]);
        crc_timer.Crc(chunk.bytes(), &flow_crc);
        file_.PWriteAll(chunk.bytes(),
                        flow_section->offset +
                            static_cast<std::uint64_t>(begin) * kFlowStride);
      }
      flow_section->crc = flow_crc.value();
    }
    io::CrashPoint("store.writer.mid_write");

    detail::Encoder table;
    for (const char c : kMagic) table.U8(static_cast<std::uint8_t>(c));
    table.U32(kEndianMarker);
    table.U32(kFormatVersion);
    table.U32(kHeaderSize);
    table.U32(static_cast<std::uint32_t>(sections.size()));
    table.U64(file_size);
    table.U64(kHeaderSize);  // section table offset
    for (int i = 0; i < 24; ++i) table.U8(0);
    for (const Section& s : sections) {
      table.U32(static_cast<std::uint32_t>(s.desc->kind));
      table.U32(static_cast<std::uint32_t>(s.desc->codec));  // flags
      table.U64(s.offset);
      table.U64(s.size);
      table.U32(s.crc);
      table.U32(0);  // reserved
    }
    file_.PWriteAll(table.bytes(), 0);
    for (const Section& s : sections) {
      if (s.body != nullptr) file_.PWriteAll(s.body->bytes(), s.offset);
    }

    detail::Encoder trailer;
    for (const char c : kTrailerMagic) trailer.U8(static_cast<std::uint8_t>(c));
    trailer.U32(crc_timer.Crc(table.bytes()));
    trailer.U32(0);
    file_.PWriteAll(trailer.bytes(), trailer_offset);

    crc_timer.Record();
    if (obs::MetricsEnabled()) {
      obs::GetCounter("store/bytes_written", "bytes").Add(file_size);
      obs::GetHistogram("store/snapshot_bytes", obs::Buckets::kSizeBytes,
                        "bytes")
          .Observe(file_size);
    }
  }

  void Commit() {
    if (!written_) throw Error("Commit before WriteCollection");
    if (committed_) throw Error("Commit called twice");
    io::CrashPoint("store.writer.pre_fsync");
    file_.Fsync();
    file_.Close();
    io::CrashPoint("store.writer.pre_rename");
    io::Rename(tmp_, target_);
    committed_ = true;
    io::CrashPoint("store.writer.post_rename");
    // Durability of the rename itself: fsync the containing directory.
    // Checked — an unsynced rename can vanish on power loss; only the
    // cannot-sync-a-directory carve-out (EINVAL/ENOTSUP, handled inside
    // FsyncDir) is tolerated.
    std::filesystem::path dir = target_.parent_path();
    if (dir.empty()) dir = ".";
    io::FsyncDir(dir);
  }

 private:
  std::filesystem::path target_;
  std::filesystem::path tmp_;
  io::File file_;
  bool written_ = false;
  bool committed_ = false;
};

Writer::Writer(std::filesystem::path path)
    : impl_(std::make_unique<Impl>(std::move(path))) {}
Writer::~Writer() = default;

void Writer::WriteCollection(const core::CollectionResult& result,
                             const SnapshotMeta& meta,
                             const SaveOptions& options) {
  impl_->WriteCollection(result, meta, options);
}

void Writer::Commit() { impl_->Commit(); }

namespace {

/// kill(pid, 0) probes existence without signalling; EPERM still means the
/// process exists (it just isn't ours).
bool PidAlive(pid_t pid) noexcept { return ::kill(pid, 0) == 0 || errno == EPERM; }

}  // namespace

std::vector<std::filesystem::path> FindOrphanTmpFiles(
    const std::filesystem::path& target) {
  std::vector<std::filesystem::path> orphans;
  std::filesystem::path dir = target.parent_path();
  if (dir.empty()) dir = ".";
  const std::string prefix = target.filename().string() + ".tmp.";
  std::error_code ec;
  std::filesystem::directory_iterator dir_it(dir, ec);
  if (ec) return orphans;  // no directory, no orphans
  for (const std::filesystem::directory_entry& entry : dir_it) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= prefix.size() ||
        name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    // The suffix is the writing process's pid. A tmp whose writer is still
    // alive is in-flight, not orphaned; an unparseable suffix was never ours
    // to begin with but matches our naming scheme, so sweep it too.
    const std::string_view suffix =
        std::string_view(name).substr(prefix.size());
    long pid = 0;
    const auto [p, pec] =
        std::from_chars(suffix.data(), suffix.data() + suffix.size(), pid);
    const bool parsed =
        pec == std::errc() && p == suffix.data() + suffix.size() && pid > 0;
    if (parsed && PidAlive(static_cast<pid_t>(pid))) continue;
    orphans.push_back(entry.path());
  }
  std::sort(orphans.begin(), orphans.end());
  return orphans;
}

std::vector<std::filesystem::path> SweepOrphanTmpFiles(
    const std::filesystem::path& target) {
  std::vector<std::filesystem::path> swept;
  for (const std::filesystem::path& orphan : FindOrphanTmpFiles(target)) {
    if (io::TryRemove(orphan)) swept.push_back(orphan);
  }
  return swept;
}

void SaveSnapshot(const std::filesystem::path& path,
                  const core::CollectionResult& result, const SnapshotMeta& meta,
                  const SaveOptions& options) {
  Writer writer(path);
  writer.WriteCollection(result, meta, options);
  writer.Commit();
}

}  // namespace lockdown::store
