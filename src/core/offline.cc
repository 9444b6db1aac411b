#include "core/offline.h"

#include <cerrno>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "io/io.h"
#include "flow/conn_log.h"
#include "logs/dhcp_log.h"
#include "logs/dns_log.h"
#include "logs/ua_log.h"
#include "obs/obs.h"
#include "sim/generator.h"

namespace lockdown::core {

namespace {

/// Writes one log through `body` into an io::File-backed stream: formatting
/// stays streaming (bounded FileStreamBuf buffer), the write path gets the
/// shim's fault injection and retry, and a full disk throws instead of
/// leaving a truncated log that "succeeded".
template <typename Body>
void WriteLogOrThrow(const std::filesystem::path& path, Body&& body) {
  try {
    io::FileStreamBuf buf(io::File::Create(path));
    std::ostream out(&buf);
    out.exceptions(std::ios::badbit);  // surface IoError out of operator<<
    body(out);
    out.flush();
    buf.file().Close();
  } catch (const io::IoError& e) {
    throw ingest::IoError(e.path(), e.op().c_str(), e.error_code());
  }
}

/// Runs one tolerant/strict file read (bounded chunks through the io::File
/// shim) and converts a whole-document rejection into the error-budget
/// exception the CLI maps to its own exit code.
template <typename Format>
std::vector<typename Format::Record> IngestLog(const std::filesystem::path& path,
                                               const ingest::IngestOptions& options,
                                               ingest::IngestReport& report) {
  obs::ScopedSpan span("ingest/" + path.filename().string());
  ingest::IngestOptions per_file = options;
  per_file.source = path.filename().string();
  auto records = ingest::ReadLogFile<Format>(path, per_file, report);
  ingest::RecordReport(report);  // error-path reads still count
  if (!records) {
    std::string why = report.Summary();
    if (!report.header_ok && report.lines_total == 0) {
      why += " (missing or garbled header)";
    }
    throw ingest::BudgetError(
        "malformed " + path.string() + " (" + ingest::ToString(options.mode) +
        " mode, budget " +
        std::to_string(options.mode == ingest::Mode::kTolerant
                           ? options.max_error_rate
                           : 0.0) +
        "): " + why);
  }
  return std::move(*records);
}

}  // namespace

ingest::IngestReport IngestSummary::Total() const {
  ingest::IngestReport total;
  total.Merge(conn);
  total.Merge(dhcp);
  total.Merge(dns);
  total.Merge(ua);
  return total;
}

void ExportLogs(const StudyConfig& config, const std::filesystem::path& dir,
                const world::ServiceCatalog& catalog) {
  OBS_SPAN("ingest/export");
  std::filesystem::create_directories(dir);

  sim::TrafficGenerator generator(config.generator, catalog);
  const CapturedFlows captured = CaptureFlows(generator, catalog);

  WriteLogOrThrow(dir / LogFiles::kConn, [&](std::ostream& out) {
    flow::WriteConnLog(out, captured.flows);
  });
  WriteLogOrThrow(dir / LogFiles::kDhcp, [&](std::ostream& out) {
    logs::WriteDhcpLog(out, generator.dhcp_log());
  });
  WriteLogOrThrow(dir / LogFiles::kDns, [&](std::ostream& out) {
    logs::WriteDnsLog(out, generator.dns_log());
  });
  WriteLogOrThrow(dir / LogFiles::kUa, [&](std::ostream& out) {
    std::vector<logs::UaRecord> ua;
    ua.reserve(generator.ua_sightings().size());
    for (const sim::UaSighting& s : generator.ua_sightings()) {
      ua.push_back(logs::UaRecord{s.ts, s.client_ip, std::string(s.user_agent)});
    }
    logs::WriteUaLog(out, ua);
  });
}

RawInputs ReadRawInputs(const std::filesystem::path& dir,
                        const ingest::IngestOptions& options,
                        IngestSummary* summary) {
  IngestSummary local;
  IngestSummary& s = summary != nullptr ? *summary : local;
  s = IngestSummary{};

  RawInputs inputs;
  inputs.flows =
      IngestLog<flow::ConnLogFormat>(dir / LogFiles::kConn, options, s.conn);
  inputs.dhcp_log =
      IngestLog<logs::DhcpLogFormat>(dir / LogFiles::kDhcp, options, s.dhcp);
  inputs.dns_log =
      IngestLog<logs::DnsLogFormat>(dir / LogFiles::kDns, options, s.dns);
  inputs.ua_log = IngestLog<logs::UaLogFormat>(dir / LogFiles::kUa, options, s.ua);
  return inputs;
}

RawInputs ReadRawInputs(const std::filesystem::path& dir) {
  return ReadRawInputs(dir, ingest::IngestOptions{}, nullptr);
}

CollectionResult CollectFromLogs(const std::filesystem::path& dir,
                                 const StudyConfig& config,
                                 const ingest::IngestOptions& options,
                                 IngestSummary* summary) {
  return MeasurementPipeline::Process(ReadRawInputs(dir, options, summary),
                                      MeasurementPipeline::MakeAnonymizer(config),
                                      config.visitor_min_days, config.threads);
}

CollectionResult CollectFromLogs(const std::filesystem::path& dir,
                                 const StudyConfig& config) {
  return CollectFromLogs(dir, config, ingest::IngestOptions{}, nullptr);
}

}  // namespace lockdown::core
