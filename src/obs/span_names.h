// The span-name registry: every static OBS_SPAN name in the tree, sorted.
//
// Span names double as histogram names in --metrics-out JSON and as track
// labels in dashboards, so an unregistered (typo'd, renamed-on-one-side)
// name would silently fork a timing series. OBS_SPAN (obs/trace.h) checks
// its literal against this list at compile time, so such a name does not
// build; obs_test's SpanRegistry test drives every spanned stage and fails
// on an entry no stage emits. Add the name below in sorted order when adding
// a span, remove it when removing one.
//
// Dynamically named spans (the per-file "ingest/<name>" spans, built with
// ScopedSpan directly) are not listed; they are namespaced by their static
// prefix.
#pragma once

#include <array>
#include <string_view>

namespace lockdown::obs {

inline constexpr std::array<std::string_view, 19> kRegisteredSpanNames = {
    "ingest/export",
    "pipeline/collect",
    "pipeline/pass1_attribution",
    "pipeline/pass2_retention_dns",
    "pipeline/pass3_assemble",
    "pipeline/process",
    "pipeline/ua_sightings",
    "sim/generate",
    "store/decode_columns",
    "store/encode_columns",
    "store/load",
    "store/open",
    "store/save",
    "store/verify_checksums",
    "stream/pass",
    "study/census",
    "study/diurnal",
    "study/pass",
    "study/split",
};

}  // namespace lockdown::obs
