// The span-name registry: every static OBS_SPAN name in the tree, sorted.
//
// Span names double as histogram names in --metrics-out JSON and as track
// labels in dashboards, so an unregistered (typo'd, renamed-on-one-side)
// name silently forks a timing series. lockdown_lint rule LD004 checks that
// every `OBS_SPAN("...")` literal in src/ and tools/ appears here and that
// no entry here is dead — add the name below in sorted order when adding a
// span, remove it when removing one.
//
// Dynamically named spans (e.g. the per-file "ingest/<name>" spans, built
// with ScopedSpan directly) are exempt: the rule only sees OBS_SPAN
// literals, and dynamic names are namespaced by their static prefix.
#pragma once

#include <array>
#include <string_view>

namespace lockdown::obs {

inline constexpr std::array<std::string_view, 17> kRegisteredSpanNames = {
    "ingest/export",
    "pipeline/collect",
    "pipeline/pass1_attribution",
    "pipeline/pass2_retention_dns",
    "pipeline/pass3_assemble",
    "pipeline/process",
    "pipeline/ua_sightings",
    "sim/generate",
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
