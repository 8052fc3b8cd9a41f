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

inline constexpr std::array<std::string_view, 41> kRegisteredSpanNames = {
    "ingest/export",
    "pipeline/collect",
    "pipeline/finalize",
    "pipeline/indexes",
    "pipeline/observations",
    "pipeline/pass1_attribution",
    "pipeline/pass2_retention_dns",
    "pipeline/pass3_assemble",
    "pipeline/process",
    "pipeline/ua_sightings",
    "sim/generate",
    "store/load",
    "store/open",
    "store/save",
    "stream/categories",
    "stream/diurnal",
    "stream/fig1_active_devices",
    "stream/fig2_bytes_per_device",
    "stream/fig3_hour_of_week",
    "stream/fig4_population_split",
    "stream/fig5_zoom_daily",
    "stream/fig6_social",
    "stream/fig7_steam",
    "stream/fig8_switch_counts",
    "stream/fig8_switch_daily",
    "stream/fold",
    "stream/headline",
    "study/categories",
    "study/census",
    "study/diurnal",
    "study/fig1_active_devices",
    "study/fig2_bytes_per_device",
    "study/fig3_hour_of_week",
    "study/fig4_population_split",
    "study/fig5_zoom_daily",
    "study/fig6_social",
    "study/fig7_steam",
    "study/fig8_switch_counts",
    "study/fig8_switch_daily",
    "study/fold",
    "study/headline",
};

}  // namespace lockdown::obs
