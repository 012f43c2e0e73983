// Exporters for the observability layer (DESIGN.md §9): turn recorded
// TraceEvents and telemetry snapshots into the two formats serving stacks
// actually consume.
//
//   * chrome_trace_json / write_chrome_trace — Chrome trace_event "JSON
//     array format": one complete event ("ph":"X") per span, timestamps in
//     microseconds. Load the file in chrome://tracing or ui.perfetto.dev to
//     see the solve timeline per thread.
//   * prometheus_text — Prometheus text exposition (version 0.0.4): the
//     flattened telemetry Registry (counters, LogHistograms, MaxGauges) as
//     `<prefix>_<name> <value>` lines plus trace-derived per-phase totals as
//     `<prefix>_phase_seconds_total{category=...,phase=...}`.
//
// parse_json is the repo's one JSON reader: an RFC 8259 parser with a
// nesting bound, behind the tune-DB loader and is_valid_json, the self-check
// of the exporters above and the bench harnesses.
#pragma once

#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/telemetry.h"
#include "support/trace.h"

namespace spcg {

/// The whole trace as a Chrome trace_event JSON object document:
/// {"traceEvents":[...],"displayTimeUnit":"ms"}.
std::string chrome_trace_json(std::span<const TraceEvent> events);

/// Stream the same document (large traces skip the intermediate string).
void write_chrome_trace(std::ostream& os, std::span<const TraceEvent> events);

/// Prometheus text exposition of telemetry samples and optional trace phase
/// totals. Sample names are sanitized ('.' and any other character outside
/// [a-zA-Z0-9_] become '_') and prefixed: "setup_cache.hits" with prefix
/// "spcg" renders as `spcg_setup_cache_hits`. Phase totals render as
/// `<prefix>_phase_seconds_total` / `<prefix>_phase_count_total` with
/// category/phase labels.
std::string prometheus_text(std::span<const CounterSample> samples,
                            std::span<const PhaseTotal> phases = {},
                            std::string_view prefix = "spcg");

/// Escape a string for embedding inside a JSON document (adds the quotes).
std::string json_quote(std::string_view s);

/// One parsed JSON value; objects keep their members in document order.
struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  /// The first member named `key` of an object, or nullptr.
  [[nodiscard]] const Json* get(std::string_view key) const;
};

/// Parse one RFC 8259 document: nullopt on a syntax error, trailing text,
/// nesting deeper than 256 values or a number outside double's range
/// (RFC 8259 §9 lets a reader limit both). A \u escape outside ASCII
/// decodes to '?'.
std::optional<Json> parse_json(std::string_view text);

/// Whether `text` is one JSON document parse_json accepts.
bool is_valid_json(std::string_view text);

}  // namespace spcg
