// Reads Chrome trace_event JSON back into memory — the inverse of
// obs/export.h, used by the colsgd_trace summarizer and the round-trip
// tests. The document is parsed by the shared JSON reader
// (obs/bench/json.h); this layer checks the flat trace_event shape our
// exporter emits ({"traceEvents":[...]} with one level of "args" nesting).
#ifndef COLSGD_OBS_TRACE_READER_H_
#define COLSGD_OBS_TRACE_READER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "obs/bench/json.h"

namespace colsgd {

/// \brief One parsed trace event. `args` keeps the event's scalar args;
/// use the typed accessors.
struct ParsedTraceEvent {
  std::string name;
  char ph = 'i';
  uint32_t pid = 0;
  uint32_t tid = 0;
  double ts_us = 0.0;   // microseconds, as exported
  double dur_us = 0.0;  // 'X' events
  std::map<std::string, JsonValue> args;

  /// \brief The arg as a non-negative integer; `fallback` when it is
  /// absent or not one.
  uint64_t ArgUint(const std::string& key, uint64_t fallback = 0) const;
  /// \brief The arg as a number; `fallback` when it is absent or not one.
  double ArgDouble(const std::string& key, double fallback = 0.0) const;
  /// \brief The arg as a bool; `fallback` when it is absent or not one.
  bool ArgBool(const std::string& key, bool fallback = false) const;
};

struct ParsedTrace {
  std::vector<ParsedTraceEvent> events;       // non-metadata events
  std::map<uint32_t, std::string> process_names;  // pid -> name
};

/// \brief Parses a trace_event JSON document. Malformed JSON and fields of
/// the wrong type are an InvalidArgument.
Result<ParsedTrace> ParseChromeTraceJson(const std::string& json);

/// \brief Reads and parses a trace_event JSON file.
Result<ParsedTrace> ReadChromeTraceFile(const std::string& path);

}  // namespace colsgd

#endif  // COLSGD_OBS_TRACE_READER_H_
