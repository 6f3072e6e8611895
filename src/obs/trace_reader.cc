#include "obs/trace_reader.h"

#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

namespace colsgd {

namespace {

/// \brief `value` as an integer in [0, limit), or false.
bool AsUint(const JsonValue& value, double limit, uint64_t* out) {
  if (!value.is_number()) return false;
  const double v = value.number_value();
  if (!(v >= 0.0 && v < limit) || v != std::floor(v)) return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

Status BadField(const std::string& key, const char* kind) {
  return Status::InvalidArgument("trace event field \"" + key +
                                 "\" must be " + kind);
}

Result<ParsedTraceEvent> ParseEvent(const JsonValue& item) {
  if (!item.is_object()) {
    return Status::InvalidArgument("trace events must be objects");
  }
  ParsedTraceEvent event;
  for (const auto& [key, value] : item.members()) {
    if (key == "name" || key == "ph") {
      if (!value.is_string()) return BadField(key, "a string");
      if (key == "name") {
        event.name = value.string_value();
      } else if (!value.string_value().empty()) {
        event.ph = value.string_value()[0];
      }
    } else if (key == "pid" || key == "tid") {
      uint64_t id = 0;
      if (!AsUint(value, 0x1p32, &id)) return BadField(key, "a uint32");
      (key == "pid" ? event.pid : event.tid) = static_cast<uint32_t>(id);
    } else if (key == "ts" || key == "dur") {
      if (!value.is_number()) return BadField(key, "a number");
      (key == "ts" ? event.ts_us : event.dur_us) = value.number_value();
    } else if (key == "args") {
      if (!value.is_object()) return BadField(key, "an object");
      for (const auto& [arg, arg_value] : value.members()) {
        if (arg_value.is_array() || arg_value.is_object()) {
          return BadField("args." + arg, "a scalar");
        }
        event.args[arg] = arg_value;
      }
    }
  }
  return event;
}

}  // namespace

uint64_t ParsedTraceEvent::ArgUint(const std::string& key,
                                   uint64_t fallback) const {
  auto it = args.find(key);
  uint64_t value = 0;
  if (it == args.end() || !AsUint(it->second, 0x1p64, &value)) {
    return fallback;
  }
  return value;
}

double ParsedTraceEvent::ArgDouble(const std::string& key,
                                   double fallback) const {
  auto it = args.find(key);
  if (it == args.end() || !it->second.is_number()) return fallback;
  return it->second.number_value();
}

bool ParsedTraceEvent::ArgBool(const std::string& key, bool fallback) const {
  auto it = args.find(key);
  if (it == args.end() || !it->second.is_bool()) return fallback;
  return it->second.bool_value();
}

Result<ParsedTrace> ParseChromeTraceJson(const std::string& json) {
  Result<JsonValue> parsed = ParseJson(json);
  if (!parsed.ok()) {
    return Status::InvalidArgument("malformed trace JSON: " +
                                   parsed.status().message());
  }
  const JsonValue* events =
      parsed->is_object() ? parsed->Find("traceEvents") : nullptr;
  if (events == nullptr) {
    return Status::InvalidArgument("trace JSON has no traceEvents array");
  }
  if (!events->is_array()) {
    return Status::InvalidArgument("traceEvents must be an array");
  }
  ParsedTrace trace;
  for (const JsonValue& item : events->array()) {
    COLSGD_ASSIGN_OR_RETURN(ParsedTraceEvent event, ParseEvent(item));
    if (event.ph == 'M') {
      // Metadata events name the processes; they are not simulation events.
      auto name = event.args.find("name");
      if (event.name == "process_name" && name != event.args.end() &&
          name->second.is_string()) {
        trace.process_names[event.pid] = name->second.string_value();
      }
      continue;
    }
    trace.events.push_back(std::move(event));
  }
  return trace;
}

Result<ParsedTrace> ReadChromeTraceFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IOError("cannot open trace file: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseChromeTraceJson(buffer.str());
}

}  // namespace colsgd
