#include "obs/critpath/dag_json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/crc32c.h"

namespace colsgd {
namespace {

JsonValue Num(double v) { return JsonValue::Number(v); }

// Whether `v` is a whole number in [lo, hi): only such a value may be cast
// to an index (a cast out of the target type's range is undefined).
bool IsIndex(const JsonValue& v, double lo, double hi) {
  const double x = v.number_value();
  return x >= lo && x < hi && std::floor(x) == x;
}

// Whether `v` fits an int64_t or a uint64_t field: [-2^63, 2^63) or [0, 2^64).
bool IsInt64(const JsonValue& v) {
  return IsIndex(v, -9223372036854775808.0, 9223372036854775808.0);
}
bool IsUint64(const JsonValue& v) {
  return IsIndex(v, 0, 18446744073709551616.0);
}

// Whether `v` is -1 or names a msg op among the ops of `dag` read so far.
bool IsMsgRef(const CritDag& dag, const JsonValue& v) {
  const double i = v.number_value();
  return i == -1 || (IsIndex(v, 0, static_cast<double>(dag.ops.size())) &&
                     dag.ops[static_cast<size_t>(i)].kind == CritOpKind::kMsg);
}

JsonValue TermJson(const CritTerm& term) {
  JsonValue t = JsonValue::Array();
  t.Append(Num(static_cast<double>(term.kind)));
  t.Append(Num(static_cast<double>(term.ref)));
  t.Append(Num(static_cast<double>(term.ref2)));
  t.Append(Num(term.value));
  t.Append(Num(term.add_seconds));
  t.Append(Num(static_cast<double>(term.add_node)));
  return t;
}

Result<CritTerm> TermFromJson(const JsonValue& json, const CritDag& dag) {
  const auto& a = json.array();
  if (!json.is_array() || a.size() != 6) {
    return Status::InvalidArgument("critdag: malformed term");
  }
  if (!IsInt64(a[1]) || !IsInt64(a[2])) {
    return Status::InvalidArgument("critdag: term ref out of range");
  }
  const double kind = a[0].number_value();  // a CritCauseKind
  if (!IsIndex(a[0], 0, 5) || !IsIndex(a[5], -1, dag.num_nodes) ||
      (kind == 0 && !IsMsgRef(dag, a[1])) ||              // kMsg: ref
      (kind == 1 && !IsIndex(a[1], 0, dag.num_nodes)) ||  // kClock: ref
      (kind == 2 && !IsIndex(a[2], 0, dag.num_nodes))) {  // kStamp: ref2
    return Status::InvalidArgument("critdag: term names no message or node");
  }
  CritTerm term;
  term.kind = static_cast<CritCauseKind>(
      static_cast<int>(a[0].number_value()));
  term.ref = static_cast<int64_t>(a[1].number_value());
  term.ref2 = static_cast<int64_t>(a[2].number_value());
  term.value = a[3].number_value();
  term.add_seconds = a[4].number_value();
  term.add_node = static_cast<int32_t>(a[5].number_value());
  return term;
}

JsonValue TermsJson(const std::vector<CritTerm>& terms) {
  JsonValue array = JsonValue::Array();
  for (const CritTerm& term : terms) array.Append(TermJson(term));
  return array;
}

JsonValue OpJson(const CritOp& op) {
  JsonValue a = JsonValue::Array();
  a.Append(Num(static_cast<double>(op.kind)));
  switch (op.kind) {
    case CritOpKind::kCompute:
    case CritOpKind::kMem:
    case CritOpKind::kLocal:
    case CritOpKind::kStraggler:
      a.Append(Num(op.node));
      a.Append(Num(op.seconds));
      a.Append(Num(static_cast<double>(op.flops)));
      a.Append(Num(op.t));
      break;
    case CritOpKind::kMsg:
      a.Append(Num(op.node));
      a.Append(Num(op.to));
      a.Append(Num(static_cast<double>(op.bytes)));
      a.Append(Num(op.control ? 1 : 0));
      a.Append(Num(op.sender_is_clock ? 1 : 0));
      a.Append(Num(op.sender_time));
      a.Append(Num(op.tx_start));
      a.Append(Num(op.tx_done));
      a.Append(Num(op.rx_start));
      a.Append(Num(op.rx_done));
      a.Append(Num(op.avail));
      a.Append(Num(static_cast<double>(op.prev_out)));
      a.Append(Num(static_cast<double>(op.prev_in)));
      a.Append(Num(op.tail_seconds));
      a.Append(Num(static_cast<double>(op.tail_node)));
      a.Append(TermsJson(op.terms));
      break;
    case CritOpKind::kSet:
      a.Append(Num(op.node));
      a.Append(Num(op.t));
      a.Append(Num(op.prev));
      a.Append(TermsJson(op.terms));
      break;
    case CritOpKind::kBarrier:
      a.Append(Num(op.node));
      a.Append(Num(op.t));
      break;
    case CritOpKind::kStamp:
      a.Append(Num(op.node));
      a.Append(Num(op.t));
      break;
  }
  return a;
}

Result<CritOp> OpFromJson(const JsonValue& json, const CritDag& dag) {
  if (!json.is_array() || json.array().empty()) {
    return Status::InvalidArgument("critdag: malformed op");
  }
  const auto& a = json.array();
  auto need = [&](size_t n) { return a.size() >= n; };
  if (!IsIndex(a[0], 0, 256) ||
      (a.size() > 1 && !IsIndex(a[1], 0, dag.num_nodes))) {
    return Status::InvalidArgument("critdag: op names no kind or node");
  }
  CritOp op;
  op.kind = static_cast<CritOpKind>(static_cast<int>(a[0].number_value()));
  switch (op.kind) {
    case CritOpKind::kCompute:
    case CritOpKind::kMem:
    case CritOpKind::kLocal:
    case CritOpKind::kStraggler:
      if (!need(5)) return Status::InvalidArgument("critdag: short advance");
      if (!IsUint64(a[3])) {
        return Status::InvalidArgument("critdag: advance flops out of range");
      }
      op.node = static_cast<uint32_t>(a[1].number_value());
      op.seconds = a[2].number_value();
      op.flops = static_cast<uint64_t>(a[3].number_value());
      op.t = a[4].number_value();
      break;
    case CritOpKind::kMsg: {
      if (!need(17)) return Status::InvalidArgument("critdag: short msg");
      if (!IsIndex(a[2], 0, dag.num_nodes) || !IsMsgRef(dag, a[12]) ||
          !IsMsgRef(dag, a[13]) || !IsIndex(a[15], -1, dag.num_nodes)) {
        return Status::InvalidArgument("critdag: msg names no message or node");
      }
      if (!IsUint64(a[3])) {
        return Status::InvalidArgument("critdag: msg bytes out of range");
      }
      op.node = static_cast<uint32_t>(a[1].number_value());
      op.to = static_cast<uint32_t>(a[2].number_value());
      op.bytes = static_cast<uint64_t>(a[3].number_value());
      op.control = a[4].number_value() != 0;
      op.sender_is_clock = a[5].number_value() != 0;
      op.sender_time = a[6].number_value();
      op.tx_start = a[7].number_value();
      op.tx_done = a[8].number_value();
      op.rx_start = a[9].number_value();
      op.rx_done = a[10].number_value();
      op.avail = a[11].number_value();
      op.prev_out = static_cast<int64_t>(a[12].number_value());
      op.prev_in = static_cast<int64_t>(a[13].number_value());
      op.tail_seconds = a[14].number_value();
      op.tail_node = static_cast<int32_t>(a[15].number_value());
      for (const JsonValue& t : a[16].array()) {
        Result<CritTerm> term = TermFromJson(t, dag);
        if (!term.ok()) return term.status();
        op.terms.push_back(*term);
      }
      break;
    }
    case CritOpKind::kSet: {
      if (!need(5)) return Status::InvalidArgument("critdag: short set");
      op.node = static_cast<uint32_t>(a[1].number_value());
      op.t = a[2].number_value();
      op.prev = a[3].number_value();
      for (const JsonValue& t : a[4].array()) {
        Result<CritTerm> term = TermFromJson(t, dag);
        if (!term.ok()) return term.status();
        op.terms.push_back(*term);
      }
      break;
    }
    case CritOpKind::kBarrier:
      if (!need(3)) return Status::InvalidArgument("critdag: short barrier");
      op.node = static_cast<uint32_t>(a[1].number_value());
      op.t = a[2].number_value();
      break;
    case CritOpKind::kStamp:
      if (!need(3)) return Status::InvalidArgument("critdag: short stamp");
      op.node = static_cast<uint32_t>(a[1].number_value());
      op.t = a[2].number_value();
      break;
    default:
      return Status::InvalidArgument("critdag: unknown op kind");
  }
  return op;
}

}  // namespace

JsonValue CritDagJson(const CritDag& dag) {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", JsonValue::String(kCritDagSchema));
  doc.Set("num_nodes", Num(dag.num_nodes));
  doc.Set("num_workers", Num(dag.num_workers));
  JsonValue net = JsonValue::Object();
  net.Set("latency", Num(dag.net_latency));
  net.Set("bandwidth", Num(dag.net_bandwidth));
  net.Set("overhead", Num(dag.net_overhead));
  net.Set("control_bytes", Num(static_cast<double>(dag.control_bytes)));
  doc.Set("net", std::move(net));
  JsonValue clocks = JsonValue::Array();
  for (double c : dag.final_clocks) clocks.Append(Num(c));
  doc.Set("final_clocks", std::move(clocks));
  JsonValue keyed = JsonValue::Array();
  for (const CritKeyedAvail& k : dag.keyed) {
    JsonValue row = JsonValue::Array();
    row.Append(Num(static_cast<double>(k.group)));
    row.Append(Num(static_cast<double>(k.tick)));
    row.Append(Num(static_cast<double>(k.msg)));
    keyed.Append(std::move(row));
  }
  doc.Set("keyed", std::move(keyed));
  JsonValue ops = JsonValue::Array();
  for (const CritOp& op : dag.ops) ops.Append(OpJson(op));
  doc.Set("ops", std::move(ops));
  return doc;
}

Result<CritDag> CritDagFromJson(const JsonValue& json) {
  const JsonValue* schema = json.Find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string_value() != kCritDagSchema) {
    return Status::InvalidArgument("critdag: missing or unknown schema");
  }
  CritDag dag;
  const JsonValue* num_nodes = json.Find("num_nodes");
  const JsonValue* num_workers = json.Find("num_workers");
  const JsonValue* net = json.Find("net");
  const JsonValue* clocks = json.Find("final_clocks");
  const JsonValue* keyed = json.Find("keyed");
  const JsonValue* ops = json.Find("ops");
  if (num_nodes == nullptr || num_workers == nullptr || net == nullptr ||
      clocks == nullptr || keyed == nullptr || ops == nullptr) {
    return Status::InvalidArgument("critdag: missing required field");
  }
  const JsonValue* latency = net->Find("latency");
  const JsonValue* bandwidth = net->Find("bandwidth");
  const JsonValue* overhead = net->Find("overhead");
  const JsonValue* control = net->Find("control_bytes");
  if (latency == nullptr || bandwidth == nullptr || overhead == nullptr ||
      control == nullptr) {
    return Status::InvalidArgument("critdag: malformed net block");
  }
  if (!IsUint64(*control)) {
    return Status::InvalidArgument("critdag: control_bytes out of range");
  }
  dag.net_latency = latency->number_value();
  dag.net_bandwidth = bandwidth->number_value();
  dag.net_overhead = overhead->number_value();
  dag.control_bytes = static_cast<uint64_t>(control->number_value());
  for (const JsonValue& c : clocks->array()) {
    dag.final_clocks.push_back(c.number_value());
  }
  if (static_cast<double>(dag.final_clocks.size()) !=
      num_nodes->number_value()) {
    return Status::InvalidArgument("critdag: final_clocks/num_nodes mismatch");
  }
  dag.num_nodes = static_cast<uint32_t>(dag.final_clocks.size());
  if (!IsIndex(*num_workers, 0, dag.num_nodes)) {
    return Status::InvalidArgument("critdag: num_workers out of range");
  }
  dag.num_workers = static_cast<int32_t>(num_workers->number_value());
  dag.ops.reserve(ops->array().size());
  for (const JsonValue& row : ops->array()) {
    Result<CritOp> op = OpFromJson(row, dag);
    if (!op.ok()) return op.status();
    dag.ops.push_back(*std::move(op));
  }
  for (const JsonValue& row : keyed->array()) {
    const auto& a = row.array();
    if (!row.is_array() || a.size() != 3 || !IsInt64(a[0]) ||
        !IsInt64(a[1]) || !IsMsgRef(dag, a[2])) {
      return Status::InvalidArgument("critdag: malformed keyed row");
    }
    dag.keyed.push_back({static_cast<int64_t>(a[0].number_value()),
                         static_cast<int64_t>(a[1].number_value()),
                         static_cast<int64_t>(a[2].number_value())});
  }
  return dag;
}

Status WriteCritDagFile(const CritDag& dag, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  out << CritDagJson(dag).Serialize() << "\n";
  out.close();
  if (!out) return Status::IOError("error writing " + path);
  return Status::OK();
}

Result<CritDag> ReadCritDagFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Result<JsonValue> json = ParseJson(buffer.str());
  if (!json.ok()) return json.status();
  return CritDagFromJson(*json);
}

uint32_t CritDagFingerprint(const CritDag& dag) {
  const std::string text = CritDagJson(dag).Serialize();
  return Crc32c(text.data(), text.size());
}

JsonValue CritPathJson(const CritDag& dag, const CritPathResult& result,
                       int topk) {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", JsonValue::String(kCritPathSchema));
  char fp[16];
  std::snprintf(fp, sizeof(fp), "%08x", CritDagFingerprint(dag));
  doc.Set("fingerprint", JsonValue::String(fp));
  doc.Set("makespan", Num(result.makespan));
  doc.Set("makespan_node", Num(result.makespan_node));
  doc.Set("path_length", Num(result.PathLength()));
  doc.Set("path_steps", Num(static_cast<double>(result.steps.size())));
  doc.Set("exact_misses", Num(static_cast<double>(result.exact_misses)));
  JsonValue blame = JsonValue::Array();
  for (const auto& [key, seconds] : result.blame) {
    JsonValue row = JsonValue::Object();
    row.Set("kind", JsonValue::String(
                        BlameKindName(static_cast<BlameKind>(key.first))));
    row.Set("node", Num(key.second));
    row.Set("seconds", Num(seconds));
    row.Set("share",
            Num(result.makespan > 0 ? seconds / result.makespan : 0.0));
    blame.Append(std::move(row));
  }
  doc.Set("blame", std::move(blame));
  std::vector<PathStep> top = result.steps;
  std::stable_sort(top.begin(), top.end(),
                   [](const PathStep& a, const PathStep& b) {
                     return a.length() > b.length();
                   });
  if (topk >= 0 && top.size() > static_cast<size_t>(topk)) {
    top.resize(static_cast<size_t>(topk));
  }
  JsonValue segments = JsonValue::Array();
  for (const PathStep& step : top) {
    JsonValue row = JsonValue::Object();
    row.Set("t0", Num(step.t0));
    row.Set("t1", Num(step.t1));
    row.Set("kind", JsonValue::String(BlameKindName(step.kind)));
    row.Set("node", Num(step.node));
    segments.Append(std::move(row));
  }
  doc.Set("top_segments", std::move(segments));
  return doc;
}

}  // namespace colsgd
