#include "trace/trace.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <sstream>

namespace sqp {

const char* TraceEventTypeName(TraceEventType type) {
  switch (type) {
    case TraceEventType::kAddSelection:
      return "SEL_ADD";
    case TraceEventType::kRemoveSelection:
      return "SEL_DEL";
    case TraceEventType::kAddJoin:
      return "JOIN_ADD";
    case TraceEventType::kRemoveJoin:
      return "JOIN_DEL";
    case TraceEventType::kGo:
      return "GO";
  }
  return "?";
}

size_t Trace::QueryCount() const {
  size_t n = 0;
  for (const auto& e : events) {
    if (e.type == TraceEventType::kGo) n++;
  }
  return n;
}

void Trace::Apply(const TraceEvent& event, QueryGraph* partial) {
  switch (event.type) {
    case TraceEventType::kAddSelection:
      partial->AddSelection(event.selection);
      break;
    case TraceEventType::kRemoveSelection: {
      partial->RemoveSelection(event.selection.Key());
      // Drop the relation vertex when nothing references it any more.
      const std::string& table = event.selection.table;
      if (partial->SelectionsOn(table).empty() &&
          partial->JoinsOn(table).empty()) {
        partial->RemoveRelation(table);
      }
      break;
    }
    case TraceEventType::kAddJoin:
      partial->AddJoin(event.join);
      break;
    case TraceEventType::kRemoveJoin: {
      partial->RemoveJoin(event.join.Key());
      for (const std::string* table :
           {&event.join.left_table, &event.join.right_table}) {
        if (partial->HasRelation(*table) &&
            partial->SelectionsOn(*table).empty() &&
            partial->JoinsOn(*table).empty()) {
          partial->RemoveRelation(*table);
        }
      }
      break;
    }
    case TraceEventType::kGo:
      break;
  }
}

std::vector<QueryGraph> Trace::FinalQueries() const {
  std::vector<QueryGraph> out;
  QueryGraph partial;
  for (const auto& e : events) {
    if (e.type == TraceEventType::kGo) {
      out.push_back(partial);
    } else {
      Apply(e, &partial);
    }
  }
  return out;
}

std::vector<double> Trace::FormulationDurations() const {
  std::vector<double> out;
  double formulation_start = -1;
  for (const auto& e : events) {
    if (e.type == TraceEventType::kGo) {
      if (formulation_start >= 0) {
        out.push_back(e.timestamp - formulation_start);
      }
      formulation_start = -1;
    } else if (formulation_start < 0) {
      formulation_start = e.timestamp;
    }
  }
  return out;
}

namespace {

std::string SerializeValue(const Value& v) {
  switch (v.type()) {
    case TypeId::kInt64:
      return "i:" + std::to_string(v.AsInt64());
    case TypeId::kDouble: {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "d:%.17g", v.AsDouble());
      return buf;
    }
    case TypeId::kString:
      return "s:" + std::string(v.AsString());
  }
  return "?";
}

Result<Value> DeserializeValue(const std::string& text) {
  if (text.size() < 2 || text[1] != ':') {
    return Status::InvalidArgument("bad value literal: " + text);
  }
  std::string body = text.substr(2);
  switch (text[0]) {
    case 'i':
      return Value(static_cast<int64_t>(std::stoll(body)));
    case 'd':
      return Value(std::stod(body));
    case 's':
      return Value(body);
    default:
      return Status::InvalidArgument("bad value tag: " + text);
  }
}

Result<CompareOp> ParseOp(const std::string& text) {
  if (text == "=") return CompareOp::kEq;
  if (text == "<>") return CompareOp::kNe;
  if (text == "<") return CompareOp::kLt;
  if (text == "<=") return CompareOp::kLe;
  if (text == ">") return CompareOp::kGt;
  if (text == ">=") return CompareOp::kGe;
  return Status::InvalidArgument("bad op: " + text);
}

}  // namespace

std::string Trace::Serialize() const {
  std::ostringstream os;
  os << "# sqp-trace user=" << user_id << " seed=" << seed << "\n";
  for (const auto& e : events) {
    char ts[32];
    std::snprintf(ts, sizeof(ts), "%.3f", e.timestamp);
    switch (e.type) {
      case TraceEventType::kAddSelection:
      case TraceEventType::kRemoveSelection:
        os << TraceEventTypeName(e.type) << "\t" << ts << "\t"
           << e.selection.table << "\t" << e.selection.column << "\t"
           << CompareOpName(e.selection.op) << "\t"
           << SerializeValue(e.selection.constant) << "\n";
        break;
      case TraceEventType::kAddJoin:
      case TraceEventType::kRemoveJoin:
        os << TraceEventTypeName(e.type) << "\t" << ts << "\t"
           << e.join.left_table << "\t" << e.join.left_column << "\t"
           << e.join.right_table << "\t" << e.join.right_column << "\n";
        break;
      case TraceEventType::kGo:
        os << "GO\t" << ts << "\n";
        break;
    }
  }
  return os.str();
}

Result<Trace> Trace::Deserialize(const std::string& text) {
  Trace trace;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      // Header: "# sqp-trace user=N seed=M"
      auto upos = line.find("user=");
      auto spos = line.find("seed=");
      if (upos != std::string::npos) {
        trace.user_id = std::stoull(line.substr(upos + 5));
      }
      if (spos != std::string::npos) {
        trace.seed = std::stoull(line.substr(spos + 5));
      }
      continue;
    }
    std::vector<std::string> fields;
    std::istringstream ls(line);
    std::string field;
    while (std::getline(ls, field, '\t')) fields.push_back(field);
    if (fields.empty()) continue;
    TraceEvent event;
    const std::string& kind = fields[0];
    if (fields.size() < 2) {
      return Status::InvalidArgument("truncated trace line: " + line);
    }
    event.timestamp = std::stod(fields[1]);
    if (kind == "GO") {
      event.type = TraceEventType::kGo;
    } else if (kind == "SEL_ADD" || kind == "SEL_DEL") {
      if (fields.size() != 6) {
        return Status::InvalidArgument("bad selection line: " + line);
      }
      event.type = kind == "SEL_ADD" ? TraceEventType::kAddSelection
                                     : TraceEventType::kRemoveSelection;
      event.selection.table = fields[2];
      event.selection.column = fields[3];
      auto op = ParseOp(fields[4]);
      if (!op.ok()) return op.status();
      event.selection.op = *op;
      auto value = DeserializeValue(fields[5]);
      if (!value.ok()) return value.status();
      event.selection.constant = *value;
    } else if (kind == "JOIN_ADD" || kind == "JOIN_DEL") {
      if (fields.size() != 6) {
        return Status::InvalidArgument("bad join line: " + line);
      }
      event.type = kind == "JOIN_ADD" ? TraceEventType::kAddJoin
                                      : TraceEventType::kRemoveJoin;
      event.join.left_table = fields[2];
      event.join.left_column = fields[3];
      event.join.right_table = fields[4];
      event.join.right_column = fields[5];
      event.join.Canonicalize();
    } else {
      return Status::InvalidArgument("unknown trace event: " + kind);
    }
    trace.events.push_back(std::move(event));
  }
  return trace;
}

TraceStats ComputeTraceStats(const std::vector<Trace>& traces) {
  TraceStats stats;
  if (traces.empty()) return stats;

  double total_queries = 0, total_sel = 0, total_rel = 0;
  std::vector<double> durations;
  double sel_lifetimes = 0, join_lifetimes = 0;
  size_t sel_intros = 0, join_intros = 0;

  for (const auto& trace : traces) {
    auto finals = trace.FinalQueries();
    total_queries += static_cast<double>(finals.size());
    for (const auto& q : finals) {
      total_sel += static_cast<double>(q.selections().size());
      total_rel += static_cast<double>(q.relations().size());
    }
    // Lifetimes: for each edge, count maximal runs of consecutive final
    // queries containing it.
    std::map<std::string, bool> prev_present;
    std::map<std::string, size_t> run_length;
    auto flush_run = [&](const std::string& key, bool is_join) {
      size_t len = run_length[key];
      if (len == 0) return;
      if (is_join) {
        join_lifetimes += static_cast<double>(len);
        join_intros++;
      } else {
        sel_lifetimes += static_cast<double>(len);
        sel_intros++;
      }
      run_length[key] = 0;
    };
    std::map<std::string, bool> is_join_key;
    for (const auto& q : finals) {
      std::map<std::string, bool> present;
      for (const auto& s : q.selections()) {
        present[s.Key()] = true;
        is_join_key[s.Key()] = false;
      }
      for (const auto& j : q.joins()) {
        present[j.Key()] = true;
        is_join_key[j.Key()] = true;
      }
      // Keys that disappeared end their run.
      for (auto& [key, was] : prev_present) {
        if (was && present.find(key) == present.end()) {
          flush_run(key, is_join_key[key]);
        }
      }
      for (auto& [key, now] : present) {
        if (now) run_length[key]++;
      }
      prev_present.clear();
      for (auto& [key, now] : present) prev_present[key] = now;
    }
    for (auto& [key, was] : prev_present) {
      if (was) flush_run(key, is_join_key[key]);
    }

    auto d = trace.FormulationDurations();
    durations.insert(durations.end(), d.begin(), d.end());
  }

  stats.avg_queries_per_trace = total_queries / traces.size();
  if (total_queries > 0) {
    stats.avg_selections_per_query = total_sel / total_queries;
    stats.avg_relations_per_query = total_rel / total_queries;
  }
  if (sel_intros > 0) stats.avg_selection_lifetime = sel_lifetimes / sel_intros;
  if (join_intros > 0) stats.avg_join_lifetime = join_lifetimes / join_intros;

  if (!durations.empty()) {
    std::sort(durations.begin(), durations.end());
    auto pct = [&](double p) {
      size_t idx = static_cast<size_t>(p * (durations.size() - 1));
      return durations[idx];
    };
    stats.min_duration = durations.front();
    stats.max_duration = durations.back();
    double sum = 0;
    for (double d : durations) sum += d;
    stats.avg_duration = sum / durations.size();
    stats.p25_duration = pct(0.25);
    stats.p50_duration = pct(0.50);
    stats.p75_duration = pct(0.75);
  }
  return stats;
}

}  // namespace sqp
