#include "optimizer/query_graph.h"

#include <algorithm>
#include <cassert>
#include <map>

namespace sqp {

std::string SelectionPred::Key() const {
  return table + "." + column + CompareOpName(op) + constant.ToString();
}

std::string SelectionPred::ToString() const {
  return column + " " + CompareOpName(op) + " " + constant.ToString();
}

void JoinPred::Canonicalize() {
  if (right_table < left_table) {
    std::swap(left_table, right_table);
    std::swap(left_column, right_column);
  }
}

std::string JoinPred::Key() const {
  JoinPred c = *this;
  c.Canonicalize();
  return c.left_table + "." + c.left_column + "=" + c.right_table + "." +
         c.right_column;
}

std::string JoinPred::ToString() const {
  return left_column + " = " + right_column;
}

void QueryGraph::AddRelation(const std::string& table) {
  relations_.insert(table);
}

void QueryGraph::AddSelection(SelectionPred pred) {
  if (HasSelection(pred.Key())) return;
  relations_.insert(pred.table);
  selections_.push_back(std::move(pred));
  std::sort(selections_.begin(), selections_.end());
}

void QueryGraph::AddJoin(JoinPred pred) {
  pred.Canonicalize();
  if (HasJoin(pred.Key())) return;
  relations_.insert(pred.left_table);
  relations_.insert(pred.right_table);
  joins_.push_back(std::move(pred));
  std::sort(joins_.begin(), joins_.end());
}

bool QueryGraph::RemoveSelection(const std::string& key) {
  for (auto it = selections_.begin(); it != selections_.end(); ++it) {
    if (it->Key() == key) {
      selections_.erase(it);
      return true;
    }
  }
  return false;
}

bool QueryGraph::RemoveJoin(const std::string& key) {
  for (auto it = joins_.begin(); it != joins_.end(); ++it) {
    if (it->Key() == key) {
      joins_.erase(it);
      return true;
    }
  }
  return false;
}

bool QueryGraph::RemoveRelation(const std::string& table) {
  if (relations_.erase(table) == 0) return false;
  selections_.erase(
      std::remove_if(selections_.begin(), selections_.end(),
                     [&](const SelectionPred& s) { return s.table == table; }),
      selections_.end());
  joins_.erase(
      std::remove_if(joins_.begin(), joins_.end(),
                     [&](const JoinPred& j) { return j.Touches(table); }),
      joins_.end());
  return true;
}

bool QueryGraph::HasSelection(const std::string& key) const {
  return std::any_of(selections_.begin(), selections_.end(),
                     [&](const SelectionPred& s) { return s.Key() == key; });
}

bool QueryGraph::HasJoin(const std::string& key) const {
  return std::any_of(joins_.begin(), joins_.end(),
                     [&](const JoinPred& j) { return j.Key() == key; });
}

std::vector<SelectionPred> QueryGraph::SelectionsOn(
    const std::string& table) const {
  std::vector<SelectionPred> out;
  for (const auto& s : selections_) {
    if (s.table == table) out.push_back(s);
  }
  return out;
}

std::vector<JoinPred> QueryGraph::JoinsOn(const std::string& table) const {
  std::vector<JoinPred> out;
  for (const auto& j : joins_) {
    if (j.Touches(table)) out.push_back(j);
  }
  return out;
}

bool QueryGraph::ContainsSubgraph(const QueryGraph& sub) const {
  for (const auto& r : sub.relations_) {
    if (!HasRelation(r)) return false;
  }
  for (const auto& s : sub.selections_) {
    if (!HasSelection(s.Key())) return false;
  }
  for (const auto& j : sub.joins_) {
    if (!HasJoin(j.Key())) return false;
  }
  return true;
}

QueryGraph QueryGraph::Union(const QueryGraph& other) const {
  QueryGraph out = *this;
  for (const auto& r : other.relations_) out.AddRelation(r);
  for (const auto& s : other.selections_) out.AddSelection(s);
  for (const auto& j : other.joins_) out.AddJoin(j);
  return out;
}

QueryGraph QueryGraph::Intersect(const QueryGraph& other) const {
  QueryGraph out;
  for (const auto& r : relations_) {
    if (other.HasRelation(r)) out.AddRelation(r);
  }
  for (const auto& s : selections_) {
    if (other.HasSelection(s.Key())) out.AddSelection(s);
  }
  for (const auto& j : joins_) {
    if (other.HasJoin(j.Key())) out.AddJoin(j);
  }
  return out;
}

bool QueryGraph::DisjointWith(const QueryGraph& other) const {
  return Intersect(other).empty();
}

bool QueryGraph::IsConnected() const {
  if (relations_.size() <= 1) return true;
  std::map<std::string, std::vector<std::string>> adj;
  for (const auto& j : joins_) {
    adj[j.left_table].push_back(j.right_table);
    adj[j.right_table].push_back(j.left_table);
  }
  std::set<std::string> seen;
  std::vector<std::string> stack = {*relations_.begin()};
  while (!stack.empty()) {
    std::string cur = stack.back();
    stack.pop_back();
    if (!seen.insert(cur).second) continue;
    for (const auto& next : adj[cur]) {
      if (seen.count(next) == 0) stack.push_back(next);
    }
  }
  return seen.size() == relations_.size();
}

std::string QueryGraph::CanonicalKey() const {
  std::string key = "R[";
  for (const auto& r : relations_) {
    key += r;
    key += ",";
  }
  key += "]S[";
  for (const auto& s : selections_) {
    key += s.Key();
    key += ",";
  }
  key += "]J[";
  for (const auto& j : joins_) {
    key += j.Key();
    key += ",";
  }
  key += "]";
  return key;
}

std::string QueryGraph::ToSql() const {
  std::string sql = "SELECT * FROM ";
  bool first = true;
  for (const auto& r : relations_) {
    if (!first) sql += ", ";
    sql += r;
    first = false;
  }
  if (!selections_.empty() || !joins_.empty()) {
    sql += " WHERE ";
    first = true;
    for (const auto& j : joins_) {
      if (!first) sql += " AND ";
      sql += j.left_table + "." + j.left_column + " = " + j.right_table +
             "." + j.right_column;
      first = false;
    }
    for (const auto& s : selections_) {
      if (!first) sql += " AND ";
      sql += s.table + "." + s.column + " " + CompareOpName(s.op) + " " +
             s.constant.ToString();
      first = false;
    }
  }
  return sql;
}

}  // namespace sqp
