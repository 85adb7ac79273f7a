// Query graphs for conjunctive (select-project-join) queries — paper §2.
//
// Vertices are relations; each equijoin maps to an edge between two
// relation vertices; each selection maps to an edge between a relation
// vertex and a constant vertex. The *atomic parts* of a query are exactly
// these edges; partial queries, containment (⊆), union and intersection
// are all defined over the edge sets, which is what the cost model's
// properties P1/P2 and Theorem 3.1 quantify over.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "common/compare_op.h"
#include "common/value.h"

namespace sqp {

/// Selection edge: `table.column op constant`.
struct SelectionPred {
  std::string table;
  std::string column;
  CompareOp op = CompareOp::kEq;
  Value constant;

  /// Canonical identity string; two predicates are the same atomic part
  /// iff their keys match.
  std::string Key() const;
  std::string ToString() const;

  bool operator==(const SelectionPred& other) const {
    return Key() == other.Key();
  }
  bool operator<(const SelectionPred& other) const {
    return Key() < other.Key();
  }
};

/// Join edge: `left.lcol = right.rcol`, stored with left < right so the
/// same join always has the same key.
struct JoinPred {
  std::string left_table;
  std::string left_column;
  std::string right_table;
  std::string right_column;

  /// Reorder sides so left_table < right_table.
  void Canonicalize();

  std::string Key() const;
  std::string ToString() const;

  bool Touches(const std::string& table) const {
    return left_table == table || right_table == table;
  }
  /// The other side of the edge, given one endpoint.
  const std::string& Other(const std::string& table) const {
    return left_table == table ? right_table : left_table;
  }

  bool operator==(const JoinPred& other) const {
    return Key() == other.Key();
  }
  bool operator<(const JoinPred& other) const { return Key() < other.Key(); }
};

class QueryGraph {
 public:
  QueryGraph() = default;

  void AddRelation(const std::string& table);
  void AddSelection(SelectionPred pred);  // also adds its relation
  void AddJoin(JoinPred pred);            // also adds both relations

  bool RemoveSelection(const std::string& key);
  bool RemoveJoin(const std::string& key);
  /// Remove a relation vertex together with every incident edge.
  bool RemoveRelation(const std::string& table);

  const std::set<std::string>& relations() const { return relations_; }
  const std::vector<SelectionPred>& selections() const { return selections_; }
  const std::vector<JoinPred>& joins() const { return joins_; }

  bool HasRelation(const std::string& table) const {
    return relations_.count(table) > 0;
  }
  bool HasSelection(const std::string& key) const;
  bool HasJoin(const std::string& key) const;

  /// Selections attached to one relation vertex.
  std::vector<SelectionPred> SelectionsOn(const std::string& table) const;
  /// Join edges incident to one relation vertex.
  std::vector<JoinPred> JoinsOn(const std::string& table) const;

  size_t num_atomic_parts() const {
    return selections_.size() + joins_.size();
  }
  bool empty() const { return relations_.empty(); }

  /// Sub-graph containment: every vertex and edge of `sub` appears here.
  /// This is the ⊆ of the paper's cost model (P1) and of view matching.
  bool ContainsSubgraph(const QueryGraph& sub) const;

  /// Edge-set union / intersection.
  QueryGraph Union(const QueryGraph& other) const;
  QueryGraph Intersect(const QueryGraph& other) const;

  /// Do the two graphs share no relations/edges? (P2's disjointness.)
  bool DisjointWith(const QueryGraph& other) const;

  /// True when the join edges connect all relations (single component).
  /// Disconnected graphs imply cross products.
  bool IsConnected() const;

  /// Stable identity over relations+edges, used for caching, learner
  /// keys, and equality.
  std::string CanonicalKey() const;

  bool operator==(const QueryGraph& other) const {
    return CanonicalKey() == other.CanonicalKey();
  }

  /// SQL-ish rendering (`SELECT * FROM ... WHERE ...`) for logs and
  /// examples.
  std::string ToSql() const;

 private:
  std::set<std::string> relations_;
  std::vector<SelectionPred> selections_;  // kept sorted by Key()
  std::vector<JoinPred> joins_;            // kept sorted by Key()
};

}  // namespace sqp
