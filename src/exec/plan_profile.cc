#include "exec/plan_profile.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

#include "common/metrics_registry.h"
#include "common/tracing.h"

namespace sqp {

double OperatorProfile::QError() const {
  double act = std::max(1.0, static_cast<double>(act_rows));
  double est = est_rows < 0 ? act : std::max(1.0, est_rows);
  return std::max(est / act, act / est);
}

double OperatorProfile::AvgFill() const {
  return batches > 0
             ? static_cast<double>(act_rows) / static_cast<double>(batches)
             : 0.0;
}

namespace {

void FormatNode(const OperatorProfile& node, int indent, bool include_wall,
                std::ostringstream& os) {
  char buf[256];
  os << std::string(static_cast<size_t>(indent) * 2, ' ') << node.op << "("
     << node.detail << ")";
  if (node.est_rows >= 0) {
    std::snprintf(buf, sizeof(buf), " est=%.0f", node.est_rows);
  } else {
    std::snprintf(buf, sizeof(buf), " est=?");
  }
  os << buf;
  std::snprintf(buf, sizeof(buf),
                " act=%llu q=%.2f batches=%llu fill=%.1f pages=%llu"
                " tuples=%llu blocks=%llu sim=%.4fs",
                static_cast<unsigned long long>(node.act_rows), node.QError(),
                static_cast<unsigned long long>(node.batches), node.AvgFill(),
                static_cast<unsigned long long>(node.pages_pinned),
                static_cast<unsigned long long>(node.tuples_charged),
                static_cast<unsigned long long>(node.blocks_charged),
                node.sim_seconds);
  os << buf;
  if (node.cross_shard_pages > 0) {
    std::snprintf(buf, sizeof(buf), " xshard=%llu",
                  static_cast<unsigned long long>(node.cross_shard_pages));
    os << buf;
  }
  if (include_wall) {
    std::snprintf(buf, sizeof(buf), " wall=%.6fs", node.wall_seconds);
    os << buf;
  }
  os << "\n";
  for (const auto& child : node.children) {
    FormatNode(*child, indent + 1, include_wall, os);
  }
}

void JsonNode(const OperatorProfile& node, bool include_wall,
              std::ostringstream& os) {
  char buf[256];
  os << "{\"op\":\"" << JsonEscape(node.op) << "\",\"detail\":\""
     << JsonEscape(node.detail) << "\"";
  if (node.est_rows >= 0) {
    std::snprintf(buf, sizeof(buf), ",\"est_rows\":%.0f", node.est_rows);
    os << buf;
  }
  std::snprintf(buf, sizeof(buf),
                ",\"act_rows\":%llu,\"q_error\":%.2f,\"batches\":%llu,"
                "\"avg_fill\":%.1f,\"pages_pinned\":%llu,"
                "\"tuples_charged\":%llu,\"blocks_charged\":%llu,"
                "\"sim_seconds\":%.6f",
                static_cast<unsigned long long>(node.act_rows), node.QError(),
                static_cast<unsigned long long>(node.batches), node.AvgFill(),
                static_cast<unsigned long long>(node.pages_pinned),
                static_cast<unsigned long long>(node.tuples_charged),
                static_cast<unsigned long long>(node.blocks_charged),
                node.sim_seconds);
  os << buf;
  if (node.cross_shard_pages > 0) {
    std::snprintf(buf, sizeof(buf), ",\"cross_shard_pages\":%llu",
                  static_cast<unsigned long long>(node.cross_shard_pages));
    os << buf;
  }
  if (include_wall) {
    std::snprintf(buf, sizeof(buf), ",\"wall_seconds\":%.6f",
                  node.wall_seconds);
    os << buf;
  }
  if (!node.children.empty()) {
    os << ",\"children\":[";
    for (size_t i = 0; i < node.children.size(); i++) {
      if (i > 0) os << ",";
      JsonNode(*node.children[i], include_wall, os);
    }
    os << "]";
  }
  os << "}";
}

}  // namespace

std::string PlanProfile::FormatText(bool include_wall) const {
  std::ostringstream os;
  if (root != nullptr) FormatNode(*root, 0, include_wall, os);
  if (attribution.present) {
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "attribution: session=%s sim=%.6fs blocks=%llu tuples=%llu\n",
                  attribution.session.empty() ? "(system)"
                                              : attribution.session.c_str(),
                  attribution.seconds,
                  static_cast<unsigned long long>(attribution.blocks),
                  static_cast<unsigned long long>(attribution.tuples));
    os << buf;
  }
  return os.str();
}

std::string PlanProfile::FormatJson(bool include_wall) const {
  std::ostringstream os;
  if (root == nullptr) return "{}";
  JsonNode(*root, include_wall, os);
  std::string out = os.str();
  if (attribution.present && !out.empty() && out.back() == '}') {
    // Splice the attribution block into the root object, keeping the
    // output a single JSON object for existing consumers.
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  ",\"attribution\":{\"session\":\"%s\",\"sim_seconds\":%.6f,"
                  "\"blocks\":%llu,\"tuples\":%llu}",
                  JsonEscape(attribution.session).c_str(), attribution.seconds,
                  static_cast<unsigned long long>(attribution.blocks),
                  static_cast<unsigned long long>(attribution.tuples));
    out.insert(out.size() - 1, buf);
  }
  return out;
}

namespace {

/// Decorator accumulating one operator's actuals. Charge figures come
/// from CostScope deltas around each call (inclusive of children, which
/// run inside the parent's call); page pins diff the global
/// `exec.batch.pages_pinned` counter the same way.
class ProfiledExecutor : public Executor {
 public:
  ProfiledExecutor(std::unique_ptr<Executor> inner, const CostMeter* meter,
                   OperatorProfile* node)
      : inner_(std::move(inner)),
        meter_(meter),
        node_(node),
        pages_(MetricsRegistry::Global().GetCounter(
            "exec.batch.pages_pinned")),
        xshard_(MetricsRegistry::Global().GetCounter(
            "storage.node.cross_shard_pages")) {}

  Status Init() override {
    Capture capture(this);
    return inner_->Init();
  }

  Result<bool> NextBatch(TupleBatch* out) override {
    Capture capture(this);
    auto more = inner_->NextBatch(out);
    if (more.ok() && !out->empty()) {
      node_->act_rows += out->size();
      node_->batches++;
    }
    return more;
  }

  const Schema& output_schema() const override {
    return inner_->output_schema();
  }

 private:
  struct Capture {
    explicit Capture(ProfiledExecutor* p)
        : p_(p),
          scope_(*p->meter_),
          pages0_(p->pages_->value()),
          xshard0_(p->xshard_->value()),
          wall0_(std::chrono::steady_clock::now()) {}
    ~Capture() {
      OperatorProfile* node = p_->node_;
      node->sim_seconds += scope_.ElapsedSeconds();
      node->tuples_charged += scope_.ElapsedTuples();
      node->blocks_charged += scope_.ElapsedBlocks();
      node->pages_pinned += p_->pages_->value() - pages0_;
      node->cross_shard_pages += p_->xshard_->value() - xshard0_;
      node->wall_seconds +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        wall0_)
              .count();
    }
    ProfiledExecutor* p_;
    CostScope scope_;
    uint64_t pages0_;
    uint64_t xshard0_;
    std::chrono::steady_clock::time_point wall0_;
  };

  std::unique_ptr<Executor> inner_;
  const CostMeter* meter_;
  OperatorProfile* node_;
  Counter* pages_;
  Counter* xshard_;
};

}  // namespace

std::unique_ptr<Executor> MakeProfiled(std::unique_ptr<Executor> inner,
                                       const CostMeter* meter,
                                       OperatorProfile* node) {
  return std::make_unique<ProfiledExecutor>(std::move(inner), meter, node);
}

}  // namespace sqp
