#include "common/fault_injector.h"

namespace sqp {

namespace {
// Canonical fault points, including ones whose declaring object may
// never be constructed in a given process (e.g. multi-node points in a
// single-node test binary). "<k>" stands for a storage-node index; the
// runtime registrations use concrete indices ("node0.disk.read") and
// the drift test normalizes both sides before comparing against
// docs/FAULT_POINTS.md.
constexpr const char* kBuiltinFaultPoints[] = {
    "disk.allocate",
    "disk.read",
    "disk.write",
    "disk.crash",
    "disk.sync_delay",
    "node<k>.disk.allocate",
    "node<k>.disk.read",
    "node<k>.disk.write",
    "node<k>.disk.crash",
    "node<k>.disk.sync_delay",
    "node<k>.partition",
    "node<k>.manifest.replicate",
    "materialize.append",
    "catalog.index_build",
    "catalog.histogram_build",
    "engine.manipulation",
};
}  // namespace

FaultInjector& FaultInjector::Global() {
  static FaultInjector injector = [] {
    FaultInjector built;
    for (const char* point : kBuiltinFaultPoints) {
      built.RegisterPoint(point);
    }
    return built;
  }();
  return injector;
}

void FaultInjector::Arm(const std::string& point, FaultSpec spec) {
  PointState state;
  state.spec = std::move(spec);
  points_[point] = std::move(state);
}

void FaultInjector::Disarm(const std::string& point) {
  points_.erase(point);
}

void FaultInjector::Reset() {
  points_.clear();
  total_fires_ = 0;
}

void FaultInjector::Seed(uint64_t seed) { rng_ = Rng(seed); }

Status FaultInjector::Check(const std::string& point) {
  auto it = points_.find(point);
  if (it == points_.end()) return Status::OK();
  PointState& state = it->second;
  if (state.spec.only_in_region && !InRegion()) return Status::OK();
  state.hits++;

  bool fire = false;
  switch (state.spec.trigger) {
    case FaultSpec::Trigger::kProbability:
      // Draw even when p == 0 so arming a point does not perturb the
      // deterministic stream other points see.
      fire = rng_.NextDouble() < state.spec.probability;
      break;
    case FaultSpec::Trigger::kEveryNth:
      fire = state.hits % state.spec.n == 0;
      break;
    case FaultSpec::Trigger::kOneShot:
      fire = state.hits == state.spec.n;
      break;
  }
  if (!fire) return Status::OK();
  state.fires++;
  total_fires_++;

  std::string msg = "injected fault at " + point;
  if (!state.spec.message.empty()) msg += ": " + state.spec.message;
  switch (state.spec.code) {
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(std::move(msg));
    case StatusCode::kInternal:
      return Status::Internal(std::move(msg));
    case StatusCode::kCancelled:
      return Status::Cancelled(std::move(msg));
    case StatusCode::kNotFound:
      return Status::NotFound(std::move(msg));
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(msg));
    case StatusCode::kAlreadyExists:
      return Status::AlreadyExists(std::move(msg));
    case StatusCode::kNotSupported:
      return Status::NotSupported(std::move(msg));
    case StatusCode::kDataLoss:
      return Status::DataLoss(std::move(msg));
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(std::move(msg));
    case StatusCode::kOk:
      break;
  }
  return Status::Internal(std::move(msg));
}

uint64_t FaultInjector::hits(const std::string& point) const {
  auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.hits;
}

uint64_t FaultInjector::fires(const std::string& point) const {
  auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.fires;
}

}  // namespace sqp
