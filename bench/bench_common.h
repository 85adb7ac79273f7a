// Shared helpers for the experiment benches.
//
// Env knobs (all optional):
//   SQP_USERS=<n>   simulated users per experiment (default per bench)
//   SQP_SCALES=s,m,l  subset of dataset scales to run (default all)
//   SQP_SEED=<n>    data/trace seed override
//   SQP_NODES=<n>   simulated storage nodes (default 1)
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/experiment.h"

namespace sqp {
namespace benchutil {

inline size_t UsersFromEnv(size_t default_users) {
  const char* env = std::getenv("SQP_USERS");
  if (env == nullptr) return default_users;
  long v = std::atol(env);
  return v > 0 ? static_cast<size_t>(v) : default_users;
}

/// Fewer simulated users at larger scales keeps default bench runs to a
/// few minutes; SQP_USERS overrides (the paper used 15 throughout).
inline size_t DefaultUsersForScale(tpch::Scale scale, size_t base) {
  switch (scale) {
    case tpch::Scale::kSmall:
      return base;
    case tpch::Scale::kMedium:
      return std::max<size_t>(3, base / 2);
    case tpch::Scale::kLarge:
      return std::max<size_t>(3, base / 3);
  }
  return base;
}

inline std::vector<tpch::Scale> ScalesFromEnv() {
  const char* env = std::getenv("SQP_SCALES");
  std::vector<tpch::Scale> all = {tpch::Scale::kSmall, tpch::Scale::kMedium,
                                  tpch::Scale::kLarge};
  if (env == nullptr) return all;
  std::vector<tpch::Scale> out;
  for (const char* p = env; *p; p++) {
    if (*p == 's') out.push_back(tpch::Scale::kSmall);
    if (*p == 'm') out.push_back(tpch::Scale::kMedium);
    if (*p == 'l') out.push_back(tpch::Scale::kLarge);
  }
  return out.empty() ? all : out;
}

inline uint64_t SeedFromEnv(uint64_t default_seed) {
  const char* env = std::getenv("SQP_SEED");
  if (env == nullptr) return default_seed;
  return static_cast<uint64_t>(std::atoll(env));
}

/// Default experiment configuration for one scale. The buffer pool is
/// the "32 MB" equivalent: ~1/3 of the small dataset (DESIGN.md §2).
inline ExperimentConfig DefaultConfig(tpch::Scale scale,
                                      size_t default_users) {
  ExperimentConfig cfg;
  cfg.scale = scale;
  cfg.num_users = UsersFromEnv(default_users);
  cfg.data_seed = SeedFromEnv(42);
  cfg.trace_seed = SeedFromEnv(42) + 7;
  const char* cpu = std::getenv("SQP_CPU_COST");
  if (cpu != nullptr) cfg.cost.cpu_seconds_per_tuple = std::atof(cpu);
  const char* nodes = std::getenv("SQP_NODES");
  if (nodes != nullptr && std::atol(nodes) > 0) {
    cfg.storage_nodes = static_cast<size_t>(std::atol(nodes));
  }
  return cfg;
}

}  // namespace benchutil
}  // namespace sqp
