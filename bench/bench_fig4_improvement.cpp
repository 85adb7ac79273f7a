// Figures 4 and 5 (+ §6.1 text, E3/E4/E5) from one replay per scale.
//
// Figure 4: average relative performance of speculation per
// execution-time bucket, for the three dataset sizes. Prints, per
// scale: the bucket series (improvement % vs normal-time bucket), the
// overall average improvement, the average materialization time, and
// the manipulation non-completion rate — the numbers the paper reports
// as 42/28/20 % improvement, 6/9/10 s materializations, and 17/25/30 %
// non-completion for 100 MB / 500 MB / 1 GB.
//
// Figure 5, printed after every Figure 4 section from the same results:
// maximum improvement and maximum penalty per bucket. The paper
// observes improvements approaching 100% for some queries (e.g. a 40 s
// query answered sub-second from a materialization) while penalties
// stay much smaller and rare — mostly short queries whose forced
// rewriting replaced an indexed base relation with an unindexed
// materialized one.
#include <algorithm>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "harness/metrics.h"

using namespace sqp;

namespace {

/// One scale's Figure 5 section: per-bucket extremes plus the global
/// best and worst query.
void PrintFigure5(tpch::Scale scale, size_t num_users,
                  const SingleUserResult& result) {
  std::printf("\n--- %s dataset (paper: %s), %zu users, %zu queries ---\n",
              tpch::ScaleName(scale), tpch::ScalePaperLabel(scale),
              num_users, result.normal.size());
  BucketOptions buckets = AutoBuckets(result.normal);
  auto series = BucketImprovements(result.normal, result.speculative, buckets);
  std::printf("%s", FormatBuckets(series, /*include_extremes=*/true).c_str());

  // Global extremes, as the paper calls out in the text.
  double best = -1e9, worst = 1e9;
  size_t best_i = 0, worst_i = 0;
  for (size_t i = 0; i < result.normal.size(); i++) {
    if (result.normal[i].seconds <= 0) continue;
    double imp = 1.0 - result.speculative[i].seconds / result.normal[i].seconds;
    if (imp > best) {
      best = imp;
      best_i = i;
    }
    if (imp < worst) {
      worst = imp;
      worst_i = i;
    }
  }
  std::printf("  best : %5.1f %%  (%.2fs -> %.2fs)\n", 100 * best,
              result.normal[best_i].seconds,
              result.speculative[best_i].seconds);
  std::printf("  worst: %5.1f %%  (%.2fs -> %.2fs)\n", 100 * worst,
              result.normal[worst_i].seconds,
              result.speculative[worst_i].seconds);
}

}  // namespace

int main() {
  struct ScaleRun {
    tpch::Scale scale;
    size_t num_users;
    SingleUserResult result;
  };
  std::vector<ScaleRun> runs;
  std::printf("=== Figure 4: speculation vs normal, per-bucket ===\n");
  for (tpch::Scale scale : benchutil::ScalesFromEnv()) {
    ExperimentConfig cfg = benchutil::DefaultConfig(
        scale, benchutil::DefaultUsersForScale(scale, 6));
    auto result = RunSingleUserExperiment(cfg);
    if (!result.ok()) {
      std::printf("experiment failed: %s\n",
                  result.status().ToString().c_str());
      return 1;
    }
    std::printf("\n--- %s dataset (paper: %s), %zu users, %zu queries ---\n",
                tpch::ScaleName(scale), tpch::ScalePaperLabel(scale),
                cfg.num_users, result->normal.size());
    BucketOptions buckets = AutoBuckets(result->normal);
    auto series = BucketImprovements(result->normal, result->speculative,
                                     buckets);
    std::printf("%s", FormatBuckets(series, /*include_extremes=*/false).c_str());
    std::printf("  improvement in range:        %5.1f %%  (paper metric)\n",
                100 * ImprovementInRange(result->normal, result->speculative,
                                         buckets.lo, buckets.hi));
    std::printf("  improvement, all queries:    %5.1f %%\n",
                100 * result->overall_improvement);
    std::printf("  avg materialization:         %5.2f s\n",
                result->avg_materialization_seconds);
    std::printf("  manipulation non-completion: %5.1f %%  (at GO)\n",
                100 * result->noncompletion_rate);
    std::printf("  cancelled by user edits:     %5.1f %%\n",
                100 * result->edit_cancellation_rate);
    std::printf("  manipulations issued/done:   %zu / %zu\n",
                result->manipulations_issued,
                result->manipulations_completed);
    std::printf("  queries rewritten via views: %5.1f %%\n",
                100 * result->rewritten_query_fraction);
    // Introspection columns (DESIGN.md §11): planner estimate quality
    // and learner calibration, diffable via bench_compare.py.
    std::printf("  plan q-error (mean):         %5.2f\n",
                MeanRootQError(result->speculative));
    EngineStats agg = AggregateEngineStats(result->engine_stats);
    if (agg.predictions_scored > 0) {
      std::printf("  learner brier:               %6.4f\n",
                  agg.brier_sum /
                      static_cast<double>(agg.predictions_scored));
    }
    // Think-time-overlap story (DESIGN.md §9): how much speculative
    // work was hidden under think time vs thrown away.
    std::printf("%s", FormatOverlapStats(result->overlap).c_str());

    if (std::getenv("SQP_DEBUG_QUERIES") != nullptr) {
      std::vector<size_t> order(result->normal.size());
      for (size_t i = 0; i < order.size(); i++) order[i] = i;
      std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        double da = result->speculative[a].seconds - result->normal[a].seconds;
        double db = result->speculative[b].seconds - result->normal[b].seconds;
        return da < db;
      });
      auto dump = [&](size_t i) {
        const auto& n = result->normal[i];
        const auto& s = result->speculative[i];
        std::printf("    n=%6.2fs s=%6.2fs views=[", n.seconds, s.seconds);
        for (const auto& v : s.views_used) std::printf("%s ", v.c_str());
        std::printf("] %s\n", n.query.ToSql().c_str());
      };
      std::printf("  best 8:\n");
      for (size_t k = 0; k < 8 && k < order.size(); k++) dump(order[k]);
      std::printf("  worst 8:\n");
      for (size_t k = 0; k < 8 && k < order.size(); k++) {
        dump(order[order.size() - 1 - k]);
      }
    }
    runs.push_back({scale, cfg.num_users, std::move(*result)});
  }

  std::printf("=== Figure 5: max improvement / max penalty per bucket ===\n");
  for (const ScaleRun& run : runs) {
    PrintFigure5(run.scale, run.num_users, run.result);
  }
  return 0;
}
