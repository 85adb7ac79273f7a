#include "speculation/engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <set>

#include "common/fault_injector.h"
#include "common/logging.h"

namespace sqp {

SpeculationEngine::SpeculationEngine(Database* db, SimServer* server,
                                     SpeculationEngineOptions options)
    : db_(db),
      server_(server),
      options_(std::move(options)),
      cost_model_(db, &learner_, options_.cost_model),
      speculator_(db, &cost_model_, options_.speculator),
      recorder_(options_.flight_recorder_capacity),
      rng_(options_.rng_seed) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  m_issued_ = registry.GetCounter("engine.manipulations_issued");
  m_completed_ = registry.GetCounter("engine.manipulations_completed");
  m_cancelled_edit_ = registry.GetCounter("engine.cancelled_by_edit");
  m_cancelled_go_ = registry.GetCounter("engine.cancelled_at_go");
  m_abandoned_ = registry.GetCounter("engine.abandoned_at_completion");
  m_failed_ = registry.GetCounter("engine.manipulations_failed");
  m_retries_ = registry.GetCounter("engine.retries");
  m_suspended_ = registry.GetCounter("engine.speculation_suspended");
  m_evicted_ = registry.GetCounter("engine.views_evicted_for_budget");
  m_gc_ = registry.GetCounter("engine.views_garbage_collected");
  m_durations_ = registry.GetHistogram("engine.manipulation_seconds");
  m_cache_views_ = registry.GetGauge("spec.cache.views");
  m_cache_pages_ = registry.GetGauge("spec.cache.pages");
}

void SpeculationEngine::UpdateCacheGauges() {
  uint64_t pages = 0;
  for (const auto& [name, view] : owned_views_) {
    const TableInfo* info = db_->catalog().GetTable(name);
    if (info != nullptr) pages += info->heap->page_count();
  }
  m_cache_views_->Set(static_cast<double>(owned_views_.size()));
  m_cache_pages_->Set(static_cast<double>(pages));
}

void SpeculationEngine::SyncOutstanding(double sim_time) {
  for (auto it = outstanding_.begin(); it != outstanding_.end();) {
    if (!server_->IsComplete(it->job) ||
        server_->CompletionTime(it->job) > sim_time + 1e-9) {
      ++it;
      continue;
    }
    const Manipulation& m = it->manipulation;
    bool abandoned = false;
    if (m.is_materialization()) {
      // Benefit re-check with ground truth: the result is built, so its
      // true scan cost is known. If scanning it would cost more than
      // recomputing the sub-query, abandon it rather than let forced
      // rewriting regress the final query.
      const TableInfo* info = db_->catalog().GetTable(it->table_name);
      const CostConfig& rates = db_->meter().config();
      double true_scan_cost =
          info == nullptr
              ? 0
              : info->stats.page_count() * rates.io_seconds_per_block +
                    info->stats.row_count() * rates.cpu_seconds_per_tuple;
      if (true_scan_cost >= it->issue_cost_without) {
        SQP_LOG_DEBUG << "spec: abandoned " << m.Describe()
                      << " (true scan cost " << true_scan_cost
                      << "s >= recompute " << it->issue_cost_without << "s)";
        (void)db_->DropTable(it->table_name);
        stats_.abandoned_at_completion++;
        stats_.wasted_manipulation_work += it->work;
        m_abandoned_->Increment();
        recorder_.SetOutcome(it->record_id, DecisionOutcome::kAbandoned);
        abandoned = true;
      } else {
        // The result becomes visible to the optimizer now. Registration
        // can fail when the manifest commit misses quorum (node
        // partition): the view is then unusable — drop it and count the
        // manipulation as abandoned, never half-registered.
        Status registered = db_->RegisterView(m.target_query, it->table_name);
        if (!registered.ok()) {
          SQP_LOG_DEBUG << "spec: registration failed for "
                        << it->table_name << " ("
                        << registered.ToString() << ")";
          (void)db_->DropTable(it->table_name);
          stats_.abandoned_at_completion++;
          stats_.wasted_manipulation_work += it->work;
          m_abandoned_->Increment();
          recorder_.SetOutcome(it->record_id, DecisionOutcome::kAbandoned);
          abandoned = true;
        } else {
          owned_views_[it->table_name] =
              OwnedView{m.target_query, sim_time, it->record_id};
        }
      }
    } else if (m.type == ManipulationType::kHistogramCreation) {
      owned_histograms_.push_back(
          OwnedStat{m.table, m.column, it->record_id});
    } else if (m.type == ManipulationType::kIndexCreation) {
      owned_indexes_.push_back(OwnedStat{m.table, m.column, it->record_id});
    }
    if (!abandoned) {
      recorder_.SetOutcome(it->record_id, DecisionOutcome::kCompleted);
      stats_.manipulations_completed++;
      stats_.completed_durations.push_back(it->work);
      m_completed_->Increment();
      m_durations_->Observe(it->work);
      // A completed manipulation proves the fault burst has passed.
      consecutive_failures_ = 0;
      SQP_LOG_DEBUG << "spec: completed " << m.Describe();
    }
    if (options_.tracer != nullptr) {
      options_.tracer->EndSpan(it->span, server_->CompletionTime(it->job),
                               abandoned ? "abandoned" : "completed");
    }
    it = outstanding_.erase(it);
  }
  EnforceBudget();
  UpdateCacheGauges();
}

bool SpeculationEngine::StillRelevant(const Outstanding& out) const {
  const Manipulation& m = out.manipulation;
  const QueryGraph& partial = tracker_.current();
  if (m.is_materialization()) {
    return partial.ContainsSubgraph(m.target_query);
  }
  // Histogram/index creations stay relevant while some selection on the
  // target column remains.
  for (const auto& sel : partial.SelectionsOn(m.table)) {
    if (sel.column == m.column) return true;
  }
  return false;
}

void SpeculationEngine::CancelOne(Outstanding& out, bool at_go,
                                  double sim_time) {
  const Manipulation& m = out.manipulation;
  // Work actually performed before the cancellation is wasted; the
  // unexecuted remainder never consumed server capacity.
  stats_.wasted_manipulation_work +=
      std::max(0.0, out.work - server_->RemainingWork(out.job));
  server_->Cancel(out.job);
  // Roll back the eagerly-applied side effects.
  switch (m.type) {
    case ManipulationType::kMaterializeQuery:
    case ManipulationType::kRewriteQuery:
      (void)db_->DropTable(out.table_name);
      break;
    case ManipulationType::kHistogramCreation:
      (void)db_->DropHistogram(m.table, m.column);
      break;
    case ManipulationType::kIndexCreation:
      (void)db_->DropIndex(m.table, m.column);
      break;
    case ManipulationType::kNull:
      break;
  }
  if (at_go) {
    stats_.cancelled_at_go++;
    m_cancelled_go_->Increment();
  } else {
    stats_.cancelled_by_edit++;
    m_cancelled_edit_->Increment();
  }
  recorder_.SetOutcome(out.record_id,
                       at_go ? DecisionOutcome::kCancelledAtGo
                             : DecisionOutcome::kCancelledOnEdit);
  if (options_.tracer != nullptr) {
    options_.tracer->EndSpan(out.span, sim_time,
                             at_go ? "cancelled@go" : "cancelled@edit");
  }
  SQP_LOG_DEBUG << "spec: cancelled " << m.Describe()
                << (at_go ? " (at GO)" : " (edit)");
}

void SpeculationEngine::CancelOutstanding(bool at_go, double sim_time) {
  for (auto& out : outstanding_) CancelOne(out, at_go, sim_time);
  outstanding_.clear();
}

void SpeculationEngine::GarbageCollect(double sim_time) {
  const QueryGraph& partial = tracker_.current();
  for (auto it = owned_views_.begin(); it != owned_views_.end();) {
    if (!partial.ContainsSubgraph(it->second.definition)) {
      SQP_LOG_DEBUG << "spec: GC " << it->first;
      (void)db_->DropTable(it->first);  // also unregisters the view
      recorder_.SetOutcome(it->second.record_id,
                           DecisionOutcome::kGarbageCollected);
      it = owned_views_.erase(it);
      stats_.views_garbage_collected++;
      m_gc_->Increment();
    } else {
      it->second.last_use = sim_time;  // still useful right now
      ++it;
    }
  }
  UpdateCacheGauges();
}

void SpeculationEngine::EnforceBudget() {
  if (options_.max_speculative_pages == 0) return;
  auto total_pages = [&] {
    uint64_t total = 0;
    for (const auto& [name, view] : owned_views_) {
      const TableInfo* info = db_->catalog().GetTable(name);
      if (info != nullptr) total += info->heap->page_count();
    }
    return total;
  };
  while (!owned_views_.empty() &&
         total_pages() > options_.max_speculative_pages) {
    // Evict the least-recently-useful view (ties broken by name order,
    // keeping the schedule deterministic).
    auto victim = owned_views_.begin();
    for (auto it = owned_views_.begin(); it != owned_views_.end(); ++it) {
      if (it->second.last_use < victim->second.last_use) victim = it;
    }
    SQP_LOG_DEBUG << "spec: budget eviction of " << victim->first
                  << " (last use " << victim->second.last_use << "s)";
    (void)db_->DropTable(victim->first);
    recorder_.SetOutcome(victim->second.record_id,
                         DecisionOutcome::kEvictedForBudget);
    owned_views_.erase(victim);
    stats_.views_evicted_for_budget++;
    m_evicted_->Increment();
  }
}

void SpeculationEngine::HandleManipulationFailure(const Status& failure,
                                                  double sim_time) {
  stats_.manipulations_failed++;
  m_failed_->Increment();
  if (options_.tracer != nullptr) {
    options_.tracer->Instant("manipulation failed", "manipulation",
                             sim_time, options_.trace_lane,
                             {{"error", failure.ToString()}});
  }
  SQP_LOG_DEBUG << "spec: manipulation failed (" << failure.ToString()
                << ")";
  if (failure.IsRetryable() && retry_attempts_ < options_.max_retries) {
    // Transient: back off in simulated time, doubling per consecutive
    // retry up to the cap, and let a later event try again.
    double backoff = std::min(
        options_.retry_backoff_cap_seconds,
        options_.retry_backoff_seconds *
            std::pow(2.0, static_cast<double>(retry_attempts_)));
    if (options_.retry_jitter_fraction > 0) {
      // Jitter desynchronizes retry bursts (many engines backing off in
      // lockstep after a shared fault). The seeded stream keeps
      // same-seed replays byte-identical.
      backoff *= 1.0 + options_.retry_jitter_fraction * rng_.NextDouble();
    }
    retry_attempts_++;
    stats_.retries++;
    m_retries_->Increment();
    retry_not_before_ = sim_time + backoff;
    if (options_.tracer != nullptr) {
      options_.tracer->Instant(
          "retry scheduled", "manipulation", sim_time, options_.trace_lane,
          {{"attempt", std::to_string(retry_attempts_)},
           {"backoff_s", std::to_string(backoff)}});
    }
    SQP_LOG_DEBUG << "spec: retry " << retry_attempts_ << " in " << backoff
                  << "s";
    return;
  }
  // Permanent failure, or retries exhausted: count it toward the
  // circuit breaker.
  retry_attempts_ = 0;
  consecutive_failures_++;
  if (consecutive_failures_ >= options_.circuit_breaker_threshold) {
    suspended_until_ =
        sim_time + options_.circuit_breaker_cooldown_seconds;
    stats_.speculation_suspended_events++;
    m_suspended_->Increment();
    consecutive_failures_ = 0;
    if (options_.tracer != nullptr) {
      options_.tracer->Instant(
          "circuit breaker open", "manipulation", sim_time,
          options_.trace_lane,
          {{"until_s", std::to_string(suspended_until_)}});
    }
    SQP_LOG_DEBUG << "spec: circuit breaker open until "
                  << suspended_until_ << "s";
  }
}

Status SpeculationEngine::ExecuteManipulation(
    const Manipulation& m, const ManipulationEvaluation& eval,
    double sim_time, uint64_t record_id) {
  Outstanding out;
  out.manipulation = m;
  out.issue_time = sim_time;
  out.issue_cost_without = eval.cost_without;
  out.record_id = record_id;

  // All eagerly-applied side effects happen inside a fault region:
  // injected faults target speculative work here, never final queries.
  ScopedFaultRegion fault_region;
  SQP_INJECT_FAULT("engine.manipulation");

  switch (m.type) {
    case ManipulationType::kMaterializeQuery:
    case ManipulationType::kRewriteQuery: {
      out.table_name =
          options_.table_prefix + std::to_string(next_table_id_++);
      // Land the result on the cost model's chosen home node (kAnyNode
      // on single-node stores — the legacy round-robin path).
      auto result = db_->Materialize(m.target_query, out.table_name,
                                     /*register_view=*/false, eval.home_node);
      if (!result.ok()) {
        // The materializer rolls its half-built table back itself, but a
        // failure between create and fill can leave the shell behind.
        (void)db_->DropTable(out.table_name);
        return result.status();
      }
      out.work = result->seconds;
      break;
    }
    case ManipulationType::kHistogramCreation: {
      CostScope scope(db_->meter());
      SQP_RETURN_IF_ERROR(db_->CreateHistogram(m.table, m.column));
      out.work = scope.ElapsedSeconds();
      break;
    }
    case ManipulationType::kIndexCreation: {
      CostScope scope(db_->meter());
      SQP_RETURN_IF_ERROR(db_->CreateIndex(m.table, m.column));
      out.work = scope.ElapsedSeconds();
      break;
    }
    case ManipulationType::kNull:
      return Status::OK();
  }

  // Queue the manipulation on its home node's lane (lane 0 — the only
  // lane — when placement is inactive).
  out.job = server_->Submit(
      out.work,
      eval.home_node == PageAllocOptions::kAnyNode ? 0 : eval.home_node);
  stats_.manipulations_issued++;
  stats_.total_manipulation_work += out.work;
  m_issued_->Increment();
  if (options_.tracer != nullptr) {
    out.span = options_.tracer->BeginSpan(m.Describe(), "manipulation",
                                          sim_time, options_.trace_lane);
    options_.tracer->SpanArg(out.span, "type",
                             ManipulationTypeName(m.type));
    options_.tracer->SpanArg(out.span, "work_s", std::to_string(out.work));
    if (!out.table_name.empty()) {
      options_.tracer->SpanArg(out.span, "table", out.table_name);
    }
  }
  SQP_LOG_DEBUG << "spec: issued " << m.Describe() << " (work " << out.work
                << "s)";
  outstanding_.push_back(std::move(out));
  return Status::OK();
}

Status SpeculationEngine::MaybeIssue(double sim_time) {
  if (!options_.enabled) return Status::OK();
  if (sim_time < suspended_until_) {
    return Status::OK();  // circuit breaker open: speculation suspended
  }
  if (sim_time < retry_not_before_) {
    return Status::OK();  // still backing off after a transient failure
  }
  double start = tracker_.formulation_start();
  double elapsed = start >= 0 ? sim_time - start : 0;
  while (outstanding_.size() < options_.max_outstanding) {
    if (options_.only_issue_when_idle && server_->active_jobs() > 0) {
      return Status::OK();  // §7: stay out of a busy server's way
    }
    std::set<std::string> in_flight;
    for (const auto& out : outstanding_) {
      in_flight.insert(out.manipulation.Key());
    }
    SpeculationDecision decision =
        speculator_.Decide(tracker_.current(), elapsed, &in_flight);
    // Audit the round (DESIGN.md §11) and queue every candidate's f⊆
    // prediction for scoring against the final query at GO.
    uint64_t round = recorder_.RecordRound(
        sim_time, tracker_.current().ToSql(), decision);
    for (const auto& [m, eval] : decision.considered) {
      pending_predictions_[m.Key()] = {m, eval.containment_probability};
    }
    if (!decision.chosen.has_value()) return Status::OK();
    Status executed = ExecuteManipulation(*decision.chosen,
                                          decision.evaluation, sim_time,
                                          round);
    if (!executed.ok()) {
      // Best-effort invariant: a failed manipulation costs us the
      // speculation opportunity, never the session. Side effects were
      // rolled back by ExecuteManipulation.
      recorder_.SetOutcome(round, DecisionOutcome::kFailed);
      HandleManipulationFailure(executed, sim_time);
      return Status::OK();
    }
    retry_attempts_ = 0;
    retry_not_before_ = 0;
  }
  return Status::OK();
}

Status SpeculationEngine::OnUserEvent(const TraceEvent& event,
                                      double sim_time) {
  last_sim_time_ = sim_time;
  SyncOutstanding(sim_time);
  tracker_.NoteEventTime(sim_time);
  tracker_.ApplyEvent(event);
  for (auto it = outstanding_.begin(); it != outstanding_.end();) {
    if (!StillRelevant(*it)) {
      CancelOne(*it, /*at_go=*/false, sim_time);
      it = outstanding_.erase(it);
    } else {
      ++it;
    }
  }
  GarbageCollect(sim_time);
  return MaybeIssue(sim_time);
}

Result<double> SpeculationEngine::OnGo(double sim_time) {
  last_sim_time_ = sim_time;
  SyncOutstanding(sim_time);

  double submit_time = sim_time;
  if (options_.go_policy == GoPolicy::kWaitIfWorthwhile) {
    // §7 remaining-time feedback: among in-flight materializations
    // contained in the final query, find the one closest to completion
    // and check whether waiting for it beats running without it.
    // Estimate the final query's cost both ways (temporarily
    // registering the view).
    size_t best = outstanding_.size();
    double best_remaining = 0;
    for (size_t i = 0; i < outstanding_.size(); i++) {
      const Outstanding& out = outstanding_[i];
      if (!out.manipulation.is_materialization()) continue;
      if (!tracker_.current().ContainsSubgraph(
              out.manipulation.target_query)) {
        continue;
      }
      double remaining = server_->RemainingWork(out.job) *
                         static_cast<double>(server_->active_jobs());
      if (best == outstanding_.size() || remaining < best_remaining) {
        best = i;
        best_remaining = remaining;
      }
    }
    if (best < outstanding_.size()) {
      auto cost_without =
          db_->EstimateCost(tracker_.current(), ViewMode::kCostBased);
      // Probe registration for the cost estimate only: bypass
      // Database::RegisterView so the transient entry never reaches the
      // durable manifest.
      db_->views().Register(
          ViewDefinition{outstanding_[best].table_name,
                         outstanding_[best].manipulation.target_query});
      auto cost_with =
          db_->EstimateCost(tracker_.current(), ViewMode::kForced);
      db_->views().Unregister(outstanding_[best].table_name);
      if (cost_without.ok() && cost_with.ok() &&
          best_remaining + *cost_with < *cost_without) {
        submit_time = sim_time + best_remaining;
        stats_.waits_at_go++;
        stats_.total_wait_seconds += best_remaining;
        SQP_LOG_DEBUG << "spec: waiting " << best_remaining
                      << "s at GO for "
                      << outstanding_[best].manipulation.Describe();
        // Cancel everything else; the waited-for manipulation stays.
        Outstanding waited = std::move(outstanding_[best]);
        for (size_t i = 0; i < outstanding_.size(); i++) {
          if (i != best) CancelOne(outstanding_[i], /*at_go=*/true, sim_time);
        }
        outstanding_.clear();
        outstanding_.push_back(std::move(waited));
      }
    }
  }
  if (submit_time <= sim_time) {
    // Conservative convention: whatever is still running is cancelled.
    CancelOutstanding(/*at_go=*/true, sim_time);
  }
  if (options_.tracer != nullptr) {
    options_.tracer->Instant(
        "GO", "go", sim_time, options_.trace_lane,
        {{"waited_s", std::to_string(std::max(0.0, submit_time - sim_time))}});
  }

  const QueryGraph& final_query = tracker_.current();
  // Flight-recorder bookkeeping (DESIGN.md §11): owned results the
  // final query can actually use were the speculation wins.
  for (const auto& [name, view] : owned_views_) {
    if (final_query.ContainsSubgraph(view.definition)) {
      recorder_.SetOutcome(view.record_id, DecisionOutcome::kUsedAtGo);
    }
  }
  auto stat_used = [&](const OwnedStat& stat) {
    for (const auto& sel : final_query.SelectionsOn(stat.table)) {
      if (sel.column == stat.column) return true;
    }
    return false;
  };
  for (const auto& stat : owned_histograms_) {
    if (stat_used(stat)) {
      recorder_.SetOutcome(stat.record_id, DecisionOutcome::kUsedAtGo);
    }
  }
  for (const auto& stat : owned_indexes_) {
    if (stat_used(stat)) {
      recorder_.SetOutcome(stat.record_id, DecisionOutcome::kUsedAtGo);
    }
  }
  // Close the learning loop: score every queued f⊆ prediction against
  // whether the final query actually contained the candidate's part.
  for (const auto& [key, pred] : pending_predictions_) {
    const Manipulation& m = pred.first;
    bool survived;
    if (m.is_materialization()) {
      survived = final_query.ContainsSubgraph(m.target_query);
    } else {
      survived = false;
      for (const auto& sel : final_query.SelectionsOn(m.table)) {
        if (sel.column == m.column) {
          survived = true;
          break;
        }
      }
    }
    double p = std::clamp(pred.second, 0.0, 1.0);
    double y = survived ? 1.0 : 0.0;
    stats_.predictions_scored++;
    stats_.brier_sum += (p - y) * (p - y);
    recorder_.Score(pred.second, survived);
  }
  pending_predictions_.clear();

  double start = tracker_.formulation_start();
  double duration = start >= 0 ? sim_time - start : 0;
  learner_.ObserveGo(tracker_.seen_parts(), final_query,
                     previous_final_.has_value() ? &*previous_final_
                                                 : nullptr,
                     duration);
  previous_final_ = final_query;
  tracker_.OnGo();
  return submit_time;
}

Status SpeculationEngine::ResolveWait(double wait_until) {
  last_sim_time_ = wait_until;
  SyncOutstanding(wait_until);
  // If the manipulation somehow still isn't done (the wait estimate was
  // optimistic under shifting load), fall back to the conservative rule.
  CancelOutstanding(/*at_go=*/true, wait_until);
  return Status::OK();
}

Status SpeculationEngine::Shutdown() {
  CancelOutstanding(/*at_go=*/true, last_sim_time_);
  // Best-effort teardown: one failed drop must not leave the rest of
  // the speculative state behind. Report the first failure at the end.
  Status first_error;
  for (const auto& [name, view] : owned_views_) {
    Status dropped = db_->DropTable(name);
    if (!dropped.ok() && first_error.ok()) first_error = dropped;
    recorder_.SetOutcome(view.record_id,
                         DecisionOutcome::kDroppedAtShutdown);
  }
  owned_views_.clear();
  for (const auto& stat : owned_histograms_) {
    (void)db_->DropHistogram(stat.table, stat.column);
    recorder_.SetOutcome(stat.record_id,
                         DecisionOutcome::kDroppedAtShutdown);
  }
  owned_histograms_.clear();
  for (const auto& stat : owned_indexes_) {
    (void)db_->DropIndex(stat.table, stat.column);
    recorder_.SetOutcome(stat.record_id,
                         DecisionOutcome::kDroppedAtShutdown);
  }
  owned_indexes_.clear();
  retry_attempts_ = 0;
  consecutive_failures_ = 0;
  retry_not_before_ = 0;
  suspended_until_ = 0;
  UpdateCacheGauges();
  return first_error;
}

Status SpeculationEngine::RecoverAfterCrash(double sim_time) {
  last_sim_time_ = sim_time;
  // In-flight manipulations died with the crash: their side effects
  // were uncommitted (half-built tables became orphan pages that
  // recovery GC reclaimed; histograms and indexes are volatile), so
  // there is nothing in the database to roll back — just drop the
  // simulated server jobs and the bookkeeping.
  for (auto& out : outstanding_) {
    server_->Cancel(out.job);
    recorder_.SetOutcome(out.record_id, DecisionOutcome::kLostAtCrash);
    if (options_.tracer != nullptr) {
      options_.tracer->EndSpan(out.span, sim_time, "lost@crash");
    }
  }
  outstanding_.clear();
  // Remember which flight-recorder round built each previously owned
  // view: survivors re-adopted below keep their round id; the rest are
  // stamped lost-at-crash.
  std::map<std::string, uint64_t> prior_view_rounds;
  for (const auto& [name, view] : owned_views_) {
    prior_view_rounds[name] = view.record_id;
  }
  owned_views_.clear();
  // Committed speculative indexes/histograms were rebuilt by recovery:
  // keep owning those (so Shutdown still drops them) and forget the
  // ones that did not survive.
  auto erase_missing = [&](auto& owned, auto exists) {
    for (size_t i = owned.size(); i-- > 0;) {
      if (!exists(owned[i].table, owned[i].column)) {
        recorder_.SetOutcome(owned[i].record_id,
                             DecisionOutcome::kLostAtCrash);
        owned.erase(owned.begin() + static_cast<ptrdiff_t>(i));
      }
    }
  };
  erase_missing(owned_histograms_,
                [&](const std::string& t, const std::string& c) {
                  return db_->catalog().GetHistogram(t, c) != nullptr;
                });
  erase_missing(owned_indexes_,
                [&](const std::string& t, const std::string& c) {
                  return db_->catalog().HasIndex(t, c);
                });
  retry_attempts_ = 0;
  consecutive_failures_ = 0;
  retry_not_before_ = 0;
  suspended_until_ = 0;

  uint64_t recovered_before = stats_.views_recovered;
  uint64_t dropped_before = stats_.views_dropped_at_recovery;
  // Walk the speculative tables that survived recovery. Registered ones
  // are adopted back into ownership so GC and the storage budget resume
  // governing them; a survivor with no registration is unreachable by
  // the rewriter, so drop it. Either way, bump the name counter past
  // every survivor so new materializations cannot collide.
  for (const auto& name : db_->catalog().MaterializedTableNames()) {
    if (name.rfind(options_.table_prefix, 0) != 0) continue;
    uint64_t suffix = 0;
    bool numeric = true;
    for (size_t i = options_.table_prefix.size(); i < name.size(); i++) {
      if (name[i] < '0' || name[i] > '9') {
        numeric = false;
        break;
      }
      suffix = suffix * 10 + static_cast<uint64_t>(name[i] - '0');
    }
    if (numeric && suffix >= next_table_id_) next_table_id_ = suffix + 1;
    const ViewDefinition* def = db_->views().Get(name);
    if (def != nullptr) {
      uint64_t round = 0;
      auto prior = prior_view_rounds.find(name);
      if (prior != prior_view_rounds.end()) {
        round = prior->second;
        prior_view_rounds.erase(prior);
      }
      owned_views_[name] = OwnedView{def->definition, sim_time, round};
      stats_.views_recovered++;
    } else {
      (void)db_->DropTable(name);
      stats_.views_dropped_at_recovery++;
    }
  }
  // Whatever was owned before the crash and not re-adopted is gone.
  for (const auto& [name, round] : prior_view_rounds) {
    recorder_.SetOutcome(round, DecisionOutcome::kLostAtCrash);
  }
  uint64_t recovered = stats_.views_recovered - recovered_before;
  uint64_t dropped = stats_.views_dropped_at_recovery - dropped_before;
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("engine.views_recovered")->Increment(recovered);
  registry.GetCounter("engine.views_dropped_at_recovery")->Increment(dropped);
  if (options_.tracer != nullptr) {
    options_.tracer->Instant(
        "engine re-adoption", "recovery", sim_time, options_.trace_lane,
        {{"views_recovered", std::to_string(recovered)},
         {"views_dropped", std::to_string(dropped)}});
  }
  SQP_LOG_DEBUG << "spec: recovered after crash, adopted "
                << stats_.views_recovered << " views";
  UpdateCacheGauges();
  return Status::OK();
}

Status SpeculationEngine::OnQueryResult(double sim_time) {
  last_sim_time_ = sim_time;
  SyncOutstanding(sim_time);
  if (!options_.speculate_on_results) return Status::OK();
  return MaybeIssue(sim_time);
}

std::vector<std::string> SpeculationEngine::live_views() const {
  std::vector<std::string> out;
  out.reserve(owned_views_.size());
  for (const auto& [name, view] : owned_views_) out.push_back(name);
  return out;
}

void SpeculationEngine::PretrainLearner(const std::vector<Trace>& traces) {
  for (const Trace& trace : traces) {
    PartialQueryTracker tracker;
    std::optional<QueryGraph> prev;
    double formulation_start = -1;
    for (const auto& event : trace.events) {
      if (event.type == TraceEventType::kGo) {
        double duration =
            formulation_start >= 0 ? event.timestamp - formulation_start : 0;
        learner_.ObserveGo(tracker.seen_parts(), tracker.current(),
                           prev.has_value() ? &*prev : nullptr, duration);
        prev = tracker.current();
        tracker.OnGo();
        formulation_start = -1;
      } else {
        if (formulation_start < 0) formulation_start = event.timestamp;
        tracker.ApplyEvent(event);
      }
    }
  }
}

}  // namespace sqp
