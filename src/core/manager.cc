#include "core/manager.h"

#include <cstdio>
#include <iterator>
#include <utility>

#include "core/query_api.h"

namespace erq {

namespace {

// Adapts the detector's (relation, partition) coverage probe to the
// executor-layer oracle interface, so erq_exec needs no knowledge of the
// detector. Sound by Theorem 2: a hit means C_aqp stores a part over
// "table@partition" whose condition covers the scan condition.
class DetectorPartitionOracle final : public PartitionCoverageOracle {
 public:
  explicit DetectorPartitionOracle(EmptyResultDetector* detector)
      : detector_(detector) {}

  bool PartitionCovered(const std::string& table, size_t partition,
                        const Conjunction& condition) const override {
    return detector_->PartitionCovered(table, partition, condition);
  }

 private:
  EmptyResultDetector* detector_;  // borrowed; outlives the oracle
};

// Sums a per-scan partition counter (>= 0 means "this scan was
// partition-pruned") across every table scan in the executed plan.
size_t SumPartitionField(const PhysOpPtr& root,
                         int64_t PhysicalOperator::*field) {
  if (root == nullptr) return 0;
  size_t total = 0;
  if (root->kind == PhysOpKind::kTableScan && (*root).*field >= 0) {
    total += static_cast<size_t>((*root).*field);
  }
  for (const PhysOpPtr& child : root->children) {
    total += SumPartitionField(child, field);
  }
  return total;
}

// Counts the CachedResultScan leaves of an executed plan and the rows
// they emitted — the per-query reuse exposure (QueryOutcome /
// QueryResponse `reused_subtrees` and `reuse_rows_served`).
void CollectReuseServed(const PhysOpPtr& root, size_t* subtrees,
                        size_t* rows) {
  if (root == nullptr) return;
  if (root->kind == PhysOpKind::kCachedResultScan) {
    ++*subtrees;
    if (root->actual_rows > 0) *rows += static_cast<size_t>(root->actual_rows);
  }
  for (const PhysOpPtr& child : root->children) {
    CollectReuseServed(child, subtrees, rows);
  }
}

// Every ManagerStats event count with its erq.manager.* counter (nullptr:
// the count lives in ManagerStats only). Publish walks this one list, so a
// count and its counter cannot drift apart.
constexpr std::pair<uint64_t ManagerStats::*, const char*> kEventCounts[] = {
    {&ManagerStats::queries, "erq.manager.queries"},
    {&ManagerStats::low_cost, "erq.manager.low_cost"},
    {&ManagerStats::checks, "erq.manager.checks"},
    {&ManagerStats::detected_empty, "erq.manager.detected_empty"},
    {&ManagerStats::executed, "erq.manager.executed"},
    {&ManagerStats::empty_results, "erq.manager.empty_results"},
    {&ManagerStats::recorded, "erq.manager.recorded"},
    {&ManagerStats::branches_pruned, "erq.manager.branches_pruned"},
    {&ManagerStats::reused_subtrees, nullptr},
    {&ManagerStats::intermediates_harvested, nullptr},
};

// Injects the reuse store into the optimizer's options at manager
// construction (the store pointer is stable for the manager's lifetime).
OptimizerOptions WithReuseSource(OptimizerOptions options,
                                 const ReuseSpliceSource* source) {
  if (source != nullptr) options.reuse_source = source;
  return options;
}

}  // namespace

std::string QueryOutcome::Timings::ToString() const {
  std::string out;
  ForEachStage([&out](const char* stage, double seconds) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%s%s=%.3fms", out.empty() ? "" : " ",
                  stage, seconds * 1e3);
    out += buf;
  });
  return out;
}

std::string QueryOutcome::ToString() const {
  // One renderer for every surface: convert to the wire value type and
  // use its text form (rows are omitted here — callers that used the old
  // format never received rows through ToString()).
  QueryRequest request;
  request.row_limit = 0;
  request.explain = ExplainVerbosity::kFull;
  return QueryResponse::FromOutcome(*this, request).ToText();
}

EmptyResultManager::Instruments EmptyResultManager::ResolveInstruments() {
  MetricsRegistry& r = MetricsRegistry::Global();
  Instruments m;
  m.stage_parse = r.GetHistogram("erq.manager.stage.parse");
  m.stage_plan = r.GetHistogram("erq.manager.stage.plan");
  m.stage_optimize = r.GetHistogram("erq.manager.stage.optimize");
  m.stage_gate = r.GetHistogram("erq.manager.stage.gate");
  m.stage_check = r.GetHistogram("erq.manager.stage.check");
  m.stage_execute = r.GetHistogram("erq.manager.stage.execute");
  m.stage_record = r.GetHistogram("erq.manager.stage.record");
  m.query_total = r.GetHistogram("erq.manager.query_total");
  for (const auto& [field, name] : kEventCounts) {
    m.event_counters.push_back(name != nullptr ? r.GetCounter(name) : nullptr);
  }
  return m;
}

EmptyResultManager::EmptyResultManager(Catalog* catalog, StatsCatalog* stats,
                                       EmptyResultConfig config,
                                       OptimizerOptions optimizer_options)
    : catalog_(catalog),
      stats_catalog_(stats),
      config_(config),
      init_status_(config.Validate()),
      planner_(catalog),
      reuse_store_(config.reuse.enabled
                       ? std::make_unique<ReuseStore>(config.reuse)
                       : nullptr),
      optimizer_(catalog, stats,
                 WithReuseSource(optimizer_options, reuse_store_.get())),
      detector_(config),
      metrics_(ResolveInstruments()) {
  if (!init_status_.ok()) return;  // unusable: don't hook catalog events
  if (config_.persist.enabled()) {
    // Recover the previous process's C_aqp before any query runs; a
    // recovery failure makes the manager unusable rather than silently
    // running without durability.
    StatusOr<std::unique_ptr<Persistence>> p =
        Persistence::Open(config_.persist);
    if (!p.ok()) {
      init_status_ = p.status();
      return;
    }
    persistence_ = std::move(*p);
    init_status_ = persistence_->AttachCaqp(&detector_.cache());
    if (!init_status_.ok()) return;
  }
  catalog_->AddEventListener([this](const TableUpdateEvent& event) {
    if (stats_catalog_ != nullptr) stats_catalog_->Invalidate(event.table_name);
    switch (event.kind) {
      case TableUpdateEvent::Kind::kInsert: {
        auto table = catalog_->GetTable(event.table_name);
        if (table.ok() && event.inserted_rows != nullptr) {
          // The partition-aware overload narrows invalidation of tagged
          // "base@k" parts to the partitions the rows land in; it falls
          // back to whole-relation filtering when the table is
          // unpartitioned.
          detector_.OnRelationInserted(event.table_name,
                                       (*table)->schema(),
                                       *event.inserted_rows,
                                       (*table)->partition_scheme());
          if (reuse_store_ != nullptr) {
            reuse_store_->OnRelationInserted(
                event.table_name, (*table)->schema(), *event.inserted_rows);
          }
        } else {
          detector_.OnRelationUpdated(event.table_name);
          if (reuse_store_ != nullptr) {
            reuse_store_->OnRelationUpdated(event.table_name);
          }
        }
        break;
      }
      case TableUpdateEvent::Kind::kDelete:
        detector_.OnRelationDeleted(event.table_name);
        // Unlike C_aqp (where deletions invalidate nothing), a deletion
        // can shrink a cached non-empty intermediate; the store drops
        // those and keeps the zero-row facts.
        if (reuse_store_ != nullptr) {
          reuse_store_->OnRelationDeleted(event.table_name);
        }
        break;
      case TableUpdateEvent::Kind::kDropTable:
      case TableUpdateEvent::Kind::kGeneric:
        detector_.OnRelationUpdated(event.table_name);
        if (reuse_store_ != nullptr) {
          reuse_store_->OnRelationUpdated(event.table_name);
        }
        break;
    }
  });
}

StatusOr<QueryOutcome> EmptyResultManager::Execute(
    const QueryRequest& request) {
  ERQ_RETURN_IF_ERROR(init_status_);
  if (!request.batch.empty()) {
    return Status::InvalidArgument(
        "QueryRequest with a batch must go through ExecuteBatch");
  }
  // An empty string falls through to the parser, so the caller sees its
  // ParseError rather than a request-validation error.
  double parse_seconds = 0.0;
  std::unique_ptr<Statement> stmt;
  {
    ScopedSpan span(metrics_.stage_parse, &parse_seconds);
    ERQ_ASSIGN_OR_RETURN(stmt, Parser::Parse(request.sql));
  }
  PreparedStatement prep;
  Status status = PrepareInto(*stmt, &prep);
  const bool gated = status.ok();
  if (gated) {
    // §2.2: only high-cost queries are worth checking against C_aqp.
    std::optional<CheckResult> check;
    if (config_.detection_enabled && prep.outcome.high_cost) {
      ScopedSpan span(nullptr, &prep.outcome.timings.check_seconds);
      check = detector_.CheckEmpty(prep.planned.root);
    }
    status = FinishChecked(&prep, std::move(check));
  }
  Publish(prep.outcome, gated);
  ERQ_RETURN_IF_ERROR(status);
  prep.outcome.timings.parse_seconds = parse_seconds;
  prep.outcome.timings.total_seconds += parse_seconds;
  return std::move(prep.outcome);
}

StatusOr<PhysOpPtr> EmptyResultManager::Prepare(const std::string& sql) {
  ERQ_RETURN_IF_ERROR(init_status_);
  ERQ_ASSIGN_OR_RETURN(std::unique_ptr<Statement> stmt, Parser::Parse(sql));
  ERQ_ASSIGN_OR_RETURN(PlannedQuery planned, planner_.PlanStatement(*stmt));
  return optimizer_.Optimize(planned.root);
}

Status EmptyResultManager::PrepareInto(const Statement& stmt,
                                       PreparedStatement* prep) {
  QueryOutcome& outcome = prep->outcome;
  {
    ScopedSpan span(nullptr, &outcome.timings.plan_seconds);
    ERQ_ASSIGN_OR_RETURN(prep->planned, planner_.PlanStatement(stmt));
  }
  {
    ScopedSpan span(nullptr, &outcome.timings.optimize_seconds);
    ERQ_ASSIGN_OR_RETURN(prep->physical, optimizer_.Optimize(prep->planned.root));
  }
  outcome.estimated_cost = prep->physical->estimated_cost;
  {
    ScopedSpan span(nullptr, &outcome.timings.gate_seconds);
    outcome.high_cost = outcome.estimated_cost > EffectiveCostThreshold();
  }
  return Status::OK();
}

std::vector<StatusOr<QueryOutcome>> EmptyResultManager::ExecuteBatch(
    const QueryRequest& request) {
  const std::vector<std::string>& sqls = request.batch;
  std::vector<StatusOr<QueryOutcome>> out;
  out.reserve(sqls.size());
  if (!request.sql.empty()) {
    out.emplace_back(Status::InvalidArgument(
        "ExecuteBatch takes a batch request; use Execute for sql"));
    return out;
  }
  if (!init_status_.ok()) {
    for (size_t i = 0; i < sqls.size(); ++i) out.emplace_back(init_status_);
    return out;
  }

  // Phase 1: parse + prepare every statement. Failures settle their slot
  // immediately; survivors queue for the batched check.
  struct Pending {
    size_t index;  // slot in `results`
    PreparedStatement prep;
    double parse_seconds = 0.0;
  };
  std::vector<std::optional<StatusOr<QueryOutcome>>> results(sqls.size());
  std::vector<Pending> pending;
  pending.reserve(sqls.size());
  for (size_t i = 0; i < sqls.size(); ++i) {
    Pending p;
    p.index = i;
    std::unique_ptr<Statement> stmt;
    {
      ScopedSpan span(metrics_.stage_parse, &p.parse_seconds);
      StatusOr<std::unique_ptr<Statement>> parsed = Parser::Parse(sqls[i]);
      if (!parsed.ok()) {
        results[i] = parsed.status();
        continue;
      }
      stmt = std::move(parsed).value();
    }
    Status prepared = PrepareInto(*stmt, &p.prep);
    if (!prepared.ok()) {
      Publish(p.prep.outcome, /*gated=*/false);
      results[i] = std::move(prepared);
      continue;
    }
    pending.push_back(std::move(p));
  }

  // Phase 2: one batched C_aqp probe over every high-cost candidate.
  std::vector<LogicalOpPtr> roots;
  std::vector<size_t> checked;  // indices into `pending`
  for (size_t k = 0; k < pending.size(); ++k) {
    if (config_.detection_enabled && pending[k].prep.outcome.high_cost) {
      roots.push_back(pending[k].prep.planned.root);
      checked.push_back(k);
    }
  }
  std::vector<std::optional<CheckResult>> verdicts(pending.size());
  if (!roots.empty()) {
    double batch_check_seconds = 0.0;
    std::vector<CheckResult> batch;
    {
      ScopedSpan span(nullptr, &batch_check_seconds);
      batch = detector_.CheckEmptyBatch(roots);
    }
    // The probe ran once for everyone: attribute its cost in proportion
    // to the atomic parts each query contributed (parts_checked), since
    // probe work scales with parts examined, not with query count. A
    // zero-part batch (every query settled before any part was probed)
    // falls back to an even split.
    size_t total_parts = 0;
    for (const CheckResult& r : batch) total_parts += r.parts_checked;
    for (size_t j = 0; j < checked.size(); ++j) {
      const double share =
          total_parts > 0
              ? batch_check_seconds *
                    (static_cast<double>(batch[j].parts_checked) /
                     static_cast<double>(total_parts))
              : batch_check_seconds / static_cast<double>(checked.size());
      verdicts[checked[j]] = batch[j];
      pending[checked[j]].prep.outcome.timings.check_seconds = share;
    }
  }

  // Phase 3: finish each query independently, in input order.
  for (Pending& p : pending) {
    QueryOutcome& outcome = p.prep.outcome;
    Status finished = FinishChecked(&p.prep, verdicts[&p - pending.data()]);
    Publish(outcome, /*gated=*/true);
    if (!finished.ok()) {
      results[p.index] = std::move(finished);
      continue;
    }
    outcome.timings.parse_seconds = p.parse_seconds;
    outcome.timings.total_seconds += p.parse_seconds;
    results[p.index] = std::move(outcome);
  }
  for (std::optional<StatusOr<QueryOutcome>>& r : results) {
    out.push_back(*std::move(r));
  }
  return out;
}

Status EmptyResultManager::FinishChecked(PreparedStatement* prep,
                                         std::optional<CheckResult> check) {
  QueryOutcome& outcome = prep->outcome;
  PhysOpPtr physical = std::move(prep->physical);

  if (check.has_value() && check->provably_empty) {
    outcome.detected_empty = true;
    outcome.result_empty = true;
    outcome.result.layout = physical->layout;
    outcome.plan = physical;
    EmptyResultExplanation explanation;
    explanation.annotated_plan = physical->ToString();
    char cause[128];
    std::snprintf(cause, sizeof(cause),
                  "proven empty from C_aqp without execution (%zu atomic "
                  "query part(s) checked)",
                  check->parts_checked);
    explanation.minimal_causes.push_back(cause);
    outcome.explanation = std::move(explanation);
    outcome.timings.total_seconds = prep->total_timer.Seconds();
    ObserveStages(outcome, /*checked=*/true, /*recorded=*/false);
    return Status::OK();
  }

  const bool checked = config_.detection_enabled && outcome.high_cost;
  if (checked) {
    // §2.5 partial detection: branches of set operations that are provably
    // empty need not be evaluated.
    LogicalOpPtr pruned;
    {
      ScopedSpan span(nullptr, &outcome.timings.check_seconds);
      pruned =
          detector_.PrunePlan(prep->planned.root, &outcome.branches_pruned);
    }
    if (outcome.branches_pruned > 0) {
      ScopedSpan span(nullptr, &outcome.timings.optimize_seconds);
      ERQ_ASSIGN_OR_RETURN(physical, optimizer_.Optimize(pruned));
    }
  }

  std::vector<HarvestedIntermediate> harvested;
  {
    ScopedSpan span(nullptr, &outcome.timings.execute_seconds);
    // Pruner + oracle are stack-local but must outlive Run (they are
    // consulted from TableScanIter::Open); the detector they borrow is
    // internally synchronized, so probes are safe mid-execution.
    DetectorPartitionOracle oracle(&detector_);
    PartitionPruner pruner(&oracle);
    ExecOptions exec_options;
    if (config_.partition_pruning) exec_options.pruner = &pruner;
    // Harvest only for high-cost queries: the gate already decided this
    // query was worth checking, so its intermediates are the ones later
    // high-cost queries are likely to repeat (§2.2's economics applied to
    // sub-plans).
    if (reuse_store_ != nullptr && outcome.high_cost) {
      exec_options.harvest = &harvested;
      exec_options.harvest_max_rows = config_.reuse.max_rows;
    }
    ERQ_ASSIGN_OR_RETURN(outcome.result, Executor::Run(physical, exec_options));
  }
  outcome.partitions_scanned =
      SumPartitionField(physical, &PhysicalOperator::partitions_scanned);
  outcome.partitions_pruned =
      SumPartitionField(physical, &PhysicalOperator::partitions_pruned);
  CollectReuseServed(physical, &outcome.reused_subtrees,
                     &outcome.reuse_rows_served);
  outcome.executed = true;
  outcome.result_rows = outcome.result.rows.size();
  outcome.result_empty = outcome.result.rows.empty();
  // Operation O1: the plan, with per-operator output cardinalities, is
  // surfaced to the user to explain the (possibly empty) result.
  outcome.plan = physical;

  if (outcome.result_empty) {
    auto explanation = ExplainEmptyResult(physical);
    if (explanation.ok()) outcome.explanation = *std::move(explanation);
  }

  bool recorded = false;  // whether any record stage below ran
  if (outcome.result_empty && config_.detection_enabled &&
      (outcome.high_cost || config_.record_low_cost)) {
    recorded = true;
    ScopedSpan span(nullptr, &outcome.timings.record_seconds);
    outcome.aqps_recorded = detector_.RecordEmpty(physical);
  }

  if (config_.detection_enabled && config_.partition_pruning &&
      config_.record_partition_empties) {
    // Partition-granular harvest is not gated on result_empty or the cost
    // gate: every scanned partition with zero scan-condition matches is
    // ground truth the scan already paid for (see config.h).
    recorded = true;
    ScopedSpan span(nullptr, &outcome.timings.record_seconds);
    outcome.partition_aqps_recorded =
        detector_.RecordPartitionEmpties(physical);
  }

  if (reuse_store_ != nullptr && !harvested.empty()) {
    recorded = true;
    ScopedSpan span(nullptr, &outcome.timings.record_seconds);
    outcome.intermediates_harvested = HarvestIntermediates(harvested);
  }
  outcome.timings.total_seconds = prep->total_timer.Seconds();
  ObserveStages(outcome, checked, recorded);
  return Status::OK();
}

void EmptyResultManager::Publish(const QueryOutcome& outcome, bool gated) {
  ManagerStats events;
  events.queries = 1;
  events.low_cost = gated && !outcome.high_cost;
  events.checks = gated && config_.detection_enabled && outcome.high_cost;
  events.detected_empty = outcome.detected_empty;
  events.executed = outcome.executed;
  events.empty_results = outcome.executed && outcome.result_empty;
  events.recorded = outcome.aqps_recorded > 0;
  events.branches_pruned = outcome.branches_pruned;
  events.reused_subtrees = outcome.reused_subtrees;
  events.intermediates_harvested = outcome.intermediates_harvested;
  for (size_t i = 0; i < std::size(kEventCounts); ++i) {
    const uint64_t n = events.*kEventCounts[i].first;
    if (n > 0 && metrics_.event_counters[i] != nullptr) {
      metrics_.event_counters[i]->Increment(n);
    }
  }
  MutexLock lock(&mu_);
  for (const auto& [field, name] : kEventCounts) stats_.*field += events.*field;
  if (outcome.detected_empty) {
    stats_.execute_seconds_saved_estimate += outcome.estimated_cost;
    cost_gate_.ObserveDetected(outcome.estimated_cost,
                               outcome.timings.check_seconds);
  } else if (outcome.executed) {
    cost_gate_.ObserveExecuted(outcome.estimated_cost,
                               outcome.timings.check_seconds,
                               outcome.timings.execute_seconds,
                               outcome.result_empty);
  }
}

void EmptyResultManager::ObserveStages(const QueryOutcome& outcome,
                                       bool checked, bool recorded) {
  const QueryOutcome::Timings& t = outcome.timings;
  metrics_.stage_plan->Observe(t.plan_seconds);
  metrics_.stage_optimize->Observe(t.optimize_seconds);
  metrics_.stage_gate->Observe(t.gate_seconds);
  if (checked) metrics_.stage_check->Observe(t.check_seconds);
  if (outcome.executed) metrics_.stage_execute->Observe(t.execute_seconds);
  if (recorded) metrics_.stage_record->Observe(t.record_seconds);
  metrics_.query_total->Observe(t.total_seconds);
}

size_t EmptyResultManager::HarvestIntermediates(
    const std::vector<HarvestedIntermediate>& harvested) {
  size_t admitted = 0;
  for (const HarvestedIntermediate& h : harvested) {
    if (h.node == nullptr || h.rows == nullptr) continue;
    StatusOr<std::vector<AtomicQueryPart>> parts =
        DecomposePhysicalPart(h.node, config_.dnf);
    // Only a single-part decomposition is storable: a multi-term DNF
    // describes per-term row sets, but the harvested rows are the full
    // sigma over the disjunction. (Filter-over-TableScan always yields
    // exactly one relation; the store re-checks that invariant.)
    if (!parts.ok() || parts->size() != 1) continue;
    const AtomicQueryPart& part = (*parts)[0];
    if (reuse_store_->Admit(part, h.rows, h.node->estimated_cost)) {
      ++admitted;
      // Unification with C_aqp: a zero-row intermediate is exactly an
      // emptiness fact, so plain detection benefits from it too — even
      // though the whole query may have returned rows.
      if (h.rows->empty()) detector_.cache().Insert(part);
    }
  }
  return admitted;
}

double EmptyResultManager::EffectiveCostThreshold() const {
  if (!config_.auto_tune_c_cost) return config_.c_cost;
  MutexLock lock(&mu_);
  return cost_gate_.Suggest(config_.c_cost);
}

void EmptyResultManager::OnTableUpdated(const std::string& table_name) {
  detector_.OnRelationUpdated(table_name);
  if (stats_catalog_ != nullptr) stats_catalog_->Invalidate(table_name);
}

}  // namespace erq
