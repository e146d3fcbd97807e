#include "exec/executor.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/metrics.h"
#include "common/string_util.h"
#include "expr/kernel.h"

namespace erq {

namespace {

/// Executor instruments, resolved once (see metrics.h).
struct ExecMetrics {
  Counter* runs;
  Counter* rows_scanned;
  Counter* rows_emitted;
  Counter* partitions_pruned;
  Counter* partitions_scanned;

  static const ExecMetrics& Get() {
    static const ExecMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return ExecMetrics{
          r.GetCounter("erq.exec.runs"),
          r.GetCounter("erq.exec.rows_scanned"),
          r.GetCounter("erq.exec.rows_emitted"),
          r.GetCounter("erq.exec.partitions.pruned"),
          r.GetCounter("erq.exec.partitions.scanned"),
      };
    }();
    return m;
  }
};

/// Sums one partitioned-scan observation field over every scan in a plan.
uint64_t SumPartitionCounts(const PhysicalOperator& op,
                            int64_t PhysicalOperator::*field) {
  uint64_t total = 0;
  if (op.kind == PhysOpKind::kTableScan && op.*field > 0) {
    total += static_cast<uint64_t>(op.*field);
  }
  for (const PhysOpPtr& child : op.children) {
    total += SumPartitionCounts(*child, field);
  }
  return total;
}

/// Total rows produced by leaf access paths (table/index scans) in one
/// executed plan — the "work done" complement to rows_emitted.
uint64_t ScannedRows(const PhysicalOperator& op) {
  uint64_t total = 0;
  if ((op.kind == PhysOpKind::kTableScan || op.kind == PhysOpKind::kIndexScan) &&
      op.actual_rows > 0) {
    total += static_cast<uint64_t>(op.actual_rows);
  }
  for (const PhysOpPtr& child : op.children) total += ScannedRows(*child);
  return total;
}

/// Iterator interface. Rows flow up the plan as pointers: Next() returns
/// the next row, or nullptr at end of stream. The row belongs to its
/// producer — table storage, a cached result pinned by its shared_ptr, or
/// an output slot a materializing operator owns — and stays valid until
/// the producing iterator's next Next() or Open(). Filters and semi-joins
/// test the row where it lives and hand the same pointer on; a consumer
/// that keeps a row calls Take().
///
/// Open() and Next() are non-virtual: they count every emitted row into
/// the plan node's actual_rows around the operator's own DoOpen/DoNext.
class Iter {
 public:
  explicit Iter(PhysicalOperator& op) : op_(op) {}
  virtual ~Iter() = default;

  Status Open() {
    op_.actual_rows = 0;
    return DoOpen();
  }

  StatusOr<const Row*> Next() {
    ERQ_ASSIGN_OR_RETURN(last_, DoNext());
    if (last_ != nullptr) ++op_.actual_rows;
    return last_;
  }

  /// Hands over the row the last Next() returned. The default copies it
  /// out of storage; materializing operators move it out of the slot they
  /// own, and pass-through operators ask the child that produced it.
  virtual Row Take() { return *last_; }

 protected:
  virtual Status DoOpen() = 0;
  virtual StatusOr<const Row*> DoNext() = 0;

  PhysicalOperator& op_;

 private:
  const Row* last_ = nullptr;
};

using IterPtr = std::unique_ptr<Iter>;

/// Opens `iter` and calls `fn(row)` on every row to end of stream.
template <typename Fn>
Status ForEachRow(Iter* iter, Fn fn) {
  ERQ_RETURN_IF_ERROR(iter->Open());
  while (true) {
    ERQ_ASSIGN_OR_RETURN(const Row* row, iter->Next());
    if (row == nullptr) return Status::OK();
    ERQ_RETURN_IF_ERROR(fn(*row));
  }
}

/// Materializes a child stream, taking ownership of each row.
StatusOr<std::vector<Row>> Drain(Iter* iter) {
  std::vector<Row> rows;
  ERQ_RETURN_IF_ERROR(ForEachRow(iter, [&](const Row&) {
    rows.push_back(iter->Take());
    return Status::OK();
  }));
  return rows;
}

/// Full-table or partition-pruned scan, yielding pointers into table
/// storage (stable for the whole run under Table's caller-synchronized
/// read contract). The pruned path visits only surviving partitions but
/// merges their row ids into globally ascending order, so the emitted
/// row sequence is byte-identical to the full scan's minus rows from
/// partitions provably irrelevant to the scan condition — rows the Filter
/// above would drop anyway. Per surviving partition it counts scanned
/// rows and scan-condition matches; a scanned partition with zero matches
/// is ground truth the detector records as a partition-tagged atomic
/// query part. A Filter above whose predicate is the probe itself reads
/// the scan's verdict instead of evaluating it again (probe_verdict()).
class TableScanIter : public Iter {
 public:
  TableScanIter(PhysicalOperator& op, const ExecOptions& options)
      : Iter(op), options_(options), probe_(op.partition_probe) {}

  /// True when this Open() took the pruned path, which evaluates
  /// partition_probe on every row it returns.
  bool probes_rows() const { return partitioned_; }
  /// Whether the last row returned passed partition_probe (only meaningful
  /// when probes_rows()).
  bool probe_verdict() const { return last_matched_; }

 protected:
  Status DoOpen() override {
    pos_ = 0;
    partitioned_ = false;
    row_ids_.clear();
    stat_of_row_.clear();
    if (options_.pruner == nullptr || !op_.has_scan_condition ||
        op_.table == nullptr) {
      return Status::OK();
    }
    snapshot_ = op_.table->partition_snapshot();
    if (snapshot_ == nullptr) return Status::OK();
    partitioned_ = true;
    std::vector<size_t> survivors =
        options_.pruner->Prune(ToLower(op_.table_name), op_.table->schema(),
                               *snapshot_, op_.scan_condition);
    op_.partition_stats.clear();
    op_.partition_stats.reserve(survivors.size());
    std::vector<std::pair<size_t, size_t>> merged;  // (row id, stat index)
    for (size_t i = 0; i < survivors.size(); ++i) {
      PartitionScanStat stat;
      stat.partition = survivors[i];
      op_.partition_stats.push_back(stat);
      for (size_t rid : snapshot_->partitions[survivors[i]].row_ids) {
        merged.emplace_back(rid, i);
      }
    }
    std::sort(merged.begin(), merged.end());
    row_ids_.reserve(merged.size());
    stat_of_row_.reserve(merged.size());
    for (const auto& [rid, stat_index] : merged) {
      row_ids_.push_back(rid);
      stat_of_row_.push_back(stat_index);
    }
    op_.partitions_scanned = static_cast<int64_t>(survivors.size());
    op_.partitions_pruned =
        static_cast<int64_t>(snapshot_->partitions.size() - survivors.size());
    return Status::OK();
  }

  StatusOr<const Row*> DoNext() override {
    if (!partitioned_) {
      if (pos_ >= op_.table->num_rows()) return nullptr;
      return &op_.table->row(pos_++);
    }
    if (pos_ >= row_ids_.size()) return nullptr;
    size_t i = pos_++;
    const Row& row = op_.table->row(row_ids_[i]);
    PartitionScanStat& stat = op_.partition_stats[stat_of_row_[i]];
    ++stat.rows;
    Status error;
    last_matched_ = probe_.Passes(row, &error);
    if (!error.ok()) return error;
    if (last_matched_) ++stat.matches;
    return &row;
  }

 private:
  const ExecOptions& options_;
  PredicateKernel probe_;  // partition_probe; empty passes every row
  bool last_matched_ = false;
  std::shared_ptr<const PartitionSnapshot> snapshot_;
  bool partitioned_ = false;
  std::vector<size_t> row_ids_;      // ascending, pruned-path only
  std::vector<size_t> stat_of_row_;  // parallel: partition_stats index
  size_t pos_ = 0;
};

class IndexScanIter : public Iter {
 public:
  explicit IndexScanIter(PhysicalOperator& op)
      : Iter(op), residual_(op.predicate) {}

 protected:
  Status DoOpen() override {
    op_.index->Refresh();
    row_ids_ = op_.index->RangeLookup(op_.index_lo, op_.index_hi);
    pos_ = 0;
    return Status::OK();
  }

  StatusOr<const Row*> DoNext() override {
    Status error;
    while (pos_ < row_ids_.size()) {
      const Row& row = op_.table->row(row_ids_[pos_++]);
      if (residual_.Passes(row, &error)) return &row;
      if (!error.ok()) return error;
    }
    return nullptr;
  }

 private:
  PredicateKernel residual_;  // empty when there is no residual predicate
  std::vector<size_t> row_ids_;
  size_t pos_ = 0;
};

/// Serves a spliced reuse-store entry: yields the stored materialized
/// rows verbatim. They were harvested in ascending row order from the
/// table-scan path, so downstream output is byte-identical to the plan
/// the splice replaced. The base table is never touched — the rows are
/// pinned by the shared_ptr even if the store evicts the entry mid-run.
class CachedResultScanIter : public Iter {
 public:
  using Iter::Iter;

 protected:
  Status DoOpen() override {
    pos_ = 0;
    return Status::OK();
  }

  StatusOr<const Row*> DoNext() override {
    if (op_.cached_rows == nullptr || pos_ >= op_.cached_rows->size()) {
      return nullptr;
    }
    return &(*op_.cached_rows)[pos_++];
  }

 private:
  size_t pos_ = 0;
};

/// Passes the rows its predicate holds TRUE on. Over a table scan whose
/// partition_probe is this very predicate (every local conjunct was
/// classified; see Optimizer::BuildAccessPath), the pruned scan already
/// evaluated it on each row for partition_stats, so the filter reads that
/// verdict: one evaluation per row feeds both.
class FilterIter : public Iter {
 public:
  FilterIter(PhysicalOperator& op, IterPtr child)
      : Iter(op), child_(std::move(child)), predicate_(op.predicate) {
    if (op.children[0]->kind == PhysOpKind::kTableScan &&
        op.children[0]->partition_probe == op.predicate) {
      probing_scan_ = static_cast<const TableScanIter*>(child_.get());
    }
  }

  Row Take() override { return child_->Take(); }

 protected:
  Status DoOpen() override { return child_->Open(); }

  StatusOr<const Row*> DoNext() override {
    Status error;
    while (true) {
      ERQ_ASSIGN_OR_RETURN(const Row* row, child_->Next());
      if (row == nullptr) return row;
      const bool pass =
          probing_scan_ != nullptr && probing_scan_->probes_rows()
              ? probing_scan_->probe_verdict()
              : predicate_.Passes(*row, &error);
      if (pass) return row;
      if (!error.ok()) return error;
    }
  }

 private:
  IterPtr child_;
  PredicateKernel predicate_;
  // child_, when its partition_probe is this predicate.
  const TableScanIter* probing_scan_ = nullptr;
};

/// A Filter-over-TableScan that also buffers the rows it passes and, on
/// observed end of stream, delivers the complete materialization to the
/// run's harvest sink. The buffered copies are the only rows it builds.
/// The buffer is abandoned the instant it would exceed the row cap, so
/// oversized intermediates are never double-materialized. Delivery
/// strictly requires end of stream: a parent that stops pulling early
/// leaves the buffer undelivered, because a partial output is not
/// sigma_condition(relation). (Every current operator drains its children
/// to exhaustion whenever the root drains, so in practice harvest always
/// fires for completed runs.)
class HarvestIter : public FilterIter {
 public:
  HarvestIter(PhysOpPtr node, IterPtr child, const ExecOptions& options)
      : FilterIter(*node, std::move(child)),
        node_(std::move(node)),
        options_(options) {}

 protected:
  Status DoOpen() override {
    buffer_ = std::make_shared<std::vector<Row>>();
    delivered_ = false;
    return FilterIter::DoOpen();
  }

  StatusOr<const Row*> DoNext() override {
    ERQ_ASSIGN_OR_RETURN(const Row* row, FilterIter::DoNext());
    if (row == nullptr) {
      if (buffer_ != nullptr && !delivered_) {
        delivered_ = true;
        options_.harvest->push_back(HarvestedIntermediate{node_, buffer_});
        buffer_.reset();
      }
      return row;
    }
    if (buffer_ != nullptr) {
      if (buffer_->size() >= options_.harvest_max_rows) {
        buffer_.reset();  // over the cap: abandon, stop copying
      } else {
        buffer_->push_back(*row);
      }
    }
    return row;
  }

 private:
  PhysOpPtr node_;
  const ExecOptions& options_;
  std::shared_ptr<std::vector<Row>> buffer_;
  bool delivered_ = false;
};

class ProjectIter : public Iter {
 public:
  ProjectIter(PhysicalOperator& op, IterPtr child)
      : Iter(op), child_(std::move(child)) {}

  Row Take() override { return std::move(out_); }

 protected:
  Status DoOpen() override { return child_->Open(); }

  StatusOr<const Row*> DoNext() override {
    ERQ_ASSIGN_OR_RETURN(const Row* row, child_->Next());
    if (row == nullptr) return row;
    out_.clear();
    out_.reserve(op_.layout.size());
    for (const SelectItem& item : op_.items) {
      if (item.kind == SelectItem::Kind::kStar) {
        out_.insert(out_.end(), row->begin(), row->end());
      } else {
        ERQ_ASSIGN_OR_RETURN(Value v, EvalScalar(*item.expr, *row));
        out_.push_back(std::move(v));
      }
    }
    return &out_;
  }

 private:
  IterPtr child_;
  Row out_;
};

/// Builds left ++ right into `out`, reusing its capacity.
void ConcatInto(const Row& left, const Row& right, Row* out) {
  out->clear();
  out->reserve(left.size() + right.size());
  out->insert(out->end(), left.begin(), left.end());
  out->insert(out->end(), right.begin(), right.end());
}

class NestedLoopsJoinIter : public Iter {
 public:
  NestedLoopsJoinIter(PhysicalOperator& op, IterPtr left, IterPtr right)
      : Iter(op),
        left_(std::move(left)),
        right_(std::move(right)),
        condition_(op.join_condition) {}

  Row Take() override { return std::move(out_); }

 protected:
  Status DoOpen() override {
    ERQ_ASSIGN_OR_RETURN(right_rows_, Drain(right_.get()));
    ERQ_RETURN_IF_ERROR(left_->Open());
    right_pos_ = 0;
    current_left_ = nullptr;
    return Status::OK();
  }

  StatusOr<const Row*> DoNext() override {
    Status error;
    while (true) {
      if (current_left_ == nullptr) {
        ERQ_ASSIGN_OR_RETURN(current_left_, left_->Next());
        if (current_left_ == nullptr) return nullptr;
        right_pos_ = 0;
      }
      while (right_pos_ < right_rows_.size()) {
        ConcatInto(*current_left_, right_rows_[right_pos_++], &out_);
        if (condition_.Passes(out_, &error)) return &out_;
        if (!error.ok()) return error;
      }
      current_left_ = nullptr;
    }
  }

 private:
  IterPtr left_, right_;
  PredicateKernel condition_;  // join_condition; empty passes every row
  std::vector<Row> right_rows_;
  const Row* current_left_ = nullptr;  // valid until left_->Next()
  size_t right_pos_ = 0;
  Row out_;
};

/// Evaluates the join keys of `row` into `out`; false when any key is
/// NULL (null keys never match).
StatusOr<bool> EvalKeys(const std::vector<ExprPtr>& keys, const Row& row,
                        Row* out) {
  out->clear();
  out->reserve(keys.size());
  for (const ExprPtr& k : keys) {
    ERQ_ASSIGN_OR_RETURN(Value v, EvalScalar(*k, row));
    if (v.is_null()) return false;
    out->push_back(std::move(v));
  }
  return true;
}

class HashJoinIter : public Iter {
 public:
  HashJoinIter(PhysicalOperator& op, IterPtr left, IterPtr right)
      : Iter(op),
        left_(std::move(left)),
        right_(std::move(right)),
        condition_(op.join_condition) {}

  Row Take() override { return std::move(out_); }

 protected:
  Status DoOpen() override {
    // Build on the right input.
    build_.clear();
    Row key;
    ERQ_RETURN_IF_ERROR(ForEachRow(right_.get(), [&](const Row& row) {
      ERQ_ASSIGN_OR_RETURN(bool has_key, EvalKeys(op_.right_keys, row, &key));
      if (has_key) build_[key].push_back(right_->Take());
      return Status::OK();
    }));
    ERQ_RETURN_IF_ERROR(left_->Open());
    matches_ = nullptr;
    match_pos_ = 0;
    return Status::OK();
  }

  StatusOr<const Row*> DoNext() override {
    Status error;
    while (true) {
      if (matches_ != nullptr) {
        while (match_pos_ < matches_->size()) {
          ConcatInto(*current_left_, (*matches_)[match_pos_++], &out_);
          if (condition_.Passes(out_, &error)) return &out_;
          if (!error.ok()) return error;
        }
        matches_ = nullptr;
      }
      ERQ_ASSIGN_OR_RETURN(current_left_, left_->Next());
      if (current_left_ == nullptr) return nullptr;
      ERQ_ASSIGN_OR_RETURN(bool has_key,
                           EvalKeys(op_.left_keys, *current_left_, &probe_));
      if (!has_key) continue;
      auto it = build_.find(probe_);
      if (it == build_.end()) continue;
      matches_ = &it->second;
      match_pos_ = 0;
    }
  }

 private:
  IterPtr left_, right_;
  PredicateKernel condition_;  // join_condition; empty passes every row
  std::unordered_map<Row, std::vector<Row>, RowHash> build_;
  const Row* current_left_ = nullptr;  // valid until left_->Next()
  Row probe_;                          // reused probe-key buffer
  const std::vector<Row>* matches_ = nullptr;
  size_t match_pos_ = 0;
  Row out_;
};

/// Hash semi join: passes on left rows whose operand value appears among
/// the right child's (single-column) output values. NULL operands match
/// nothing (SQL IN semantics for the TRUE case, which is all a semi join
/// keeps).
class SemiJoinIter : public Iter {
 public:
  SemiJoinIter(PhysicalOperator& op, IterPtr left, IterPtr right)
      : Iter(op), left_(std::move(left)), right_(std::move(right)) {}

  Row Take() override { return left_->Take(); }

 protected:
  Status DoOpen() override {
    values_.clear();
    ERQ_RETURN_IF_ERROR(ForEachRow(right_.get(), [&](const Row& row) {
      if (!row[0].is_null()) values_.insert(row[0]);
      return Status::OK();
    }));
    return left_->Open();
  }

  StatusOr<const Row*> DoNext() override {
    while (true) {
      ERQ_ASSIGN_OR_RETURN(const Row* row, left_->Next());
      if (row == nullptr) return row;
      ERQ_ASSIGN_OR_RETURN(Value key, EvalScalar(*op_.left_keys[0], *row));
      if (key.is_null()) continue;
      if (values_.count(key) > 0) return row;
    }
  }

 private:
  struct ValueEq {
    bool operator()(const Value& a, const Value& b) const {
      return a.ComparableWith(b) && a.Compare(b) == 0;
    }
  };

  IterPtr left_, right_;
  std::unordered_set<Value, ValueHash, ValueEq> values_;
};

/// Sort-merge join: materializes and sorts both inputs by key, then merges
/// equal-key groups.
class MergeJoinIter : public Iter {
 public:
  MergeJoinIter(PhysicalOperator& op, IterPtr left, IterPtr right)
      : Iter(op),
        left_(std::move(left)),
        right_(std::move(right)),
        condition_(op.join_condition) {}

  Row Take() override { return std::move(pending_[out_pos_ - 1]); }

 protected:
  Status DoOpen() override {
    ERQ_ASSIGN_OR_RETURN(std::vector<Row> lrows, Drain(left_.get()));
    ERQ_ASSIGN_OR_RETURN(std::vector<Row> rrows, Drain(right_.get()));
    ERQ_RETURN_IF_ERROR(Prepare(lrows, op_.left_keys, &left_sorted_));
    ERQ_RETURN_IF_ERROR(Prepare(rrows, op_.right_keys, &right_sorted_));
    li_ = ri_ = 0;
    out_pos_ = 0;
    pending_.clear();
    return Status::OK();
  }

  StatusOr<const Row*> DoNext() override {
    while (true) {
      if (out_pos_ < pending_.size()) return &pending_[out_pos_++];
      pending_.clear();
      out_pos_ = 0;
      if (li_ >= left_sorted_.size() || ri_ >= right_sorted_.size()) {
        return nullptr;
      }
      int c = CompareKeys(left_sorted_[li_].first, right_sorted_[ri_].first);
      if (c < 0) {
        ++li_;
        continue;
      }
      if (c > 0) {
        ++ri_;
        continue;
      }
      // Equal keys: emit the cross product of the two groups.
      size_t lj = li_;
      while (lj < left_sorted_.size() &&
             CompareKeys(left_sorted_[lj].first, left_sorted_[li_].first) == 0) {
        ++lj;
      }
      size_t rj = ri_;
      while (rj < right_sorted_.size() &&
             CompareKeys(right_sorted_[rj].first, right_sorted_[ri_].first) ==
                 0) {
        ++rj;
      }
      Status error;
      for (size_t a = li_; a < lj; ++a) {
        for (size_t b = ri_; b < rj; ++b) {
          ConcatInto(left_sorted_[a].second, right_sorted_[b].second,
                     &combined_);
          if (condition_.Passes(combined_, &error)) {
            pending_.push_back(combined_);
          } else if (!error.ok()) {
            return error;
          }
        }
      }
      li_ = lj;
      ri_ = rj;
    }
  }

 private:
  using Keyed = std::pair<Row, Row>;  // (key, row)

  static int CompareKeys(const Row& a, const Row& b) {
    for (size_t i = 0; i < a.size(); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c;
    }
    return 0;
  }

  static Status Prepare(std::vector<Row>& rows,
                        const std::vector<ExprPtr>& keys,
                        std::vector<Keyed>* out) {
    out->clear();
    out->reserve(rows.size());
    for (Row& row : rows) {
      Row key;
      ERQ_ASSIGN_OR_RETURN(bool has_key, EvalKeys(keys, row, &key));
      if (!has_key) continue;  // null keys never join
      out->emplace_back(std::move(key), std::move(row));
    }
    std::sort(out->begin(), out->end(), [](const Keyed& a, const Keyed& b) {
      return CompareKeys(a.first, b.first) < 0;
    });
    return Status::OK();
  }

  IterPtr left_, right_;
  PredicateKernel condition_;  // join_condition; empty passes every row
  std::vector<Keyed> left_sorted_, right_sorted_;
  size_t li_ = 0, ri_ = 0;
  Row combined_;  // scratch: rows failing the condition are never kept
  std::vector<Row> pending_;
  size_t out_pos_ = 0;
};

class LeftOuterJoinIter : public Iter {
 public:
  LeftOuterJoinIter(PhysicalOperator& op, IterPtr left, IterPtr right)
      : Iter(op),
        left_(std::move(left)),
        right_(std::move(right)),
        condition_(op.join_condition) {}

  Row Take() override { return std::move(pending_[out_pos_ - 1]); }

 protected:
  Status DoOpen() override {
    ERQ_ASSIGN_OR_RETURN(right_rows_, Drain(right_.get()));
    right_width_ = op_.children[1]->layout.size();
    ERQ_RETURN_IF_ERROR(left_->Open());
    pending_.clear();
    out_pos_ = 0;
    return Status::OK();
  }

  StatusOr<const Row*> DoNext() override {
    while (true) {
      if (out_pos_ < pending_.size()) return &pending_[out_pos_++];
      pending_.clear();
      out_pos_ = 0;
      ERQ_ASSIGN_OR_RETURN(const Row* left_row, left_->Next());
      if (left_row == nullptr) return nullptr;
      bool matched = false;
      Status error;
      for (const Row& r : right_rows_) {
        ConcatInto(*left_row, r, &combined_);
        if (!condition_.Passes(combined_, &error)) {
          if (!error.ok()) return error;
          continue;
        }
        matched = true;
        pending_.push_back(combined_);
      }
      if (!matched) {
        Row padded = *left_row;
        padded.resize(padded.size() + right_width_, Value::Null());
        pending_.push_back(std::move(padded));
      }
    }
  }

 private:
  IterPtr left_, right_;
  PredicateKernel condition_;  // join_condition; empty passes every row
  std::vector<Row> right_rows_;
  size_t right_width_ = 0;
  Row combined_;  // scratch: rows failing the condition are never kept
  std::vector<Row> pending_;
  size_t out_pos_ = 0;
};

class SortIter : public Iter {
 public:
  SortIter(PhysicalOperator& op, IterPtr child)
      : Iter(op), child_(std::move(child)) {}

  Row Take() override { return std::move(rows_[pos_ - 1]); }

 protected:
  Status DoOpen() override {
    ERQ_ASSIGN_OR_RETURN(rows_, Drain(child_.get()));
    // Precompute sort keys.
    std::vector<std::pair<Row, Row>> keyed;
    keyed.reserve(rows_.size());
    for (Row& row : rows_) {
      Row key;
      key.reserve(op_.order_by.size());
      for (const OrderItem& o : op_.order_by) {
        ERQ_ASSIGN_OR_RETURN(Value v, EvalScalar(*o.expr, row));
        key.push_back(std::move(v));
      }
      keyed.emplace_back(std::move(key), std::move(row));
    }
    std::stable_sort(
        keyed.begin(), keyed.end(),
        [this](const std::pair<Row, Row>& a, const std::pair<Row, Row>& b) {
          for (size_t i = 0; i < op_.order_by.size(); ++i) {
            int c = a.first[i].Compare(b.first[i]);
            if (c != 0) return op_.order_by[i].ascending ? c < 0 : c > 0;
          }
          return false;
        });
    rows_.clear();
    for (auto& [key, row] : keyed) rows_.push_back(std::move(row));
    pos_ = 0;
    return Status::OK();
  }

  StatusOr<const Row*> DoNext() override {
    if (pos_ >= rows_.size()) return nullptr;
    return &rows_[pos_++];
  }

 private:
  IterPtr child_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

struct RowEq {
  bool operator()(const Row& a, const Row& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].type() != b[i].type() || a[i].Compare(b[i]) != 0) return false;
    }
    return true;
  }
};

class DistinctIter : public Iter {
 public:
  DistinctIter(PhysicalOperator& op, IterPtr child)
      : Iter(op), child_(std::move(child)) {}

  Row Take() override { return child_->Take(); }

 protected:
  Status DoOpen() override {
    seen_.clear();
    return child_->Open();
  }

  StatusOr<const Row*> DoNext() override {
    while (true) {
      ERQ_ASSIGN_OR_RETURN(const Row* row, child_->Next());
      if (row == nullptr) return row;
      if (seen_.insert(*row).second) return row;
    }
  }

 private:
  IterPtr child_;
  std::unordered_set<Row, RowHash, RowEq> seen_;
};

class AggregateIter : public Iter {
 public:
  AggregateIter(PhysicalOperator& op, IterPtr child)
      : Iter(op), child_(std::move(child)) {}

  Row Take() override { return std::move(output_[pos_ - 1]); }

 protected:
  Status DoOpen() override {
    output_.clear();
    pos_ = 0;

    struct AggState {
      int64_t count = 0;
      double sum = 0.0;
      bool sum_is_int = true;
      int64_t isum = 0;
      std::optional<Value> min, max;
    };

    // group key -> (key row, per-aggregate state)
    std::unordered_map<Row, std::pair<Row, std::vector<AggState>>, RowHash,
                       RowEq>
        groups;
    size_t num_aggs = 0;
    for (const SelectItem& item : op_.items) {
      if (item.kind == SelectItem::Kind::kAggregate) ++num_aggs;
    }

    // Input rows are folded where they live; none is kept.
    Row key;
    ERQ_RETURN_IF_ERROR(ForEachRow(child_.get(), [&](const Row& row) {
      key.clear();
      key.reserve(op_.group_by.size());
      for (const ExprPtr& g : op_.group_by) {
        ERQ_ASSIGN_OR_RETURN(Value v, EvalScalar(*g, row));
        key.push_back(std::move(v));
      }
      auto it = groups.find(key);
      if (it == groups.end()) {
        it = groups
                 .emplace(key, std::make_pair(key,
                                              std::vector<AggState>(num_aggs)))
                 .first;
      }
      std::vector<AggState>& states = it->second.second;
      size_t agg_idx = 0;
      for (const SelectItem& item : op_.items) {
        if (item.kind != SelectItem::Kind::kAggregate) continue;
        AggState& st = states[agg_idx++];
        if (item.count_star) {
          ++st.count;
          continue;
        }
        ERQ_ASSIGN_OR_RETURN(Value v, EvalScalar(*item.expr, row));
        if (v.is_null()) continue;
        ++st.count;
        switch (item.agg) {
          case AggFunc::kCount:
            break;
          case AggFunc::kSum:
          case AggFunc::kAvg:
            if (v.type() == DataType::kInt64) {
              st.isum += v.AsInt();
            } else {
              st.sum_is_int = false;
            }
            st.sum += v.AsDouble();
            break;
          case AggFunc::kMin:
            if (!st.min.has_value() || v < *st.min) st.min = v;
            break;
          case AggFunc::kMax:
            if (!st.max.has_value() || v > *st.max) st.max = v;
            break;
        }
      }
      return Status::OK();
    }));

    auto emit = [&](const Row& key, const std::vector<AggState>& states) {
      Row out = key;
      size_t agg_idx = 0;
      for (const SelectItem& item : op_.items) {
        if (item.kind != SelectItem::Kind::kAggregate) continue;
        const AggState& st = states[agg_idx++];
        switch (item.agg) {
          case AggFunc::kCount:
            out.push_back(Value::Int(st.count));
            break;
          case AggFunc::kSum:
            if (st.count == 0) {
              out.push_back(Value::Null());
            } else {
              out.push_back(st.sum_is_int ? Value::Int(st.isum)
                                          : Value::Double(st.sum));
            }
            break;
          case AggFunc::kAvg:
            out.push_back(st.count == 0
                              ? Value::Null()
                              : Value::Double(st.sum /
                                              static_cast<double>(st.count)));
            break;
          case AggFunc::kMin:
            out.push_back(st.min.value_or(Value::Null()));
            break;
          case AggFunc::kMax:
            out.push_back(st.max.value_or(Value::Null()));
            break;
        }
      }
      output_.push_back(std::move(out));
    };

    if (groups.empty() && op_.group_by.empty()) {
      // Scalar aggregation over an empty input: COUNT yields 0, the others
      // NULL — the count(∅)=0 case §2.5(1) flags for special handling.
      emit(Row{}, std::vector<AggState>(num_aggs));
    } else {
      for (const auto& [key, entry] : groups) {
        emit(entry.first, entry.second);
      }
    }
    return Status::OK();
  }

  StatusOr<const Row*> DoNext() override {
    if (pos_ >= output_.size()) return nullptr;
    return &output_[pos_++];
  }

 private:
  IterPtr child_;
  std::vector<Row> output_;
  size_t pos_ = 0;
};

class UnionIter : public Iter {
 public:
  UnionIter(PhysicalOperator& op, IterPtr left, IterPtr right)
      : Iter(op), left_(std::move(left)), right_(std::move(right)) {}

  Row Take() override { return (on_right_ ? right_ : left_)->Take(); }

 protected:
  Status DoOpen() override {
    seen_.clear();
    on_right_ = false;
    return left_->Open();
  }

  StatusOr<const Row*> DoNext() override {
    while (true) {
      Iter* current = on_right_ ? right_.get() : left_.get();
      ERQ_ASSIGN_OR_RETURN(const Row* row, current->Next());
      if (row == nullptr) {
        if (on_right_) return row;
        on_right_ = true;
        ERQ_RETURN_IF_ERROR(right_->Open());
        continue;
      }
      if (!op_.all && !seen_.insert(*row).second) continue;
      return row;
    }
  }

 private:
  IterPtr left_, right_;
  std::unordered_set<Row, RowHash, RowEq> seen_;
  bool on_right_ = false;
};

class ExceptIter : public Iter {
 public:
  ExceptIter(PhysicalOperator& op, IterPtr left, IterPtr right)
      : Iter(op), left_(std::move(left)), right_(std::move(right)) {}

  Row Take() override { return left_->Take(); }

 protected:
  Status DoOpen() override {
    ERQ_ASSIGN_OR_RETURN(std::vector<Row> right_rows, Drain(right_.get()));
    right_counts_.clear();
    for (Row& r : right_rows) ++right_counts_[std::move(r)];
    emitted_.clear();
    return left_->Open();
  }

  StatusOr<const Row*> DoNext() override {
    while (true) {
      ERQ_ASSIGN_OR_RETURN(const Row* row, left_->Next());
      if (row == nullptr) return row;
      if (op_.all) {
        // Multiset difference: consume one right occurrence per match.
        auto it = right_counts_.find(*row);
        if (it != right_counts_.end() && it->second > 0) {
          --it->second;
          continue;
        }
        return row;
      }
      if (right_counts_.count(*row) > 0) continue;
      if (!emitted_.insert(*row).second) continue;
      return row;
    }
  }

 private:
  IterPtr left_, right_;
  std::unordered_map<Row, int64_t, RowHash, RowEq> right_counts_;
  std::unordered_set<Row, RowHash, RowEq> emitted_;
};

StatusOr<IterPtr> MakeIter(const PhysOpPtr& op, const ExecOptions& options) {
  PhysicalOperator& node = *op;
  // Children, built in order; unary operators use the first.
  std::vector<IterPtr> in;
  for (const PhysOpPtr& child : op->children) {
    ERQ_ASSIGN_OR_RETURN(IterPtr it, MakeIter(child, options));
    in.push_back(std::move(it));
  }
  switch (op->kind) {
    case PhysOpKind::kTableScan:
      return IterPtr(new TableScanIter(node, options));
    case PhysOpKind::kIndexScan:
      return IterPtr(new IndexScanIter(node));
    case PhysOpKind::kCachedResultScan:
      return IterPtr(new CachedResultScanIter(node));
    case PhysOpKind::kFilter:
      // Harvest only the Filter-over-TableScan shape: its output is the
      // complete sigma_predicate(relation) in ascending row order (even
      // under partition pruning, which only skips rows the filter would
      // reject) — the one intermediate the reuse store can serve soundly.
      if (options.harvest != nullptr &&
          op->children[0]->kind == PhysOpKind::kTableScan) {
        return IterPtr(new HarvestIter(op, std::move(in[0]), options));
      }
      return IterPtr(new FilterIter(node, std::move(in[0])));
    case PhysOpKind::kProject:
      return IterPtr(new ProjectIter(node, std::move(in[0])));
    case PhysOpKind::kNestedLoopsJoin:
      return IterPtr(
          new NestedLoopsJoinIter(node, std::move(in[0]), std::move(in[1])));
    case PhysOpKind::kHashJoin:
      return IterPtr(
          new HashJoinIter(node, std::move(in[0]), std::move(in[1])));
    case PhysOpKind::kMergeJoin:
      return IterPtr(
          new MergeJoinIter(node, std::move(in[0]), std::move(in[1])));
    case PhysOpKind::kSemiJoin:
      return IterPtr(
          new SemiJoinIter(node, std::move(in[0]), std::move(in[1])));
    case PhysOpKind::kLeftOuterJoin:
      return IterPtr(
          new LeftOuterJoinIter(node, std::move(in[0]), std::move(in[1])));
    case PhysOpKind::kSort:
      return IterPtr(new SortIter(node, std::move(in[0])));
    case PhysOpKind::kDistinct:
      return IterPtr(new DistinctIter(node, std::move(in[0])));
    case PhysOpKind::kAggregate:
      return IterPtr(new AggregateIter(node, std::move(in[0])));
    case PhysOpKind::kUnion:
      return IterPtr(new UnionIter(node, std::move(in[0]), std::move(in[1])));
    case PhysOpKind::kExcept:
      return IterPtr(new ExceptIter(node, std::move(in[0]), std::move(in[1])));
  }
  return Status::Internal("unknown physical operator");
}

}  // namespace

StatusOr<ExecutionResult> Executor::Run(const PhysOpPtr& plan) {
  return Run(plan, ExecOptions{});
}

StatusOr<ExecutionResult> Executor::Run(const PhysOpPtr& plan,
                                        const ExecOptions& options) {
  plan->ResetActuals();
  ERQ_ASSIGN_OR_RETURN(IterPtr iter, MakeIter(plan, options));
  ExecutionResult result;
  result.layout = plan->layout;
  ERQ_ASSIGN_OR_RETURN(result.rows, Drain(iter.get()));
  const ExecMetrics& metrics = ExecMetrics::Get();
  metrics.runs->Increment();
  metrics.rows_scanned->Increment(ScannedRows(*plan));
  metrics.rows_emitted->Increment(result.rows.size());
  metrics.partitions_pruned->Increment(
      SumPartitionCounts(*plan, &PhysicalOperator::partitions_pruned));
  metrics.partitions_scanned->Increment(
      SumPartitionCounts(*plan, &PhysicalOperator::partitions_scanned));
  return result;
}

}  // namespace erq
