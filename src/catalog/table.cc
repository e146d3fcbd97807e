#include "catalog/table.h"

#include <algorithm>

namespace erq {

Status Table::AppendAll(const std::vector<Row>& rows) {
  for (const Row& row : rows) ERQ_RETURN_IF_ERROR(Validate(row));
  MutexLock lock(&mu_);
  for (const Row& row : rows) {
    rows_.push_back(row);
    if (scheme_.partitioned()) {
      ObserveRowLocked(rows_.size() - 1, rows_.back());
    }
  }
  if (scheme_.partitioned()) snapshot_stale_ = true;
  version_.fetch_add(1, std::memory_order_release);
  return Status::OK();
}

Status Table::Validate(const Row& row) const {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " does not match schema '" +
        name_ + "' with " + std::to_string(schema_.num_columns()) + " columns");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].is_null()) continue;
    if (row[i].type() != schema_.column(i).type) {
      return Status::InvalidArgument(
          "type mismatch in column '" + schema_.column(i).name + "' of table '" +
          name_ + "': got " + DataTypeToString(row[i].type()) + ", want " +
          DataTypeToString(schema_.column(i).type));
    }
  }
  return Status::OK();
}

void Table::AppendUnchecked(Row row) {
  MutexLock lock(&mu_);
  rows_.push_back(std::move(row));
  if (scheme_.partitioned()) {
    ObserveRowLocked(rows_.size() - 1, rows_.back());
    snapshot_stale_ = true;
  }
  version_.fetch_add(1, std::memory_order_release);
}

void Table::Reserve(size_t n) {
  MutexLock lock(&mu_);
  rows_.reserve(n);
}

size_t Table::DeleteWhere(const std::function<bool(const Row&)>& pred) {
  MutexLock lock(&mu_);
  size_t before = rows_.size();
  rows_.erase(std::remove_if(rows_.begin(), rows_.end(), pred), rows_.end());
  if (scheme_.partitioned()) {
    RebuildPartitionsLocked();
    snapshot_stale_ = true;
  }
  version_.fetch_add(1, std::memory_order_release);
  return before - rows_.size();
}

void Table::Clear() {
  MutexLock lock(&mu_);
  rows_.clear();
  if (scheme_.partitioned()) {
    RebuildPartitionsLocked();
    snapshot_stale_ = true;
  }
  version_.fetch_add(1, std::memory_order_release);
}

size_t Table::EstimatedBytes() const {
  size_t bytes = 0;
  for (const Row& r : rows_) {
    bytes += sizeof(Row) + r.size() * sizeof(Value);
    for (const Value& v : r) {
      if (v.type() == DataType::kString) bytes += v.AsString().size();
    }
  }
  return bytes;
}

Status Table::SetPartitioning(PartitionScheme scheme) {
  ERQ_RETURN_IF_ERROR(scheme.Validate(schema_));
  MutexLock lock(&mu_);
  scheme_ = std::move(scheme);
  key_index_ = 0;
  if (scheme_.partitioned()) {
    StatusOr<size_t> key = schema_.IndexOf(scheme_.key_column);
    if (!key.ok()) return key.status();  // unreachable after Validate
    key_index_ = key.value();
  }
  RebuildPartitionsLocked();
  snapshot_stale_ = true;
  version_.fetch_add(1, std::memory_order_release);
  return Status::OK();
}

bool Table::partitioned() const {
  MutexLock lock(&mu_);
  return scheme_.partitioned();
}

PartitionScheme Table::partition_scheme() const {
  MutexLock lock(&mu_);
  return scheme_;
}

std::shared_ptr<const PartitionSnapshot> Table::partition_snapshot() const {
  MutexLock lock(&mu_);
  if (!scheme_.partitioned()) return nullptr;
  if (snapshot_stale_ || snapshot_ == nullptr) {
    auto snap = std::make_shared<PartitionSnapshot>();
    snap->scheme = scheme_;
    snap->partitions = working_;
    snap->version = version_.load(std::memory_order_acquire);
    snapshot_ = std::move(snap);
    snapshot_stale_ = false;
  }
  return snapshot_;
}

void Table::RebuildPartitionsLocked() {
  working_.clear();
  if (!scheme_.partitioned()) {
    snapshot_ = nullptr;
    return;
  }
  working_.resize(scheme_.Count());
  for (PartitionState& st : working_) {
    st.columns.resize(schema_.num_columns());
  }
  for (size_t i = 0; i < rows_.size(); ++i) {
    ObserveRowLocked(i, rows_[i]);
  }
}

void Table::ObserveRowLocked(size_t row_id, const Row& row) {
  if (working_.size() != scheme_.Count()) {
    // First row after a scheme change without an explicit rebuild.
    working_.resize(scheme_.Count());
  }
  size_t p = key_index_ < row.size() ? scheme_.PartitionOf(row[key_index_]) : 0;
  if (p >= working_.size()) p = working_.size() - 1;
  PartitionState& st = working_[p];
  if (st.columns.size() < schema_.num_columns()) {
    st.columns.resize(schema_.num_columns());
  }
  st.row_ids.push_back(row_id);
  for (size_t c = 0; c < row.size() && c < st.columns.size(); ++c) {
    st.columns[c].Observe(row[c], scheme_.zone_map_distinct_cap);
  }
}

}  // namespace erq
