#include "mv/mv_cache.h"

#include "common/metrics.h"
#include "expr/normalize.h"

namespace erq {

namespace {

/// Global MV-baseline instruments, resolved once (see metrics.h).
/// Aggregated across instances; per-instance numbers via stats_snapshot().
struct MvMetrics {
  Counter* lookups;
  Counter* hits;
  Counter* stored;
  Counter* evictions;

  static const MvMetrics& Get() {
    static const MvMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return MvMetrics{
          r.GetCounter("erq.mv.lookups"),
          r.GetCounter("erq.mv.hits"),
          r.GetCounter("erq.mv.stored"),
          r.GetCounter("erq.mv.evictions"),
      };
    }();
    return m;
  }
};

void AppendPlanFingerprint(const LogicalOperator& node, std::string* out) {
  out->append(LogicalOpKindToString(node.kind));
  out->push_back('(');
  switch (node.kind) {
    case LogicalOpKind::kScan:
      out->append(node.table_name);
      out->push_back('|');
      out->append(node.alias);
      break;
    case LogicalOpKind::kFilter:
    case LogicalOpKind::kJoin:
    case LogicalOpKind::kOuterJoin:
      if (node.predicate) {
        auto nnf = NormalizeToNnf(node.predicate);
        out->append(nnf.ok() ? (*nnf)->ToString()
                             : node.predicate->ToString());
      }
      break;
    case LogicalOpKind::kProject:
    case LogicalOpKind::kAggregate:
      for (const SelectItem& item : node.items) {
        out->append(item.ToString());
        out->push_back(';');
      }
      break;
    case LogicalOpKind::kUnion:
    case LogicalOpKind::kExcept:
      out->append(node.all ? "ALL" : "DISTINCT");
      break;
    default:
      break;
  }
  for (const LogicalOpPtr& c : node.children) {
    out->push_back(',');
    AppendPlanFingerprint(*c, out);
  }
  out->push_back(')');
}

}  // namespace

std::string MvEmptyCache::Fingerprint(const LogicalOpPtr& root) const {
  if (root == nullptr) return "";
  std::string out;
  AppendPlanFingerprint(*root, &out);
  return out;
}

void MvEmptyCache::RecordEmpty(const LogicalOpPtr& root) {
  std::string key = Fingerprint(root);
  if (key.empty() || max_views_ == 0) return;
  MutexLock lock(&mu_);
  auto it = keys_.find(key);
  if (it != keys_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  while (keys_.size() >= max_views_) {
    keys_.erase(lru_.back());
    lru_.pop_back();
    ++stats_.evictions;
    MvMetrics::Get().evictions->Increment();
  }
  lru_.push_front(key);
  keys_.emplace(std::move(key), lru_.begin());
  ++stats_.stored;
  MvMetrics::Get().stored->Increment();
}

bool MvEmptyCache::CheckEmpty(const LogicalOpPtr& root) {
  std::string key = Fingerprint(root);
  MutexLock lock(&mu_);
  ++stats_.lookups;
  MvMetrics::Get().lookups->Increment();
  auto it = keys_.find(key);
  if (it == keys_.end()) return false;
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  MvMetrics::Get().hits->Increment();
  return true;
}

void MvEmptyCache::Clear() {
  MutexLock lock(&mu_);
  lru_.clear();
  keys_.clear();
}

}  // namespace erq
