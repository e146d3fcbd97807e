// churn_reuse: in process, one client, intermediate-result reuse and
// partitions on, no indexes, so selections plan as Filter over TableScan
// (the shape the reuse store harvests and zone maps prune). Repeated
// low-cardinality range reads are interleaved with inserts and deletes on
// orders. The distinct intermediates add up to several times the reuse
// byte budget, so eviction runs. Writes run beside reads, so a read-path
// gain that makes invalidation dearer shows in write_p50_us.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_set>

#include "core/query_api.h"
#include "engine.h"

namespace perfbench {
namespace {

constexpr size_t kCustomers = 500;  // 5,000 orders, 20,000 lineitems
constexpr size_t kPartitions = 8;
constexpr size_t kOps = 1000;  // one pass
constexpr double kWriteShare = 0.08;
constexpr size_t kRowsPerInsert = 4;
constexpr size_t kMaxOutstanding = 3;  // insert batches not yet deleted
constexpr size_t kBudgetBytes = 128 * 1024;
constexpr double kZipfS = 1.1;
// The access pattern (which read when, where writes fall) comes from this
// fixed seed; --seed picks the data and every probed value. So hits,
// misses and evictions follow the same pattern on every seed, and the
// spread between seeds is the host's, not the pattern's.
constexpr uint64_t kPatternSeed = 0x5eed;
// Orders keys above the loaded ones are split into slots; inserts land in
// a slot and the "future" reads probe one, so those reads are empty until
// an insert fills their slot and empty again once it is deleted.
constexpr int64_t kSlotStride = 1000;
constexpr size_t kSlots = 8;
constexpr size_t kTemplatesPerKind = 12;  // future slots: kSlots
constexpr int64_t kSlotWidth = 100;

struct Template {
  enum class Kind { kKeyRange, kPriceBand, kPart, kFuture };
  Kind kind;
  std::string sql;
  int64_t lo = 0, hi = 0;  // key range [lo, hi) or part (lo)
  double price_lo = 0, price_hi = 0;
  size_t base_rows = 0;  // rows among the loaded data
};

std::string KeyRangeSql(int64_t lo, int64_t hi) {
  return "select * from orders where orderkey >= " + std::to_string(lo) +
         " and orderkey < " + std::to_string(hi);
}

struct InsertedRow {
  int64_t key;
  double price;
};

struct Op {
  enum class Kind { kRead, kInsert, kDelete };
  Kind kind = Kind::kRead;
  size_t template_index = 0;  // kRead
  size_t expected_rows = 0;   // kRead: ground truth from the generator
  std::vector<erq::Row> rows;           // kInsert
  std::unordered_set<int64_t> keys;     // kDelete
};

class ChurnReuse : public Workload {
 public:
  explicit ChurnReuse(uint64_t seed) {
    tpcr_.customers_per_unit = kCustomers;
    tpcr_.seed = seed;
    tpcr_.partitions = kPartitions;
    const TpcrDb db = BuildTpcrDb(tpcr_, /*indexes=*/false);
    std::mt19937_64 values(seed + 4);
    std::mt19937_64 pattern(kPatternSeed);
    MakeTemplates(db.instance, &values);
    MakeOps(db.instance, &pattern, &values);

    config_.c_cost = 0.0;
    config_.detection_enabled = true;
    config_.invalidation = erq::InvalidationMode::kFilterIrrelevant;
    config_.partition_pruning = true;
    config_.reuse.enabled = true;
    config_.reuse.budget_bytes = kBudgetBytes;
    reference_config_.detection_enabled = false;
    reference_config_.reuse.enabled = false;
  }

  void Setup() override {
    db_ = BuildTpcrDb(tpcr_, /*indexes=*/false);
    manager_ = std::make_unique<erq::EmptyResultManager>(
        db_.catalog.get(), db_.stats.get(), config_);
  }

  void RunPass(PassLog* log, bool verify) override {
    // The reference manager sees the same catalog and the same writes.
    if (verify) {
      reference_ = std::make_unique<erq::EmptyResultManager>(
          db_.catalog.get(), db_.stats.get(), reference_config_);
    }
    Recorder recorder(log, 0);
    log->BeginWindow();
    for (const Op& op : ops_) {
      switch (op.kind) {
        case Op::Kind::kRead:
          Read(op, reference_.get(), log, &recorder);
          break;
        case Op::Kind::kInsert: {
          std::vector<erq::Row> rows = op.rows;
          const int64_t start = NowNs();
          const bool ok =
              db_.catalog->AppendRows("orders", std::move(rows)).ok();
          const int64_t end = NowNs();
          if (!ok) ReportFailure("AppendRows", "error");
          recorder.Write(WriteKind::kAppend, start, end, ok, true);
          break;
        }
        case Op::Kind::kDelete: {
          const std::unordered_set<int64_t>& keys = op.keys;
          const int64_t start = NowNs();
          erq::StatusOr<size_t> removed = db_.catalog->DeleteRows(
              "orders", [&keys](const erq::Row& row) {
                return keys.count(row[0].AsInt()) > 0;
              });
          const int64_t end = NowNs();
          const bool ok = removed.ok() && *removed == keys.size();
          if (!ok) ReportFailure("DeleteRows", "wrong row count");
          recorder.Write(WriteKind::kDelete, start, end, ok, true);
          break;
        }
      }
    }
    log->EndWindow();
    if (log->traced) AddCounts(*manager_, &log->counts);
  }

  void Teardown() override {
    // Managers listen to the catalog, so they go first.
    reference_.reset();
    manager_.reset();
    db_ = TpcrDb{};
  }

  bool SingleThreaded() const override { return true; }
  size_t Clients() const override { return 1; }

  Facts InputFacts() const override {
    size_t rows = 0;
    for (const Template& t : templates_) rows += t.base_rows;
    // The reuse store charges each row its Row header plus one Value per
    // column (plus string bytes, none here).
    const size_t row_bytes = sizeof(erq::Row) + 4 * sizeof(erq::Value);
    size_t reads = 0, writes = 0;
    for (const Op& op : ops_) (op.kind == Op::Kind::kRead ? reads : writes)++;
    Facts f;
    f.Add("customers", kCustomers);
    f.Add("partitions", kPartitions);
    f.Add("ops_per_pass", static_cast<double>(ops_.size()));
    f.Add("reads_per_pass", static_cast<double>(reads));
    f.Add("writes_per_pass", static_cast<double>(writes));
    f.Add("distinct_reads", static_cast<double>(templates_.size()));
    f.Add("distinct_intermediate_rows", static_cast<double>(rows));
    f.Add("distinct_intermediate_bytes_est",
          static_cast<double>(rows * row_bytes));
    f.Add("reuse_budget_bytes", kBudgetBytes);
    return f;
  }

 private:
  void Read(const Op& op, erq::EmptyResultManager* reference, PassLog* log,
            Recorder* recorder) {
    const Template& t = templates_[op.template_index];
    const erq::QueryRequest request = erq::QueryRequest::Sql(t.sql);
    const int64_t start = NowNs();
    erq::StatusOr<erq::QueryOutcome> outcome = manager_->Execute(request);
    const int64_t end = NowNs();
    bool ok = outcome.ok() && outcome->result_rows == op.expected_rows &&
              outcome->result_empty == (op.expected_rows == 0);
    if (!ok) {
      ReportFailure(t.sql, outcome.ok()
                               ? "expected " + std::to_string(op.expected_rows) +
                                     " rows, got " +
                                     std::to_string(outcome->result_rows)
                               : outcome.status().ToString());
    }
    if (reference != nullptr) {
      erq::StatusOr<erq::QueryOutcome> truth = reference->Execute(request);
      if (!truth.ok() || !outcome.ok() ||
          truth->result_rows != outcome->result_rows) {
        ok = false;
        ReportFailure(t.sql, "differs from the detection-off, reuse-off run");
      }
    }
    recorder->Read(Transport::kInProcess, start, end, op.expected_rows == 0, ok,
                   ok && log->traced ? ReportOf(*outcome) : QueryReport{});
  }

  // The templates' shapes and popularity ranks are the same for every
  // seed; the seed picks only where each range or part falls.
  void MakeTemplates(const erq::TpcrInstance& inst, std::mt19937_64* rng) {
    const int64_t orders = static_cast<int64_t>(inst.orders->num_rows());
    std::uniform_int_distribution<size_t> pick_order(
        0, inst.orders->num_rows() - 1);
    std::uniform_int_distribution<size_t> pick_part(
        0, inst.present_parts.size() - 1);
    char sql[128];
    // Ranked round robin: key range, price band, part, future slot, ...
    for (size_t i = 0; i < kTemplatesPerKind; ++i) {
      Template key{Template::Kind::kKeyRange, ""};
      const int64_t width = 40 + 8 * static_cast<int64_t>(i);
      key.lo = std::uniform_int_distribution<int64_t>(0, orders - width)(*rng);
      key.hi = key.lo + width;
      key.sql = KeyRangeSql(key.lo, key.hi);
      templates_.push_back(key);

      Template band{Template::Kind::kPriceBand, ""};
      const erq::Row& order = inst.orders->rows()[pick_order(*rng)];
      band.price_lo = std::floor(order[3].AsDouble());
      band.price_hi = band.price_lo + 60.0;
      std::snprintf(sql, sizeof(sql),
                    "select * from orders where totalprice >= %.1f and "
                    "totalprice < %.1f",
                    band.price_lo, band.price_hi);
      band.sql = sql;
      templates_.push_back(band);

      Template part{Template::Kind::kPart, ""};
      part.lo = inst.present_parts[pick_part(*rng)];
      part.sql =
          "select * from lineitem where partkey = " + std::to_string(part.lo);
      templates_.push_back(part);

      if (i < kSlots) {
        Template future{Template::Kind::kFuture, ""};
        future.lo = orders + kSlotStride * static_cast<int64_t>(i + 1);
        future.hi = future.lo + kSlotWidth / 2;
        future.sql = KeyRangeSql(future.lo, future.hi);
        templates_.push_back(future);
      }
    }
    for (Template& t : templates_) t.base_rows = CountBase(inst, t);
  }

  static size_t CountBase(const erq::TpcrInstance& inst, const Template& t) {
    size_t n = 0;
    switch (t.kind) {
      case Template::Kind::kKeyRange:
      case Template::Kind::kFuture:
        for (const erq::Row& row : inst.orders->rows()) {
          n += row[0].AsInt() >= t.lo && row[0].AsInt() < t.hi;
        }
        break;
      case Template::Kind::kPriceBand:
        for (const erq::Row& row : inst.orders->rows()) {
          const double price = row[3].AsDouble();
          n += price >= t.price_lo && price < t.price_hi;
        }
        break;
      case Template::Kind::kPart:
        for (const erq::Row& row : inst.lineitem->rows()) {
          n += row[1].AsInt() == t.lo;
        }
        break;
    }
    return n;
  }

  static size_t CountInserted(const Template& t,
                              const std::vector<InsertedRow>& live) {
    size_t n = 0;
    for (const InsertedRow& r : live) {
      switch (t.kind) {
        case Template::Kind::kKeyRange:
        case Template::Kind::kFuture:
          n += r.key >= t.lo && r.key < t.hi;
          break;
        case Template::Kind::kPriceBand:
          n += r.price >= t.price_lo && r.price < t.price_hi;
          break;
        case Template::Kind::kPart:
          break;
      }
    }
    return n;
  }

  void MakeOps(const erq::TpcrInstance& inst, std::mt19937_64* pattern,
               std::mt19937_64* values) {
    const int64_t orders = static_cast<int64_t>(inst.orders->num_rows());
    const Zipf zipf(templates_.size(), kZipfS);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    std::uniform_int_distribution<size_t> pick_slot(0, kSlots - 1);
    std::uniform_int_distribution<int64_t> pick_offset(0, kSlotWidth - 1);
    std::uniform_int_distribution<size_t> pick_date(
        0, inst.present_dates.size() - 1);
    std::uniform_int_distribution<int64_t> pick_customer(
        0, static_cast<int64_t>(kCustomers) - 1);
    std::uniform_real_distribution<double> pick_price(1.0, 10000.0);

    std::vector<std::vector<InsertedRow>> outstanding;  // oldest first
    std::unordered_set<int64_t> used_keys;
    auto live_rows = [&] {
      std::vector<InsertedRow> live;
      for (const auto& batch : outstanding) {
        live.insert(live.end(), batch.begin(), batch.end());
      }
      return live;
    };
    auto delete_oldest = [&] {
      Op op;
      op.kind = Op::Kind::kDelete;
      for (const InsertedRow& r : outstanding.front()) {
        op.keys.insert(r.key);
        used_keys.erase(r.key);
      }
      outstanding.erase(outstanding.begin());
      ops_.push_back(std::move(op));
    };

    while (ops_.size() < kOps) {
      if (coin(*pattern) >= kWriteShare) {
        Op op;
        op.template_index = zipf(*pattern);
        const Template& t = templates_[op.template_index];
        op.expected_rows = t.base_rows + CountInserted(t, live_rows());
        ops_.push_back(std::move(op));
      } else if (outstanding.size() >= kMaxOutstanding ||
                 (!outstanding.empty() && coin(*pattern) < 0.5)) {
        delete_oldest();
      } else {
        Op op;
        op.kind = Op::Kind::kInsert;
        std::vector<InsertedRow> batch;
        const int64_t slot = static_cast<int64_t>(pick_slot(*pattern));
        const int64_t base = orders + kSlotStride * (slot + 1);
        while (batch.size() < kRowsPerInsert) {
          const int64_t key = base + pick_offset(*pattern);
          if (!used_keys.insert(key).second) continue;
          const double price = pick_price(*values);
          batch.push_back(InsertedRow{key, price});
          op.rows.push_back(erq::Row{
              erq::Value::Int(key), erq::Value::Int(pick_customer(*values)),
              erq::Value::Date(inst.present_dates[pick_date(*values)]),
              erq::Value::Double(price)});
        }
        outstanding.push_back(std::move(batch));
        ops_.push_back(std::move(op));
      }
    }
    // Leave the data as loaded, so every pass ends where it began.
    while (!outstanding.empty()) delete_oldest();
  }

  erq::TpcrConfig tpcr_;
  erq::EmptyResultConfig config_;
  erq::EmptyResultConfig reference_config_;
  std::vector<Template> templates_;
  std::vector<Op> ops_;
  TpcrDb db_;
  std::unique_ptr<erq::EmptyResultManager> manager_;
  std::unique_ptr<erq::EmptyResultManager> reference_;  // verify passes
};

}  // namespace

std::unique_ptr<Workload> MakeChurnReuse(uint64_t seed) {
  return std::make_unique<ChurnReuse>(seed);
}

}  // namespace perfbench
