// served_hot: ErqServer on loopback with several tenants and two
// keep-alive connections, one closed-loop client thread each, each pass on
// a pair of CPUs (two busy threads at a time: a client or the server
// thread of its connection). Each tenant
// sends a CRM-shaped trace of indexed point lookups: the trace's empty
// share and repeats, with each distinct empty query a missing key. The
// executor does little, so per-request costs dominate: server, sql, plan
// and core.check. An executor change should not move this workload.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "engine.h"
#include "common/json.h"
#include "server/server.h"
#include "workload/trace.h"

namespace perfbench {
namespace {

constexpr size_t kCustomers = 500;
constexpr size_t kTenants = 4;
constexpr size_t kClients = 2;
constexpr size_t kRequestsPerTenant = 3000;

/// Every set of kClients CPUs among those the process may use, or none
/// when it may use no more than kClients.
std::vector<cpu_set_t> ClientCpuSets() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return {};
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  static_assert(kClients == 2, "the sets below are pairs");
  std::vector<cpu_set_t> sets;
  if (cpus.size() <= kClients) return sets;
  for (size_t i = 0; i < cpus.size(); ++i) {
    for (size_t j = i + 1; j < cpus.size(); ++j) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpus[i], &set);
      CPU_SET(cpus[j], &set);
      sets.push_back(set);
    }
  }
  return sets;
}

/// A minimal HTTP/1.1 keep-alive client, the benchmark's own so that the
/// client side does not change when the server's HTTP code does.
class HttpClient {
 public:
  HttpClient() = default;
  ~HttpClient() { Close(); }
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  bool Connect(uint16_t port) {
    Close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Close();
      return false;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return true;
  }

  /// Sends one serialized request and reads one response. False on a
  /// transport or framing error (the connection is then closed).
  bool RoundTrip(const std::string& request, int* status, std::string* body) {
    if (fd_ < 0) return false;
    for (size_t sent = 0; sent < request.size();) {
      const ssize_t n = ::send(fd_, request.data() + sent,
                               request.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return Fail();
      sent += static_cast<size_t>(n);
    }
    size_t header_end;
    while ((header_end = buf_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill()) return Fail();
    }
    if (buf_.compare(0, 9, "HTTP/1.1 ") != 0) return Fail();
    *status = std::atoi(buf_.c_str() + 9);
    const size_t length = ContentLength(header_end);
    if (length == std::string::npos) return Fail();
    const size_t total = header_end + 4 + length;
    while (buf_.size() < total) {
      if (!Fill()) return Fail();
    }
    body->assign(buf_, header_end + 4, length);
    buf_.erase(0, total);
    return true;
  }

 private:
  bool Fill() {
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  size_t ContentLength(size_t header_end) const {
    static constexpr char kName[] = "content-length:";
    for (size_t line = buf_.find("\r\n"); line < header_end;
         line = buf_.find("\r\n", line + 2)) {
      const size_t start = line + 2;
      if (strncasecmp(buf_.c_str() + start, kName, sizeof(kName) - 1) == 0) {
        return std::strtoul(buf_.c_str() + start + sizeof(kName) - 1,
                            nullptr, 10);
      }
    }
    return std::string::npos;
  }

  bool Fail() {
    Close();
    return false;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buf_.clear();
  }

  int fd_ = -1;
  std::string buf_;
};

struct Request {
  std::string wire;  // the serialized HTTP request
  bool expect_empty = false;
};

std::string Serialize(const std::string& tenant, const std::string& sql) {
  const std::string body = "{\"tenant\": " + erq::JsonQuote(tenant) +
                           ", \"sql\": " + erq::JsonQuote(sql) +
                           ", \"row_limit\": 1, \"explain\": \"none\"}";
  return "POST /v1/query HTTP/1.1\r\nHost: 127.0.0.1\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

/// The node at `path` through nested objects, or nullptr.
const erq::JsonValue* At(const erq::JsonValue& doc,
                         std::initializer_list<const char*> path) {
  const erq::JsonValue* v = &doc;
  for (const char* key : path) {
    v = v->Find(key);
    if (v == nullptr) return nullptr;
  }
  return v;
}

double NumberAt(const erq::JsonValue& doc,
                std::initializer_list<const char*> path, bool* ok) {
  const erq::JsonValue* v = At(doc, path);
  if (v == nullptr || !v->is_number()) {
    *ok = false;
    return 0;
  }
  return v->AsDouble();
}

bool BoolAt(const erq::JsonValue& doc, std::initializer_list<const char*> path,
            bool* ok) {
  const erq::JsonValue* v = At(doc, path);
  if (v == nullptr || !v->is_bool()) {
    *ok = false;
    return false;
  }
  return v->AsBool();
}

/// Checks one response against the generator's ground truth and extracts
/// the engine's report from it. Returns false, with `why` set, when the
/// response is not a well-formed OK answer with the expected emptiness.
bool CheckResponse(int status, const std::string& body, bool expect_empty,
                   QueryReport* r, std::string* why) {
  if (status != 200) {
    *why = "HTTP " + std::to_string(status) + ": " + body;
    return false;
  }
  const erq::StatusOr<erq::JsonValue> doc = erq::JsonValue::Parse(body);
  if (!doc.ok() || !doc->is_object()) {
    *why = "malformed body: " + body;
    return false;
  }
  const erq::JsonValue* schema = At(*doc, {"schema"});
  const erq::JsonValue* code = At(*doc, {"status", "code"});
  if (schema == nullptr || !schema->is_string() ||
      schema->AsString() != "erq.response.v1" || code == nullptr ||
      !code->is_string() || code->AsString() != "OK") {
    *why = "not an OK erq.response.v1: " + body;
    return false;
  }
  bool ok = true;
  const bool result_empty = BoolAt(*doc, {"outcome", "result_empty"}, &ok);
  r->detected_empty = BoolAt(*doc, {"outcome", "detected_empty"}, &ok);
  r->executed = BoolAt(*doc, {"outcome", "executed"}, &ok);
  r->result_rows =
      static_cast<size_t>(NumberAt(*doc, {"outcome", "result_rows"}, &ok));
  r->partitions_scanned = static_cast<size_t>(
      NumberAt(*doc, {"outcome", "partitions_scanned"}, &ok));
  r->partitions_pruned = static_cast<size_t>(
      NumberAt(*doc, {"outcome", "partitions_pruned"}, &ok));
  r->reuse_rows_served = static_cast<size_t>(
      NumberAt(*doc, {"outcome", "reuse_rows_served"}, &ok));
  r->parse_s = NumberAt(*doc, {"timings", "parse_seconds"}, &ok);
  r->plan_s = NumberAt(*doc, {"timings", "plan_seconds"}, &ok);
  r->optimize_s = NumberAt(*doc, {"timings", "optimize_seconds"}, &ok);
  r->gate_s = NumberAt(*doc, {"timings", "gate_seconds"}, &ok);
  r->check_s = NumberAt(*doc, {"timings", "check_seconds"}, &ok);
  r->execute_s = NumberAt(*doc, {"timings", "execute_seconds"}, &ok);
  r->record_s = NumberAt(*doc, {"timings", "record_seconds"}, &ok);
  r->total_s = NumberAt(*doc, {"timings", "total_seconds"}, &ok);
  if (!ok) {
    *why = "response lacks outcome or timing fields: " + body;
    return false;
  }
  if (result_empty != expect_empty || (r->result_rows == 0) != expect_empty) {
    *why = expect_empty ? "non-empty answer to an empty query"
                        : "empty answer to a non-empty query";
    return false;
  }
  return true;
}

class ServedHot : public Workload {
 public:
  explicit ServedHot(uint64_t seed) {
    tpcr_.customers_per_unit = kCustomers;
    tpcr_.seed = seed;
    const TpcrDb db = BuildTpcrDb(tpcr_, /*indexes=*/true);
    const size_t customers = db.instance.customer->num_rows();
    const size_t orders = db.instance.orders->num_rows();
    probe_key_ = static_cast<int64_t>(orders) + 1000000;
    probe_date_ = db.instance.first_date;

    // Each tenant replays its own CRM-shaped trace (trace.h): the paper's
    // measured empty share and distinct-empty share, with Zipf repeats.
    // Every query becomes an indexed point lookup, so that execution stays
    // small: a non-empty slot looks up an existing key, and each distinct
    // empty query of the trace a key of its own above the loaded ones.
    std::vector<std::vector<erq::TraceQuery>> traces(kTenants);
    for (size_t t = 0; t < kTenants; ++t) {
      erq::TraceConfig trace;
      trace.total_queries = kRequestsPerTenant;
      trace.seed = seed + 10 + t;
      traces[t] = erq::GenerateCrmTrace(db.instance, trace);
      const erq::TraceStats stats = erq::ComputeTraceStats(traces[t]);
      empty_queries_ += stats.empty;
      distinct_empty_ += stats.distinct_empty;
    }
    // Interleave the tenants' traces in a seeded order, each in its own
    // order, and deal the requests to the clients in turn.
    std::mt19937_64 rng(seed + 3);
    std::uniform_int_distribution<size_t> pick_customer(0, customers - 1);
    std::uniform_int_distribution<size_t> pick_order(0, orders - 1);
    std::bernoulli_distribution pick_customer_table(0.5);
    std::vector<size_t> next(kTenants, 0);
    std::vector<size_t> live(kTenants);
    for (size_t t = 0; t < kTenants; ++t) live[t] = t;
    for (size_t i = 0; !live.empty(); ++i) {
      const size_t slot =
          std::uniform_int_distribution<size_t>(0, live.size() - 1)(rng);
      const size_t t = live[slot];
      const erq::TraceQuery& q = traces[t][next[t]++];
      if (next[t] == traces[t].size()) live.erase(live.begin() + slot);
      Request request;
      request.expect_empty = q.expect_empty;
      std::string sql;
      if (q.expect_empty) {
        const size_t id = static_cast<size_t>(q.template_id);
        sql = id % 2 == 0 ? "select * from customer where custkey = " +
                                std::to_string(customers + id)
                          : "select * from orders where orderkey = " +
                                std::to_string(orders + id);
      } else {
        sql = pick_customer_table(rng)
                  ? "select * from customer where custkey = " +
                        std::to_string(pick_customer(rng))
                  : "select * from orders where orderkey = " +
                        std::to_string(pick_order(rng));
      }
      request.wire = Serialize(TenantName(t), sql);
      requests_[i % kClients].push_back(std::move(request));
    }
    options_.port = 0;
    options_.max_connections = kClients + 4;
    options_.max_tenants = kTenants + 1;
    options_.global_n_max = 1000 * options_.max_tenants;
    options_.tenant_config.c_cost = 0.0;
    cpu_sets_ = ClientCpuSets();
  }

  void Setup() override {
    // Each pass runs on the next pair of CPUs: the calling thread's
    // affinity passes to every thread started from here on, the server's
    // included. A client and the server thread of its connection take
    // turns, so two CPUs hold the busy threads; confined, the pairs stop
    // migrating, and no round trip waits for a third CPU to wake. The
    // host slows each CPU on its own, so passes cycle through every pair,
    // and an operation's best replay comes from whichever was fast.
    if (!cpu_sets_.empty()) {
      const cpu_set_t& set = cpu_sets_[passes_++ % cpu_sets_.size()];
      sched_setaffinity(0, sizeof(set), &set);
    }
    db_ = BuildTpcrDb(tpcr_, /*indexes=*/true);
    server_ = std::make_unique<erq::ErqServer>(db_.catalog.get(),
                                               db_.stats.get(), options_);
    if (erq::Status s = server_->Start(); !s.ok()) {
      std::fprintf(stderr, "perfbench: server start: %s\n",
                   s.ToString().c_str());
      std::exit(2);
    }
    // Create every tenant, so no timed request pays for it.
    HttpClient client;
    for (size_t t = 0; t < kTenants; ++t) {
      const std::string warm = Serialize(
          TenantName(t), "select * from customer where custkey = 0");
      int status = 0;
      std::string body;
      if (!client.Connect(server_->port()) ||
          !client.RoundTrip(warm, &status, &body) || status != 200) {
        std::fprintf(stderr, "perfbench: tenant warm-up failed\n");
        std::exit(2);
      }
    }
  }

  void RunPass(PassLog* log, bool /*verify*/) override {
    HttpClient clients[kClients];
    PassLog client_logs[kClients];
    for (size_t c = 0; c < kClients; ++c) {
      client_logs[c].traced = log->traced;
      client_logs[c].keep_spans = log->keep_spans;
      if (!clients[c].Connect(server_->port())) {
        std::fprintf(stderr, "perfbench: connect failed\n");
        std::exit(2);
      }
    }
    log->BeginWindow();
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        Recorder recorder(&client_logs[c], (c + 1) << 40);
        int status = 0;
        std::string body;
        for (const Request& request : requests_[c]) {
          const int64_t start = NowNs();
          bool ok = clients[c].RoundTrip(request.wire, &status, &body);
          const int64_t end = NowNs();
          QueryReport report;
          std::string why = "transport error";
          ok = ok && CheckResponse(status, body, request.expect_empty,
                                   &report, &why);
          if (!ok) {
            ReportFailure(request.wire, why);
            clients[c].Connect(server_->port());
          }
          recorder.Read(Transport::kHttp, start, end, request.expect_empty,
                        ok, report);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    log->EndWindow();
    for (const PassLog& client_log : client_logs) log->Merge(client_log);
    if (log->traced) {
      for (erq::TenantRegistry::Tenant* tenant : server_->tenants().Tenants()) {
        AddCounts(*tenant->manager, &log->counts);
      }
    }
    // No request is in flight, so the catalog may be written.
    Recorder recorder(log, 0);
    WriteProbe(db_.catalog.get(), probe_key_, probe_date_, &recorder);
  }

  void Teardown() override {
    server_->Stop();
    server_.reset();
    db_ = TpcrDb{};
  }

  // Client and server threads share the CPUs, and interleave their
  // allocations differently from run to run (socket reads split
  // differently, for one).
  bool SingleThreaded() const override { return false; }
  size_t Clients() const override { return kClients; }

  Facts InputFacts() const override {
    Facts f;
    f.Add("customers", kCustomers);
    f.Add("tenants", kTenants);
    f.Add("connections", kClients);
    f.Add("requests_per_pass", kTenants * kRequestsPerTenant);
    f.Add("empty_queries", static_cast<double>(empty_queries_));
    f.Add("distinct_empty", static_cast<double>(distinct_empty_));
    f.Add("probe_writes_per_pass", 2 * kProbePairs);
    f.Add("probe_rows_per_write", kProbeRows);
    return f;
  }

 private:
  static std::string TenantName(size_t t) { return "t" + std::to_string(t); }

  erq::TpcrConfig tpcr_;
  erq::ServerOptions options_;
  std::vector<Request> requests_[kClients];
  size_t empty_queries_ = 0;
  size_t distinct_empty_ = 0;
  int64_t probe_key_ = 0;
  int32_t probe_date_ = 0;
  TpcrDb db_;
  std::unique_ptr<erq::ErqServer> server_;
  std::vector<cpu_set_t> cpu_sets_;
  size_t passes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeServedHot(uint64_t seed) {
  return std::make_unique<ServedHot>(seed);
}

}  // namespace perfbench
