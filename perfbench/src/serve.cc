// `perfbench serve`: drives a running ganc_serve over localhost TCP.
//
// The load is open loop on a fixed schedule (request k of a phase is
// due at t0 + k / rate), round-robin over the connections and pipelined:
// the sender never waits for a response. Each response is timed from
// when its request was due, so a stall counts against every request
// queued behind it. Closed-loop phases keep a fixed window in flight per
// connection instead. Every response is checked against the library
// reference after the load has stopped.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "recommender/psvd.h"
#include "serve/protocol.h"
#include "serve/serve_metrics.h"
#include "serve/service_shard.h"
#include "serve/session_overlay.h"
#include "serve/shard_router.h"
#include "serve/topn_store.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace perfbench {
namespace {

// Connections of the one client process (nproc on the reference host).
constexpr int kConnections = 4;
// Operations of the stream prefix replayed in-process by the traced run.
constexpr size_t kReplayOps = 2000;
constexpr int kRounds = 8;
constexpr int kMaxRungs = 10;

using ganc::MetricsSnapshot;
using ganc::MetricValue;

// ---------------------------------------------------------------------------
// Request stream

struct StreamSpec {
  bool activity_weighted = false;  ///< hot_mixed: users by train activity
  double session_prob = 0.0;       ///< share of draws that become a session op
};

std::vector<Op> MakeStream(const StreamSpec& spec, const ganc::RatingDataset& train,
                           Reference& ref, uint64_t seed, size_t count) {
  ganc::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5eedULL);
  std::unique_ptr<ganc::AliasSampler> by_activity;
  if (spec.activity_weighted) {
    std::vector<double> w(static_cast<size_t>(train.num_users()));
    for (UserId u = 0; u < train.num_users(); ++u) {
      w[static_cast<size_t>(u)] = static_cast<double>(train.ItemsOf(u).size());
    }
    by_activity = std::make_unique<ganc::AliasSampler>(w);
  }
  std::vector<Op> ops(count);
  std::vector<const Op*> session_ops;
  for (size_t k = 0; k < count; ++k) {
    Op& op = ops[k];
    op.user = by_activity != nullptr
                  ? static_cast<UserId>(by_activity->Sample(&rng))
                  : static_cast<UserId>(rng.UniformInt(
                        static_cast<uint64_t>(train.num_users())));
    op.session = spec.session_prob > 0 && rng.Bernoulli(spec.session_prob);
    if (op.session) session_ops.push_back(&op);
  }
  // A session consumes the two best items of the user's plain list, so
  // its TOPN must come back different from the cached/stored one.
  std::vector<Op> plain;
  std::vector<const Op*> plain_ptrs;
  plain.reserve(session_ops.size());
  for (const Op* op : session_ops) {
    Op p;
    p.user = op->user;
    plain.push_back(std::move(p));
  }
  for (const Op& op : plain) plain_ptrs.push_back(&op);
  ref.Precompute(plain_ptrs, 4);
  for (size_t k = 0; k < count; ++k) {
    Op& op = ops[k];
    const std::string user = std::to_string(op.user);
    if (!op.session) {
      op.lines = {"TOPN user=" + user + " n=10"};
      continue;
    }
    const std::vector<ItemId> list = ref.ListFor(op.user, {});
    op.consumed.assign(list.begin(), list.begin() + std::min<size_t>(2, list.size()));
    std::sort(op.consumed.begin(), op.consumed.end());
    op.session_id = "s" + std::to_string(k);
    std::string items;
    for (const ItemId i : op.consumed) {
      if (!items.empty()) items.push_back(',');
      items += std::to_string(i);
    }
    op.lines = {"CONSUME session=" + op.session_id + " user=" + user +
                    " items=" + items,
                "TOPN user=" + user + " n=10 session=" + op.session_id};
  }
  return ops;
}

// ---------------------------------------------------------------------------
// Connections

int Connect(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) Die("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Die("connect to port " + std::to_string(port) + ": " + strerror(errno));
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = write(fd, data.data() + off, data.size() - off);
    if (n <= 0) Die("socket write failed");
    off += static_cast<size_t>(n);
  }
}

/// Synchronous request/response on a dedicated control connection.
class Control {
 public:
  explicit Control(int port) : fd_(Connect(port)) {}
  ~Control() { close(fd_); }
  Control(const Control&) = delete;
  Control& operator=(const Control&) = delete;

  std::string Ask(const std::string& line) {
    WriteAll(fd_, line + "\n");
    for (;;) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string out = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return out;
      }
      char tmp[65536];
      const ssize_t n = read(fd_, tmp, sizeof(tmp));
      if (n <= 0) Die("control connection closed");
      buf_.append(tmp, static_cast<size_t>(n));
    }
  }

  MetricsSnapshot Metrics() {
    const std::string resp = Ask("METRICSNAP");
    static const std::string kPrefix = "OK metricsnap ";
    if (resp.rfind(kPrefix, 0) != 0) Die("bad METRICSNAP: " + resp.substr(0, 80));
    ganc::Result<MetricsSnapshot> snap =
        MetricsSnapshot::Parse(std::string_view(resp).substr(kPrefix.size()));
    Check(snap.status(), "parse METRICSNAP");
    return std::move(snap).value();
  }

 private:
  int fd_;
  std::string buf_;
};

uint64_t ParseField(const std::string& line, const std::string& key) {
  const size_t pos = line.find(" " + key + "=");
  if (pos == std::string::npos) return 0;
  return std::strtoull(line.c_str() + pos + key.size() + 2, nullptr, 10);
}

// ---------------------------------------------------------------------------
// Phases

struct LineRecord {
  size_t op = 0;
  size_t line = 0;
  uint64_t due_ns = 0;
  uint64_t sent_ns = 0;
  uint64_t recv_ns = 0;
  bool received = false;
  std::string response;
};

struct PhaseSpec {
  std::string name;
  double rate = 0;          ///< open loop: ops per second
  double seconds = 0;       ///< open loop: schedule length
  size_t closed_ops = 0;    ///< closed loop: ops to complete
  size_t window = 16;       ///< closed loop: lines in flight per connection
  double abort_backlog = 0; ///< open loop: stop sending past this many in flight
};

struct PhaseResult {
  std::string name;
  double rate = 0;
  size_t first_op = 0;
  size_t ops_sent = 0;
  size_t lines_sent = 0;
  size_t lines_received = 0;
  bool aborted = false;
  double elapsed_s = 0;
  std::vector<LineRecord> records;
  /// Filled by Verify: latencies (ms) of correct responses, failures.
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  size_t failed = 0;
  double tail_p50_ms = 0;  ///< p50 over the last 10% of the schedule

  double Achieved() const {
    return elapsed_s > 0 ? static_cast<double>(lines_received) / elapsed_s : 0;
  }
};

class Client {
 public:
  Client(int port, int conns, std::vector<Op>* ops)
      : ops_(ops), fifo_(static_cast<size_t>(conns)), mu_(static_cast<size_t>(conns)) {
    for (int c = 0; c < conns; ++c) fds_.push_back(Connect(port));
  }
  ~Client() {
    for (const int fd : fds_) close(fd);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  size_t cursor() const { return cursor_; }

  PhaseResult Run(const PhaseSpec& spec) {
    PhaseResult r;
    r.name = spec.name;
    r.rate = spec.rate;
    r.first_op = cursor_;
    const bool closed = spec.closed_ops > 0;
    const size_t max_ops =
        closed ? spec.closed_ops
               : static_cast<size_t>(std::ceil(spec.rate * spec.seconds));
    r.records.resize(max_ops * 2);
    records_ = &r.records;
    in_flight_.assign(fds_.size(), 0);
    done_ = false;
    std::thread receiver([this] { Receive(); });

    const uint64_t t0 = NowNs() + 2000000;  // 2 ms to settle
    size_t next = 0;
    for (size_t k = 0; k < max_ops; ++k) {
      const size_t c = (cursor_ + k) % fds_.size();
      uint64_t due = 0;
      if (closed) {
        std::unique_lock<std::mutex> lock(wait_mu_);
        wait_cv_.wait(lock, [&] { return in_flight_[c] < spec.window; });
        due = NowNs();
      } else {
        due = t0 + static_cast<uint64_t>(static_cast<double>(k) * 1e9 / spec.rate);
        SleepUntil(due);
        if (spec.abort_backlog > 0 && TotalInFlight() > spec.abort_backlog) {
          r.aborted = true;
          break;
        }
      }
      const size_t op_index = (cursor_ + k) % ops_->size();
      const Op& op = (*ops_)[op_index];
      std::string payload;
      {
        std::lock_guard<std::mutex> lock(mu_[c]);
        for (size_t l = 0; l < op.lines.size(); ++l) {
          LineRecord& rec = r.records[next];
          rec.op = op_index;
          rec.line = l;
          rec.due_ns = due;
          fifo_[c].push_back(next++);
          payload += op.lines[l];
          payload.push_back('\n');
        }
      }
      {
        std::lock_guard<std::mutex> lock(wait_mu_);
        in_flight_[c] += op.lines.size();
      }
      const uint64_t sent = NowNs();
      for (size_t i = next - op.lines.size(); i < next; ++i) r.records[i].sent_ns = sent;
      WriteAll(fds_[c], payload);
      ++r.ops_sent;
    }
    r.lines_sent = next;
    // Drain: every sent line must be answered before the next phase, or
    // the per-connection FIFOs would pair responses with wrong requests.
    {
      std::unique_lock<std::mutex> lock(wait_mu_);
      const bool drained = wait_cv_.wait_for(lock, std::chrono::seconds(30), [&] {
        return TotalInFlightLocked() == 0;
      });
      if (!drained) Die("phase " + spec.name + ": responses missing after 30 s");
    }
    done_ = true;
    receiver.join();
    r.records.resize(next);
    uint64_t last = t0;
    for (const LineRecord& rec : r.records) last = std::max(last, rec.recv_ns);
    r.elapsed_s = static_cast<double>(last - (closed ? r.records.front().due_ns : t0)) / 1e9;
    r.lines_received = r.records.size();
    cursor_ += r.ops_sent;
    records_ = nullptr;
    return r;
  }

 private:
  static void SleepUntil(uint64_t ns) {
    timespec ts{static_cast<time_t>(ns / 1000000000ULL),
                static_cast<long>(ns % 1000000000ULL)};
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
    }
  }

  size_t TotalInFlightLocked() const {
    size_t total = 0;
    for (const size_t n : in_flight_) total += n;
    return total;
  }
  double TotalInFlight() {
    std::lock_guard<std::mutex> lock(wait_mu_);
    return static_cast<double>(TotalInFlightLocked());
  }

  void Receive() {
    std::vector<std::string> bufs(fds_.size());
    std::vector<pollfd> pfds;
    for (const int fd : fds_) pfds.push_back({fd, POLLIN, 0});
    char tmp[65536];
    while (!done_) {
      if (poll(pfds.data(), pfds.size(), 20) <= 0) continue;
      for (size_t c = 0; c < fds_.size(); ++c) {
        if ((pfds[c].revents & POLLIN) == 0) continue;
        const ssize_t n = read(fds_[c], tmp, sizeof(tmp));
        if (n <= 0) Die("server closed a connection");
        // Acknowledge at once. With delayed ACKs a pipelined connection can
        // fall into a stable state where the server (no TCP_NODELAY) holds
        // each response until the next request carries the ACK of the
        // previous one; the benchmark measures the server, not that state
        // (see perfbench/README.md, "Findings").
        const int one = 1;
        setsockopt(fds_[c], IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
        const uint64_t now = NowNs();
        bufs[c].append(tmp, static_cast<size_t>(n));
        size_t start = 0, nl;
        size_t completed = 0;
        while ((nl = bufs[c].find('\n', start)) != std::string::npos) {
          size_t idx;
          {
            std::lock_guard<std::mutex> lock(mu_[c]);
            if (fifo_[c].empty()) Die("unsolicited response");
            idx = fifo_[c].front();
            fifo_[c].pop_front();
          }
          LineRecord& rec = (*records_)[idx];
          rec.recv_ns = now;
          rec.received = true;
          rec.response.assign(bufs[c], start, nl - start);
          start = nl + 1;
          ++completed;
        }
        bufs[c].erase(0, start);
        if (completed > 0) {
          std::lock_guard<std::mutex> lock(wait_mu_);
          in_flight_[c] -= completed;
          wait_cv_.notify_all();
        }
      }
    }
  }

  std::vector<Op>* ops_;
  std::vector<int> fds_;
  std::vector<std::deque<size_t>> fifo_;
  std::vector<std::mutex> mu_;
  std::vector<LineRecord>* records_ = nullptr;
  std::mutex wait_mu_;
  std::condition_variable wait_cv_;
  std::vector<size_t> in_flight_;
  std::atomic<bool> done_{false};
  size_t cursor_ = 0;
};

// Checks every response of `r` against the reference, counts wrong,
// refused and missing ones in r.failed and fills the latency sample.
void Verify(PhaseResult& r, const std::vector<Op>& ops, Reference& ref) {
  r.latency_ms.clear();
  r.late_ms.clear();
  r.failed = 0;
  std::vector<double> tail;
  const size_t tail_from = r.records.size() - r.records.size() / 10;
  for (size_t i = 0; i < r.records.size(); ++i) {
    const LineRecord& rec = r.records[i];
    const Op& op = ops[rec.op];
    const bool ok = rec.received && rec.response == ref.Expected(op, rec.line);
    if (!ok) {
      if (r.failed < 3) {
        std::fprintf(stderr, "perfbench: mismatch in %s: sent '%s' got '%s' want '%s'\n",
                     r.name.c_str(), op.lines[rec.line].c_str(),
                     rec.response.c_str(), ref.Expected(op, rec.line).c_str());
      }
      ++r.failed;
      continue;
    }
    const double ms = static_cast<double>(rec.recv_ns - rec.due_ns) / 1e6;
    r.latency_ms.push_back(ms);
    r.late_ms.push_back(static_cast<double>(rec.sent_ns - rec.due_ns) / 1e6);
    if (i >= tail_from) tail.push_back(ms);
  }
  r.tail_p50_ms = Quantile(tail, 0.5);
}

/// Verify after filling the reference for the phase's ops in parallel.
void VerifyPhase(PhaseResult& r, const std::vector<Op>& ops, Reference& ref) {
  std::vector<const Op*> sent;
  for (size_t i = 0; i < r.ops_sent; ++i) {
    sent.push_back(&ops[(r.first_op + i) % ops.size()]);
  }
  ref.Precompute(sent, 4);
  Verify(r, ops, ref);
}

/// A rung meets the SLO when nothing failed, the generator never had to
/// stop for a growing backlog, the p50 of its last 10% is within the
/// limit, and at least two of its three consecutive thirds have their p99
/// within the limit (one contention burst on the host fails one third).
bool MeetsSlo(const PhaseResult& r, double slo_ms) {
  if (r.aborted || r.failed > 0 || r.tail_p50_ms > slo_ms) return false;
  return ThirdsMeetLimit(r.latency_ms, slo_ms);
}

// ---------------------------------------------------------------------------
// Server-side metric deltas (METRICSNAP before/after a phase)

struct Delta {
  const MetricsSnapshot& after;
  const MetricsSnapshot& before;

  double Count(const std::string& name) const {
    return static_cast<double>(after.CounterValue(name) - before.CounterValue(name));
  }
  MetricValue Hist(const std::string& name) const {
    MetricValue v;
    v.kind = ganc::MetricKind::kHistogram;
    const MetricValue* a = after.Find(name);
    const MetricValue* b = before.Find(name);
    if (a == nullptr) return v;
    v.buckets = a->buckets;
    v.u64 = a->u64;
    v.sum = a->sum;
    if (b != nullptr) {
      for (size_t i = 0; i < v.buckets.size() && i < b->buckets.size(); ++i) {
        v.buckets[i] -= b->buckets[i];
      }
      v.u64 -= b->u64;
      v.sum -= b->sum;
    }
    return v;
  }
  double Mean(const std::string& name) const {
    const MetricValue h = Hist(name);
    return h.u64 == 0 ? 0.0 : static_cast<double>(h.sum) / static_cast<double>(h.u64);
  }
  /// p50/p99/count of a nanosecond histogram, scaled by `scale`.
  void Timing(Json& j, const std::string& prefix, const std::string& name,
              double scale) const {
    const MetricValue h = Hist(name);
    j.Num(prefix + ".p50", ganc::HistogramQuantile(h, 0.5) * scale);
    j.Num(prefix + ".p99", ganc::HistogramQuantile(h, 0.99) * scale);
    j.Num(prefix + ".count", static_cast<double>(h.u64));
  }
};

double Ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

// ---------------------------------------------------------------------------
// In-process traced replay: ParseServeRequest -> ShardRouter::TopNInto ->
// FormatTopNResponse, with spans around each call and the service's own
// stage histograms read before and after every routed request.

struct ReplayResult {
  std::vector<double> e2e_us, parse_ns, format_ns, route_ns, consume_us;
  std::vector<double> cache_probe_us, store_probe_us, score_us;
  size_t failed = 0;
};

struct StageSums {
  uint64_t request = 0, cache_probe = 0, store_probe = 0, score = 0;
};

StageSums ReadStages(const std::vector<ganc::ServeInstruments>& inst) {
  StageSums s;
  for (const ganc::ServeInstruments& i : inst) {
    s.request += i.request_ns->Sum();
    s.cache_probe += i.cache_probe_ns->Sum();
    s.store_probe += i.store_probe_ns->Sum();
    s.score += i.score_ns->Sum();
  }
  return s;
}

ReplayResult Replay(const std::vector<Op>& ops, size_t count, bool traced,
                    const std::string& pipeline_path, const std::string& store_path,
                    size_t shards, const ganc::RatingDataset& train,
                    Reference& ref, SpanLog* spans) {
  ganc::Result<std::unique_ptr<ganc::ShardRouter>> router = ganc::ShardRouter::Load(
      ganc::SnapshotKind::kPipeline, pipeline_path, train, shards, ganc::ServiceConfig{});
  Check(router.status(), "replay router");
  if (!store_path.empty()) {
    ganc::Result<ganc::TopNStore> store = ganc::TopNStore::LoadFileAuto(store_path, true);
    Check(store.status(), "replay store");
    Check((*router)->AttachStore(
              std::make_shared<const ganc::TopNStore>(std::move(store).value())),
          "attach store");
  }
  std::vector<ganc::ServeInstruments> inst;
  std::set<ganc::MetricsRegistry*> registries;
  for (size_t s = 0; s < (*router)->num_shards(); ++s) {
    registries.insert((*router)->shard(s).metrics_registry());
  }
  for (ganc::MetricsRegistry* reg : registries) {
    inst.push_back(ganc::ServeInstruments::Resolve(*reg));
  }
  ganc::SessionRegistry sessions;
  ReplayResult r;
  uint64_t request_id = 0;
  std::vector<ItemId> items, exclusions;
  for (size_t k = 0; k < count && k < ops.size(); ++k) {
    const Op& op = ops[k];
    for (size_t l = 0; l < op.lines.size(); ++l) {
      ++request_id;
      const std::string& line = op.lines[l];
      std::string response;
      const uint64_t t0 = NowNs();
      ganc::Result<ganc::ServeRequest> req = ganc::ParseServeRequest(line);
      const uint64_t t_parsed = NowNs();
      if (!req.ok()) Die("replay parse: " + line);
      uint64_t t_route = 0, t_routed = 0, t_formatted = 0;
      StageSums before, after;
      if (req->command == ganc::ServeCommand::kConsume) {
        sessions.MarkConsumed(req->session, req->user, req->items);
        t_routed = NowNs();
        response = ganc::FormatOk("consumed=" + std::to_string(req->items.size()));
        t_formatted = NowNs();
        if (traced) r.consume_us.push_back((t_routed - t_parsed) / 1e3);
      } else {
        std::span<const ItemId> excl = req->items;
        if (!req->session.empty()) {
          sessions.CollectExclusions(req->session, req->user, req->items, &exclusions);
          excl = exclusions;
        }
        if (traced) before = ReadStages(inst);
        t_route = NowNs();
        const ganc::Status s = (*router)->TopNInto(req->user, req->n, excl, &items);
        t_routed = NowNs();
        if (traced) after = ReadStages(inst);
        if (!s.ok()) Die("replay TopNInto: " + s.ToString());
        const uint64_t t_format = NowNs();
        response = ganc::FormatTopNResponse(req->user, req->n, items);
        t_formatted = NowNs();
        if (traced) {
          const double service_ns = static_cast<double>(after.request - before.request);
          r.route_ns.push_back(static_cast<double>(t_routed - t_route) - service_ns);
          r.format_ns.push_back(static_cast<double>(t_formatted - t_format));
          r.cache_probe_us.push_back((after.cache_probe - before.cache_probe) / 1e3);
          r.store_probe_us.push_back((after.store_probe - before.store_probe) / 1e3);
          r.score_us.push_back((after.score - before.score) / 1e3);
          spans->Add({"serve.router.TopNInto", request_id, "request", t_route, t_routed});
          spans->Add({"serve.protocol.FormatTopNResponse", request_id, "request",
                      t_format, t_formatted});
        }
      }
      const uint64_t t1 = NowNs();
      r.e2e_us.push_back((t1 - t0) / 1e3);
      if (traced) {
        r.parse_ns.push_back(static_cast<double>(t_parsed - t0));
        if (req->command == ganc::ServeCommand::kConsume) {
          r.format_ns.push_back(static_cast<double>(t_formatted - t_routed));
          r.route_ns.push_back(0);
          r.cache_probe_us.push_back(0);
          r.store_probe_us.push_back(0);
          r.score_us.push_back(0);
          spans->Add({"serve.session.MarkConsumed", request_id, "request", t_parsed,
                      t_routed});
        } else {
          r.consume_us.push_back(0);
        }
        spans->Add({"request", request_id, "", t0, t1});
        spans->Add({"serve.protocol.ParseServeRequest", request_id, "request", t0,
                    t_parsed});
      }
      if (response != ref.Expected(op, l)) ++r.failed;
    }
  }
  return r;
}

}  // namespace

// ---------------------------------------------------------------------------

int RunServe(const ganc::Flags& flags) {
  const std::string workload = FlagString(flags, "workload");
  const int port = static_cast<int>(FlagInt(flags, "port", 0));
  const uint64_t seed = static_cast<uint64_t>(FlagInt(flags, "seed", 1));
  const double kappa = FlagDouble(flags, "kappa", 0.8);
  const double seconds = FlagDouble(flags, "seconds", 10);
  const bool trace = FlagInt(flags, "trace", 0) != 0;
  const size_t shards = static_cast<size_t>(FlagInt(flags, "shards", 1));
  const double ref_rate = FlagDouble(flags, "ref-rate", 1000);
  const double slo_ms = FlagDouble(flags, "slo-ms", 5);
  const size_t quality_ops = static_cast<size_t>(FlagInt(flags, "quality-ops", 6000));
  const std::string pipeline_path = FlagString(flags, "pipeline");
  const std::string publish_path = FlagString(flags, "publish");
  const std::string store_path = flags.GetString("store", "");
  const std::string spans_path = flags.GetString("spans", "");

  const uint64_t load_start = NowNs();
  ganc::TrainTestSplit split = LoadSplit(FlagString(flags, "dataset-cache"), kappa, seed);
  const double load_split_s = (NowNs() - load_start) / 1e9;
  ganc::Result<std::unique_ptr<ganc::GancPipeline>> pipeline =
      ganc::GancPipeline::LoadFile(pipeline_path, split.train);
  Check(pipeline.status(), "load pipeline");
  Reference ref(**pipeline, split.train);

  StreamSpec spec;
  if (workload == "serve_hot_mixed") {
    spec.activity_weighted = true;
    spec.session_prob = 0.055;  // pairs of lines: ~10% of operations
  } else if (workload != "serve_live") {
    Die("unknown serving workload " + workload);
  }
  // The client walks the stream in order and wraps around at its end;
  // this length covers every phase up to ~10k requests per second.
  const size_t stream_len = 2000 + quality_ops + static_cast<size_t>(12000 * seconds);
  std::vector<Op> ops = MakeStream(spec, split.train, ref, seed, stream_len);

  Control control(port);
  Client client(port, kConnections, &ops);
  std::vector<PhaseResult> phases;

  // Warm-up: mapped rows, caches and the batcher reach steady state.
  phases.push_back(client.Run({.name = "warmup", .closed_ops = 2000}));

  // Rounds: each a closed-loop saturation part (a fixed amount of work
  // as fast as the server takes it) and an open-loop window at the fixed
  // reference rate, so a contention burst on the host moves only the
  // rounds it overlaps. p50/p99 are medians over the windows; the
  // saturation rate is all parts' lines over all their time, which
  // averages the micro-batcher's swings between fill regimes. The
  // saturation lists are also the quality sample.
  MetricsSnapshot ref_before, ref_after;
  if (trace) ref_before = control.Metrics();
  double sat_lines = 0, sat_seconds = 0;
  std::vector<double> ref_p50, ref_p99;
  std::vector<size_t> ref_phases;
  for (int round = 0; round < kRounds; ++round) {
    phases.push_back(client.Run({.name = "saturation" + std::to_string(round),
                                 .closed_ops = quality_ops / kRounds}));
    sat_lines += static_cast<double>(phases.back().lines_sent);
    sat_seconds += phases.back().elapsed_s;
    ref_phases.push_back(phases.size());
    phases.push_back(client.Run({.name = "reference" + std::to_string(round),
                                 .rate = ref_rate,
                                 .seconds = std::max(0.1 * seconds, 500 / ref_rate),
                                 .abort_backlog = 1e9}));
  }
  if (trace) ref_after = control.Metrics();
  const double users_per_s = sat_lines / sat_seconds;

  // The SLO ladder (LadderWalk), one 0.1*T phase per rung.
  const double qps_at_slo = LadderWalk(users_per_s, kMaxRungs, [&](double rate, double* achieved) {
    PhaseResult r = client.Run({.name = "ladder" + std::to_string(phases.size()),
                                .rate = rate,
                                .seconds = 0.1 * seconds,
                                .abort_backlog = std::max(64.0, rate * slo_ms * 4e-3)});
    VerifyPhase(r, ops, ref);
    const bool pass = MeetsSlo(r, slo_ms);
    *achieved = r.Achieved();
    phases.push_back(std::move(r));
    return pass;
  });

  // Publish: three PUBLISHes of a same-corpus artifact under load at the
  // reference rate; each is timed until every shard answers TOPNV with
  // a newer version, and the median is reported.
  std::vector<UserId> probe_users;
  for (size_t s = 0; s < shards; ++s) {
    for (UserId u = 0; u < split.train.num_users(); ++u) {
      if (ganc::ShardForUser(u, shards) == s) {
        probe_users.push_back(u);
        break;
      }
    }
  }
  std::vector<double> publishes;
  std::string publish_error;
  MetricsSnapshot pub_before, pub_after;
  if (trace) pub_before = control.Metrics();
  {
    const double pub_phase_s = 0.15 * seconds;
    std::thread publisher([&] {
      for (int i = 0; i < 3; ++i) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(static_cast<int64_t>(pub_phase_s * 0.2e6)));
        std::vector<uint64_t> old_versions;
        for (const UserId u : probe_users) {
          old_versions.push_back(
              ParseField(control.Ask("TOPNV user=" + std::to_string(u)), "version"));
        }
        const uint64_t t0 = NowNs();
        const std::string resp = control.Ask("PUBLISH path=" + publish_path);
        if (resp.rfind("OK", 0) != 0) publish_error = resp;
        for (size_t j = 0; j < probe_users.size(); ++j) {
          for (int tries = 0; tries < 100000; ++tries) {
            const std::string v =
                control.Ask("TOPNV user=" + std::to_string(probe_users[j]));
            if (ParseField(v, "version") > old_versions[j]) break;
          }
        }
        publishes.push_back((NowNs() - t0) / 1e9);
      }
    });
    phases.push_back(client.Run({.name = "publish",
                                 .rate = ref_rate,
                                 .seconds = pub_phase_s,
                                 .abort_backlog = 1e9}));
    publisher.join();
  }
  if (trace) pub_after = control.Metrics();
  const double publish_s = Quantile(publishes, 0.5);

  // Correctness: every served line against the library reference.
  size_t attempted = 0, failed = publish_error.empty() ? 0 : 1;
  Json phase_json;
  for (PhaseResult& p : phases) {
    if (p.name.rfind("ladder", 0) != 0) VerifyPhase(p, ops, ref);
    attempted += p.lines_sent;
    failed += p.failed;
    Json pj;
    pj.Num("offered_rate", p.rate)
        .Num("achieved_rate", p.Achieved())
        .Num("sent", static_cast<double>(p.lines_sent))
        .Num("succeeded", static_cast<double>(p.lines_sent - p.failed))
        .Num("failed", static_cast<double>(p.failed))
        .Num("p50_ms", Quantile(p.latency_ms, 0.5))
        .Num("p99_ms", Quantile(p.latency_ms, 0.99))
        .Num("gen_late_ms_p99", Quantile(p.late_ms, 0.99))
        .Num("aborted", p.aborted ? 1 : 0);
    phase_json.Obj(p.name, pj);
  }
  attempted += publishes.size();

  // Quality of the served lists in the saturation sample.
  std::map<UserId, std::vector<ItemId>> lists;
  for (const PhaseResult& p : phases) {
    if (p.name.rfind("saturation", 0) != 0) continue;
    for (size_t i = 0; i < p.ops_sent; ++i) {
      const Op& op = ops[(p.first_op + i) % ops.size()];
      if (!op.session) lists.emplace(op.user, ref.ListFor(op.user, {}));
    }
  }
  const Quality q = ListQuality(split.train, split.test, lists, 10);

  std::vector<double> ref_all;
  for (const size_t i : ref_phases) {
    ref_p50.push_back(Quantile(phases[i].latency_ms, 0.5));
    ref_p99.push_back(Quantile(phases[i].latency_ms, 0.99));
    ref_all.insert(ref_all.end(), phases[i].latency_ms.begin(), phases[i].latency_ms.end());
  }
  Json m;
  m.Num("users_per_s", users_per_s)
      .Num("qps_at_slo", qps_at_slo)
      .Num("p50_ms", Quantile(ref_p50, 0.5))
      .Num("p99_ms", Quantile(ref_p99, 0.5))
      .Num("latency_samples", static_cast<double>(ref_all.size()))
      .Num("publish_s", publish_s)
      .Num("novelty_bits", q.novelty_bits)
      .Num("tail_coverage", q.tail_coverage)
      .Num("f_at_n", q.f_at_n)
      .Num("quality_lists", static_cast<double>(q.lists))
      .Num("client_rss_mb", PeakRssMb());

  Json layers;
  if (trace) {
    const Delta d{ref_after, ref_before};
    const double requests = d.Count("serve_requests_total");
    const double batches = d.Count("serve_batches_total");
    layers.Num("serve.cache.hit_ratio", Ratio(d.Count("serve_cache_hits_total"), requests))
        .Num("serve.store.hit_ratio", Ratio(d.Count("serve_store_hits_total"), requests))
        .Num("serve.live_ratio", Ratio(d.Count("serve_live_scored_total"), requests))
        .Num("serve.batcher.fill", Ratio(d.Count("serve_batched_requests_total"), batches))
        .Num("serve.batcher.waited_flush_ratio",
             Ratio(d.Count("serve_waited_flushes_total"), batches))
        .Num("serve.batcher.wait_us",
             std::max(0.0, d.Mean("serve_score_ns") - d.Mean("serve_kernel_ns") -
                               d.Mean("serve_select_ns")) / 1e3);
    d.Timing(layers, "serve.cache.probe_ns", "serve_cache_probe_ns", 1.0);
    d.Timing(layers, "serve.store.probe_ns", "serve_store_probe_ns", 1.0);
    d.Timing(layers, "recommender.kernel.block_us", "serve_kernel_ns", 1e-3);
    d.Timing(layers, "core.ganc.select_us", "serve_select_ns", 1e-3);
    d.Timing(layers, "serve.service.topn_us", "serve_request_ns", 1e-3);
    const MetricValue req_hist = d.Hist("serve_request_ns");
    layers.Num("tools.serve.outside_us.p50",
               Quantile(ref_all, 0.5) * 1e3 - ganc::HistogramQuantile(req_hist, 0.5) / 1e3)
        .Num("tools.serve.outside_us.p99",
             Quantile(ref_all, 0.99) * 1e3 - ganc::HistogramQuantile(req_hist, 0.99) / 1e3);
    // Bytes one scoring block reads and writes, from the factor tables:
    // the item table once, plus a user row and a dense score row per user.
    double item_row = 0;
    if (const auto* psvd = dynamic_cast<const ganc::PsvdRecommender*>(&(*pipeline)->base())) {
      const ganc::FactorPrecision precision = psvd->factor_precision();
      const double elem = precision == ganc::FactorPrecision::kFp64   ? 8.0
                          : precision == ganc::FactorPrecision::kFp32 ? 4.0
                                                                      : 1.0;
      item_row = static_cast<double>(psvd->singular_values().size()) * elem;
    }
    const double items = split.train.num_items();
    const double fill = Ratio(d.Count("serve_batched_requests_total"), batches);
    layers.Num("recommender.kernel.bytes_per_block",
               items * item_row + fill * (item_row + items * 8.0));
    const Delta pd{pub_after, pub_before};
    layers.Num("serve.swap.load_ms", pd.Mean("serve_publish_ns") / 1e6)
        .Num("serve.swap.load_ms.count", pd.Hist("serve_publish_ns").u64);

    // In-process replay of the stream prefix: untraced and traced passes
    // alternate, each on a fresh router so every pass starts from the
    // same cold cache.
    SpanLog spans;
    ReplayResult plain, traced;
    for (int pass = 0; pass < 4; ++pass) {
      const bool on = pass % 2 == 1;
      ReplayResult r = Replay(ops, kReplayOps, on, pipeline_path, store_path, shards,
                              split.train, ref, &spans);
      failed += r.failed;
      attempted += r.e2e_us.size();
      ReplayResult& into = on ? traced : plain;
      for (auto [dst, src] : {std::pair{&into.e2e_us, &r.e2e_us}, {&into.parse_ns, &r.parse_ns},
                              {&into.format_ns, &r.format_ns}, {&into.route_ns, &r.route_ns},
                              {&into.consume_us, &r.consume_us},
                              {&into.cache_probe_us, &r.cache_probe_us},
                              {&into.store_probe_us, &r.store_probe_us},
                              {&into.score_us, &r.score_us}}) {
        dst->insert(dst->end(), src->begin(), src->end());
      }
    }
    AddTiming(layers, "serve.protocol.parse_ns", traced.parse_ns);
    AddTiming(layers, "serve.protocol.format_ns", traced.format_ns);
    AddTiming(layers, "serve.router.route_ns", traced.route_ns);
    std::vector<double> consumes;
    for (const double v : traced.consume_us) {
      if (v > 0) consumes.push_back(v);
    }
    AddTiming(layers, "serve.session.consume_us", consumes);
    // Closure: the p50s of the measured stages on the blocking path
    // against the traced end-to-end p50.
    const double e2e_p50 = Quantile(traced.e2e_us, 0.5);
    const double stage_sum = Quantile(traced.parse_ns, 0.5) / 1e3 +
                             Quantile(traced.route_ns, 0.5) / 1e3 +
                             Quantile(traced.cache_probe_us, 0.5) +
                             Quantile(traced.store_probe_us, 0.5) +
                             Quantile(traced.score_us, 0.5) +
                             Quantile(traced.format_ns, 0.5) / 1e3 +
                             Quantile(traced.consume_us, 0.5);
    layers.Num("trace.e2e_p50_us", e2e_p50)
        .Num("trace.untraced_p50_us", Quantile(plain.e2e_us, 0.5))
        .Num("trace.overhead_us", e2e_p50 - Quantile(plain.e2e_us, 0.5))
        .Num("trace.stage_sum_p50_us", stage_sum)
        .Num("trace.closure_error", std::abs(stage_sum - e2e_p50) / e2e_p50)
        .Num("trace.spans", static_cast<double>(spans.size()));
    if (!spans_path.empty()) spans.WriteJsonl(spans_path);
  }
  layers.Num("data.load_split_s", load_split_s);

  Json out;
  out.Num("attempted", static_cast<double>(attempted))
      .Num("failed", static_cast<double>(failed))
      .Obj("metrics", m)
      .Obj("layers", layers)
      .Obj("phases", phase_json);
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

}  // namespace perfbench
