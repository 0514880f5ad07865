// Shared pieces of the perfbench tool: flag access, the seeded
// workload streams, the library reference every served list is checked
// against, list-quality metrics, span recording and a flat JSON writer.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/coverage.h"
#include "core/pipeline.h"
#include "data/dataset.h"
#include "data/split.h"
#include "util/flags.h"
#include "util/status.h"

namespace perfbench {

using ganc::ItemId;
using ganc::UserId;

/// Aborts the tool with a message (benchmark inputs are generated, so
/// any failure here is a bug or a broken build, never a measurement).
[[noreturn]] void Die(const std::string& what);
void Check(const ganc::Status& s, const std::string& what);

std::string FlagString(const ganc::Flags& f, const std::string& name);
int64_t FlagInt(const ganc::Flags& f, const std::string& name, int64_t def);
double FlagDouble(const ganc::Flags& f, const std::string& name, double def);

/// Wall time for spans and latencies.
uint64_t NowNs();
double ProcessCpuSeconds();
/// Peak resident set of this process (VmHWM), MiB.
double PeakRssMb();

/// Nearest-rank quantile of an unsorted sample (copied); 0 when empty.
double Quantile(std::vector<double> v, double q);

/// Dataset cache -> per-user 80/20 split, with the split seed the CLI
/// uses for the same flags.
ganc::TrainTestSplit LoadSplit(const std::string& cache, double kappa,
                               uint64_t seed);

/// One request of a serving workload. A session op is a CONSUME of
/// `consumed` followed, on the same connection, by a TOPN in that
/// session; a plain op is a single TOPN.
struct Op {
  UserId user = 0;
  bool session = false;
  std::vector<ItemId> consumed;
  std::string session_id;
  /// Request lines in send order (1 or 2).
  std::vector<std::string> lines;
};

/// The library reference: GancPipeline::RecommendForUser, with a
/// session's consumed items removed from the candidate set exactly as
/// the serving path masks exclusions. Thread-safe and memoized.
class Reference {
 public:
  Reference(const ganc::GancPipeline& pipeline, const ganc::RatingDataset& train);
  std::vector<ItemId> ListFor(UserId u, const std::vector<ItemId>& excluded);
  /// Fills the memo for every op's (user, exclusions) across `threads`.
  void Precompute(const std::vector<const Op*>& ops, int threads);
  /// Expected response line for line `k` of `op`.
  std::string Expected(const Op& op, size_t k);

 private:
  std::vector<ItemId> Compute(UserId u, const std::vector<ItemId>& excluded) const;
  static std::string Key(UserId u, const std::vector<ItemId>& excluded);

  const ganc::GancPipeline& pipeline_;
  const ganc::RatingDataset& train_;
  std::unique_ptr<ganc::CoverageModel> coverage_;
  std::mutex mu_;
  std::unordered_map<std::string, std::vector<ItemId>> memo_;
};

/// The paper's trade-off over a set of lists (one per distinct user).
struct Quality {
  double novelty_bits = 0;   ///< mean -log2 smoothed train popularity
  double tail_coverage = 0;  ///< distinct long-tail items / long-tail items
  double f_at_n = 0;         ///< F@N against the held-out split
  size_t lists = 0;
};
Quality ListQuality(const ganc::RatingDataset& train,
                    const ganc::RatingDataset& test,
                    const std::map<UserId, std::vector<ItemId>>& lists,
                    int top_n);

/// Spans kept in memory, written out when the tool ends.
struct Span {
  std::string name;
  uint64_t request = 0;  ///< spans of one request share this id
  std::string parent;    ///< name of the enclosing span ("" = root)
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};
class SpanLog {
 public:
  void Add(Span s) { spans_.push_back(std::move(s)); }
  void WriteJsonl(const std::string& path) const;
  size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
};

/// Flat JSON object writer: numbers and nested objects.
class Json {
 public:
  Json& Num(const std::string& k, double v);
  Json& Obj(const std::string& k, const Json& v);
  std::string Dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// True when at least two of the three consecutive thirds of `latency`
/// (in schedule order) have their p99 within `limit`.
bool ThirdsMeetLimit(const std::vector<double>& latency, double limit);

/// The SLO search shared by every workload, on the fixed geometric
/// ladder of offered rates 100 * 1.06^k. Walks down two rungs at a time
/// from just under 0.85 * `capacity` until a rung passes, then up one
/// rung at a time while rungs pass; on the way up a failed rung is run
/// once more before it counts, so a lone hiccup does not end the walk.
/// `run_rung(rate, &achieved)` offers `rate` and reports whether the rung
/// met the SLO and the rate it completed. Returns the completed rate of
/// the highest passing rung, 0 when none passed within `max_runs`.
double LadderWalk(double capacity, int max_runs,
                  const std::function<bool(double rate, double* achieved)>& run_rung);

/// p50/p99/count of a latency sample under `prefix`.
void AddTiming(Json& j, const std::string& prefix, const std::vector<double>& v);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
