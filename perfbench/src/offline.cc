// `perfbench offline`: the paper's offline path through public calls —
// load + split, fit PSVD10, theta^G, GANC(Dyn) OSLG RecommendAll over a
// thread pool, evaluation against the held-out split — plus the
// single-user library path (GancPipeline::RecommendForUser) and the
// pipeline artifact round trip, measured in-process.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/accuracy_scorer.h"
#include "core/ganc.h"
#include "core/pipeline.h"
#include "core/preference.h"
#include "eval/metrics.h"
#include "recommender/psvd.h"
#include "util/kde.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

constexpr int kTopN = 10;
// The workload's pool size (nproc on the reference host).
constexpr int kThreads = 4;

/// Forwards to the real scorer and counts the users it scores.
class CountingScorer : public ganc::AccuracyScorer {
 public:
  explicit CountingScorer(const ganc::AccuracyScorer& inner) : inner_(inner) {}
  int32_t num_items() const override { return inner_.num_items(); }
  void ScoreInto(UserId u, std::span<double> out) const override {
    users_.fetch_add(1, std::memory_order_relaxed);
    inner_.ScoreInto(u, out);
  }
  void ScoreBatchInto(std::span<const UserId> users,
                      std::span<double> out) const override {
    users_.fetch_add(users.size(), std::memory_order_relaxed);
    inner_.ScoreBatchInto(users, out);
  }
  std::string name() const override { return inner_.name(); }
  uint64_t users() const { return users_.load(); }

 private:
  const ganc::AccuracyScorer& inner_;
  mutable std::atomic<uint64_t> users_{0};
};

struct Fitted {
  ganc::TrainTestSplit split;
  std::unique_ptr<ganc::PsvdRecommender> base;
  std::vector<double> theta;
  double load_split_s = 0, fit_s = 0, theta_s = 0;
};

Fitted Setup(const std::string& cache, double kappa, uint64_t seed,
             ganc::ThreadPool* pool) {
  Fitted f;
  uint64_t t = NowNs();
  f.split = LoadSplit(cache, kappa, seed);
  f.load_split_s = (NowNs() - t) / 1e9;
  t = NowNs();
  f.base = std::make_unique<ganc::PsvdRecommender>(
      ganc::PsvdConfig{.num_factors = 10, .seed = seed});
  Check(f.base->Fit(f.split.train, pool), "fit PSVD10");
  f.fit_s = (NowNs() - t) / 1e9;
  t = NowNs();
  ganc::Result<std::vector<double>> theta = ganc::ComputePreference(
      ganc::PreferenceModel::kGeneralized, f.split.train, seed);
  Check(theta.status(), "theta");
  f.theta = std::move(theta).value();
  f.theta_s = (NowNs() - t) / 1e9;
  return f;
}

ganc::TopNCollection RecommendAll(const ganc::AccuracyScorer& scorer,
                                  const Fitted& f, uint64_t seed, int sample,
                                  ganc::ThreadPool* pool) {
  const ganc::Ganc ganc(&scorer, f.theta, ganc::CoverageKind::kDyn);
  ganc::Result<ganc::TopNCollection> topn = ganc.RecommendAll(
      f.split.train, {.top_n = kTopN, .sample_size = sample, .seed = seed, .pool = pool});
  Check(topn.status(), "RecommendAll");
  return std::move(topn).value();
}

uint64_t Digest(const ganc::TopNCollection& topn) {
  uint64_t h = 1469598103934665603ULL;
  for (const auto& list : topn) {
    for (const ItemId i : list) h = (h ^ static_cast<uint64_t>(i)) * 1099511628211ULL;
    h = (h ^ 0xffULL) * 1099511628211ULL;
  }
  return h;
}

/// Latency from the due time and generator lateness of one open-loop
/// phase, per request, in ms.
struct Probe {
  std::vector<double> latency_ms, late_ms;
};

/// Open loop over `threads` in-process workers: request k is due at
/// t0 + k / rate and served by worker k % threads.
Probe InProcessOpenLoop(const ganc::GancPipeline& p, const std::vector<UserId>& users,
                        size_t first, double rate, double seconds, int threads) {
  const size_t count = std::min(users.size() - first,
                                static_cast<size_t>(rate * seconds));
  Probe probe{std::vector<double>(count), std::vector<double>(count)};
  const uint64_t t0 = NowNs() + 2000000;
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t k = static_cast<size_t>(t); k < count; k += static_cast<size_t>(threads)) {
        const uint64_t due = t0 + static_cast<uint64_t>(static_cast<double>(k) * 1e9 / rate);
        while (NowNs() < due) {
          const uint64_t left = due - NowNs();
          if (left > 200000) std::this_thread::sleep_for(std::chrono::nanoseconds(left - 100000));
        }
        const uint64_t start = NowNs();
        p.RecommendForUser(users[first + k]);
        probe.latency_ms[k] = (NowNs() - due) / 1e6;
        probe.late_ms[k] = (start - due) / 1e6;
      }
    });
  }
  for (std::thread& th : pool) th.join();
  return probe;
}

/// The per-phase record every workload prints.
Json PhaseRecord(double offered, const Probe& probe) {
  Json j;
  j.Num("offered_rate", offered)
      .Num("sent", static_cast<double>(probe.latency_ms.size()))
      .Num("succeeded", static_cast<double>(probe.latency_ms.size()))
      .Num("failed", 0)
      .Num("p50_ms", Quantile(probe.latency_ms, 0.5))
      .Num("p99_ms", Quantile(probe.latency_ms, 0.99))
      .Num("gen_late_ms_p99", Quantile(probe.late_ms, 0.99));
  return j;
}

}  // namespace

int RunOffline(const ganc::Flags& flags) {
  const std::string cache = FlagString(flags, "dataset-cache");
  const std::string smoke_cache = FlagString(flags, "smoke-cache");
  const std::string work = FlagString(flags, "work");
  const uint64_t seed = static_cast<uint64_t>(FlagInt(flags, "seed", 1));
  const double kappa = FlagDouble(flags, "kappa", 0.8);
  const double seconds = FlagDouble(flags, "seconds", 10);
  const bool trace = FlagInt(flags, "trace", 0) != 0;
  const int sample = static_cast<int>(FlagInt(flags, "sample-size", 500));
  const int repeats = static_cast<int>(FlagInt(flags, "setup-repeats", 3));
  const double slo_ms = FlagDouble(flags, "slo-ms", 5);
  ganc::ThreadPool pool(kThreads);
  size_t attempted = 0, failed = 0;
  Json layers;

  // Determinism contract: the collection is identical at pool sizes 1 and 4.
  {
    const Fitted f = Setup(smoke_cache, kappa, seed, &pool);
    const ganc::NormalizedAccuracyScorer scorer(f.base.get());
    const uint64_t serial = Digest(RecommendAll(scorer, f, seed, sample, nullptr));
    const uint64_t pooled = Digest(RecommendAll(scorer, f, seed, sample, &pool));
    attempted += 1;
    if (serial != pooled) {
      std::fprintf(stderr, "perfbench: collection digest differs across pool sizes\n");
      ++failed;
    }
    layers.Num("core.ganc.digest_match", serial == pooled ? 1 : 0);
  }

  // setup_s: load + split + fit + theta, median of `repeats` runs.
  std::vector<double> setups, load_split, fit, theta_s;
  Fitted f;
  for (int r = 0; r < repeats; ++r) {
    const uint64_t t = NowNs();
    f = Setup(cache, kappa, seed, &pool);
    setups.push_back((NowNs() - t) / 1e9);
    load_split.push_back(f.load_split_s);
    fit.push_back(f.fit_s);
    theta_s.push_back(f.theta_s);
  }
  const ganc::NormalizedAccuracyScorer scorer(f.base.get());
  const double users = f.split.train.num_users();

  // The re-rank itself.
  double cpu0 = ProcessCpuSeconds();
  uint64_t t = NowNs();
  const ganc::TopNCollection topn = RecommendAll(scorer, f, seed, sample, &pool);
  double rall_s = (NowNs() - t) / 1e9;
  double cpu_s = ProcessCpuSeconds() - cpu0;
  attempted += static_cast<size_t>(users);
  const ganc::MetricsReport report = ganc::EvaluateTopN(
      f.split.train, f.split.test, topn, {.top_n = kTopN});
  std::map<UserId, std::vector<ItemId>> lists;
  for (size_t u = 0; u < topn.size(); ++u) {
    if (topn[u].size() != static_cast<size_t>(kTopN)) ++failed;
    lists.emplace(static_cast<UserId>(u), topn[u]);
  }
  const Quality q = ListQuality(f.split.train, f.split.test, lists, kTopN);
  const double peak_rss = PeakRssMb();

  if (trace) {
    // Traced re-run: a counting scorer, and OSLG's KDE sample timed by a
    // direct call with the same theta, S and seed.
    const CountingScorer counting(scorer);
    cpu0 = ProcessCpuSeconds();
    t = NowNs();
    const ganc::TopNCollection traced = RecommendAll(counting, f, seed, sample, &pool);
    const double traced_s = (NowNs() - t) / 1e9;
    cpu_s = ProcessCpuSeconds() - cpu0;
    attempted += 1;
    if (Digest(traced) != Digest(topn)) ++failed;
    ganc::Rng rng(seed);
    t = NowNs();
    ganc::Result<std::vector<size_t>> drawn =
        ganc::KdeProportionalSample(f.theta, static_cast<size_t>(sample), &rng);
    const double kde_s = (NowNs() - t) / 1e9;
    Check(drawn.status(), "KdeProportionalSample");
    layers.Num("util.kde.sample_s", kde_s)
        .Num("util.kde.share", kde_s / traced_s)
        .Num("core.ganc.greedy_s", std::max(0.0, traced_s - kde_s))
        .Num("core.ganc.cpu_util", cpu_s / (traced_s * kThreads))
        .Num("recommender.kernel.users_scored", static_cast<double>(counting.users()))
        .Num("trace.e2e_s", traced_s)
        .Num("trace.untraced_s", rall_s)
        .Num("trace.overhead_us", (traced_s - rall_s) * 1e6);
    // Closure: the spans of one setup plus the re-rank against the sum
    // of the whole sequence, both from the last repetition.
    const double spans = f.load_split_s + f.fit_s + f.theta_s;
    layers.Num("trace.closure_error", std::abs(spans - setups.back()) / setups.back());
    rall_s = traced_s;
  }
  layers.Num("data.load_split_s", Quantile(load_split, 0.5))
      .Num("recommender.train.fit_s", Quantile(fit, 0.5))
      .Num("core.preference.theta_s", Quantile(theta_s, 0.5));

  // The pipeline a serving process would load: per-user latency of the
  // library path the servers are checked against, and the artifact
  // round trip a PUBLISH performs.
  ganc::Result<std::unique_ptr<ganc::GancPipeline>> pipeline = ganc::GancPipeline::Create(
      std::move(f.base), f.split.train,
      {.top_n = kTopN, .sample_size = sample, .seed = seed, .fit_base = false});
  Check(pipeline.status(), "pipeline");
  const ganc::GancPipeline& p = **pipeline;
  std::vector<double> publish;
  const std::string artifact = work + "/offline_pipeline.gap";
  for (int r = 0; r < 3; ++r) {
    t = NowNs();
    Check(p.SaveFile(artifact), "save pipeline");
    ganc::Result<std::unique_ptr<ganc::GancPipeline>> loaded =
        ganc::GancPipeline::LoadFile(artifact, f.split.train);
    Check(loaded.status(), "load pipeline");
    publish.push_back((NowNs() - t) / 1e9);
  }

  ganc::Rng urng(seed ^ 0xabcdefULL);
  std::vector<UserId> stream(400000);
  for (UserId& u : stream) {
    u = static_cast<UserId>(urng.UniformInt(static_cast<uint64_t>(users)));
  }
  Json phases;
  phases.Obj("recommend_all", Json()
                                  .Num("sent", users)
                                  .Num("succeeded", users - static_cast<double>(failed))
                                  .Num("failed", static_cast<double>(failed)));
  // Single-user latency at a fixed light rate: three windows, the
  // medians of their p50/p99 are reported.
  std::vector<double> ref_p50, ref_p99;
  size_t cursor = 0, ref_samples = 0;
  for (int w = 0; w < 3; ++w) {
    const Probe probe = InProcessOpenLoop(p, stream, cursor, 500, 0.2 * seconds, 1);
    cursor += probe.latency_ms.size();
    ref_samples += probe.latency_ms.size();
    ref_p50.push_back(Quantile(probe.latency_ms, 0.5));
    ref_p99.push_back(Quantile(probe.latency_ms, 0.99));
    phases.Obj("reference" + std::to_string(w), PhaseRecord(500, probe));
  }
  // Capacity with kThreads workers, then the ladder from just under it.
  t = NowNs();
  const size_t cap_ops = 2000;
  std::atomic<size_t> next{0};
  {
    std::vector<std::thread> workers;
    for (int w = 0; w < kThreads; ++w) {
      workers.emplace_back([&] {
        for (size_t k; (k = next.fetch_add(1)) < cap_ops;) {
          p.RecommendForUser(stream[cursor + k]);
        }
      });
    }
    for (std::thread& th : workers) th.join();
  }
  const double capacity = cap_ops / ((NowNs() - t) / 1e9);
  cursor += cap_ops;
  int rung = 0;
  const double qps_at_slo = LadderWalk(capacity, 10, [&](double rate, double* achieved) {
    const Probe probe = InProcessOpenLoop(p, stream, cursor, rate, 0.1 * seconds, kThreads);
    const std::vector<double>& lat = probe.latency_ms;
    cursor += lat.size();
    attempted += lat.size();
    phases.Obj("ladder" + std::to_string(rung++), PhaseRecord(rate, probe));
    const std::vector<double> tail(lat.end() - static_cast<ptrdiff_t>(lat.size() / 10),
                                   lat.end());
    double last = 0;
    for (const double v : lat) last = std::max(last, v);
    *achieved = static_cast<double>(lat.size()) / (lat.size() / rate + last / 1e3);
    return Quantile(tail, 0.5) <= slo_ms && ThirdsMeetLimit(lat, slo_ms);
  });
  attempted += ref_samples + cap_ops;

  Json m;
  m.Num("setup_s", Quantile(setups, 0.5))
      .Num("users_per_s", users / rall_s)
      .Num("qps_at_slo", qps_at_slo)
      .Num("p50_ms", Quantile(ref_p50, 0.5))
      .Num("p99_ms", Quantile(ref_p99, 0.5))
      .Num("latency_samples", static_cast<double>(ref_samples))
      .Num("publish_s", Quantile(publish, 0.5))
      .Num("peak_rss_mb", peak_rss)
      .Num("novelty_bits", q.novelty_bits)
      .Num("tail_coverage", q.tail_coverage)
      .Num("f_at_n", report.f_measure)
      .Num("recommend_all_s", rall_s);
  if (!trace) layers = Json();
  Json out;
  out.Num("attempted", static_cast<double>(attempted))
      .Num("failed", static_cast<double>(failed))
      .Obj("metrics", m)
      .Obj("layers", layers)
      .Obj("phases", phases);
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

}  // namespace perfbench
