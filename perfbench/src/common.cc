#include "common.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <unordered_set>

#include "core/ganc.h"
#include "data/longtail.h"
#include "recommender/scoring_context.h"

namespace perfbench {

void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

void Check(const ganc::Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

std::string FlagString(const ganc::Flags& f, const std::string& name) {
  if (!f.Has(name)) Die("missing --" + name);
  return f.GetString(name, "");
}

int64_t FlagInt(const ganc::Flags& f, const std::string& name, int64_t def) {
  ganc::Result<int64_t> v = f.GetInt(name, def);
  if (!v.ok()) Die("bad --" + name);
  return *v;
}

double FlagDouble(const ganc::Flags& f, const std::string& name, double def) {
  ganc::Result<double> v = f.GetDouble(name, def);
  if (!v.ok()) Die("bad --" + name);
  return *v;
}

uint64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(rank), v.end());
  return v[rank];
}

ganc::TrainTestSplit LoadSplit(const std::string& cache, double kappa,
                               uint64_t seed) {
  ganc::Result<ganc::RatingDataset> data =
      ganc::RatingDataset::LoadFileAuto(cache, /*prefer_mmap=*/false);
  Check(data.status(), "load " + cache);
  Check(data->EnsureResident(), "resident " + cache);
  ganc::Result<ganc::TrainTestSplit> split = ganc::PerUserRatioSplit(
      *data, {.train_ratio = kappa, .seed = seed});
  Check(split.status(), "split");
  Check(split->train.EnsureResident(), "resident train");
  return std::move(split).value();
}

// ---------------------------------------------------------------------------
// Reference

Reference::Reference(const ganc::GancPipeline& pipeline,
                     const ganc::RatingDataset& train)
    : pipeline_(pipeline),
      train_(train),
      coverage_(ganc::MakeCoverage(pipeline.coverage_kind(), train,
                                   pipeline.seed())) {}

std::string Reference::Key(UserId u, const std::vector<ItemId>& excluded) {
  std::string k = std::to_string(u);
  for (const ItemId i : excluded) {
    k.push_back(',');
    k += std::to_string(i);
  }
  return k;
}

std::vector<ItemId> Reference::Compute(
    UserId u, const std::vector<ItemId>& excluded) const {
  if (excluded.empty()) return pipeline_.RecommendForUser(u);
  // RecommendForUser with the exclusions masked out of the candidates.
  ganc::ScoringContext ctx;
  const std::span<double> acc =
      ctx.Scores(static_cast<size_t>(train_.num_items()));
  pipeline_.scorer().ScoreInto(u, acc);
  train_.UnratedItemsInto(u, &ctx.Candidates());
  std::vector<ItemId>& cands = ctx.Candidates();
  std::erase_if(cands, [&](ItemId i) {
    return std::find(excluded.begin(), excluded.end(), i) != excluded.end();
  });
  std::vector<ItemId> out;
  ganc::GreedyTopNForUserInto(acc, pipeline_.theta()[static_cast<size_t>(u)],
                              *coverage_, u, cands, pipeline_.top_n(), ctx,
                              out);
  return out;
}

std::vector<ItemId> Reference::ListFor(UserId u,
                                       const std::vector<ItemId>& excluded) {
  const std::string key = Key(u, excluded);
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
  }
  std::vector<ItemId> list = Compute(u, excluded);
  std::lock_guard<std::mutex> lock(mu_);
  memo_.emplace(key, list);
  return list;
}

void Reference::Precompute(const std::vector<const Op*>& ops, int threads) {
  std::vector<std::pair<UserId, std::vector<ItemId>>> todo;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::unordered_set<std::string> seen;
    for (const Op* op : ops) {
      const std::vector<ItemId> none;
      const std::vector<ItemId>& excl = op->session ? op->consumed : none;
      const std::string key = Key(op->user, excl);
      if (memo_.count(key) == 0 && seen.insert(key).second) {
        todo.emplace_back(op->user, excl);
      }
    }
  }
  std::vector<std::vector<ItemId>> lists(todo.size());
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < todo.size();
           i += static_cast<size_t>(threads)) {
        lists[i] = Compute(todo[i].first, todo[i].second);
      }
    });
  }
  for (std::thread& th : pool) th.join();
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < todo.size(); ++i) {
    memo_.emplace(Key(todo[i].first, todo[i].second), std::move(lists[i]));
  }
}

std::string Reference::Expected(const Op& op, size_t k) {
  if (op.session && k == 0) {
    return "OK consumed=" + std::to_string(op.consumed.size());
  }
  const std::vector<ItemId> none;
  const std::vector<ItemId> list =
      ListFor(op.user, op.session ? op.consumed : none);
  std::string out = "OK user=" + std::to_string(op.user) +
                    " n=" + std::to_string(pipeline_.top_n()) + " items=";
  for (size_t i = 0; i < list.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += std::to_string(list[i]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Quality

Quality ListQuality(const ganc::RatingDataset& train,
                    const ganc::RatingDataset& test,
                    const std::map<UserId, std::vector<ItemId>>& lists,
                    int top_n) {
  Quality q;
  const ganc::LongTailInfo tail = ganc::ComputeLongTail(train);
  const double log_total =
      std::log2(static_cast<double>(train.num_ratings()) + train.num_items());
  std::vector<bool> seen_tail(static_cast<size_t>(train.num_items()), false);
  double bits = 0, slots = 0, hits = 0, recall_sum = 0;
  size_t distinct_tail = 0;
  for (const auto& [u, list] : lists) {
    std::unordered_set<ItemId> relevant;
    for (const ganc::ItemRating& r : test.ItemsOf(u)) {
      if (r.value >= 4.0) relevant.insert(r.item);
    }
    double user_hits = 0;
    for (size_t k = 0; k < list.size() && k < static_cast<size_t>(top_n); ++k) {
      const ItemId i = list[k];
      bits += log_total - std::log2(train.Popularity(i) + 1.0);
      slots += 1;
      if (tail.Contains(i) && !seen_tail[static_cast<size_t>(i)]) {
        seen_tail[static_cast<size_t>(i)] = true;
        ++distinct_tail;
      }
      user_hits += relevant.count(i) > 0 ? 1.0 : 0.0;
    }
    hits += user_hits;
    if (!relevant.empty()) recall_sum += user_hits / relevant.size();
  }
  q.lists = lists.size();
  if (lists.empty()) return q;
  const double users = static_cast<double>(lists.size());
  const double precision = hits / (top_n * users);
  const double recall = recall_sum / users;
  q.f_at_n = precision + recall > 0 ? precision * recall / (precision + recall)
                                    : 0.0;
  q.novelty_bits = slots > 0 ? bits / slots : 0.0;
  q.tail_coverage = tail.tail_size > 0
                        ? static_cast<double>(distinct_tail) / tail.tail_size
                        : 0.0;
  return q;
}

// ---------------------------------------------------------------------------
// Spans and JSON

void SpanLog::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"request\":" << s.request
        << ",\"parent\":\"" << s.parent << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
}

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out + "\"";
}

}  // namespace

Json& Json::Num(const std::string& k, double v) {
  char buf[64];
  if (!std::isfinite(v)) v = 0.0;
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  fields_.emplace_back(k, buf);
  return *this;
}

Json& Json::Obj(const std::string& k, const Json& v) {
  fields_.emplace_back(k, v.Dump());
  return *this;
}

std::string Json::Dump() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

bool ThirdsMeetLimit(const std::vector<double>& latency, double limit) {
  const size_t third = latency.size() / 3;
  int passed = 0;
  for (size_t i = 0; i < 3; ++i) {
    const std::vector<double> part(latency.begin() + static_cast<ptrdiff_t>(i * third),
                                   latency.begin() + static_cast<ptrdiff_t>((i + 1) * third));
    passed += Quantile(part, 0.99) <= limit ? 1 : 0;
  }
  return passed >= 2;
}

double LadderWalk(double capacity, int max_runs,
                  const std::function<bool(double rate, double* achieved)>& run_rung) {
  int k = std::max(0, static_cast<int>(std::floor(std::log(0.85 * capacity / 100.0) /
                                                  std::log(1.06))));
  double qps = 0;
  bool found = false;
  for (int runs = 0, failures = 0; runs < max_runs && k >= 0; ++runs) {
    double achieved = 0;
    if (run_rung(100.0 * std::pow(1.06, k), &achieved)) {
      found = true;
      qps = achieved;
      failures = 0;
      ++k;
    } else if (!found) {
      k -= 2;
    } else if (++failures == 2) {
      break;
    }
  }
  return qps;
}

void AddTiming(Json& j, const std::string& prefix, const std::vector<double>& v) {
  j.Num(prefix + ".p50", Quantile(v, 0.5));
  j.Num(prefix + ".p99", Quantile(v, 0.99));
  j.Num(prefix + ".count", static_cast<double>(v.size()));
}

}  // namespace perfbench
