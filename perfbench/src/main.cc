// perfbench: the measuring half of the repository benchmark
// (perfbench/run.py builds it, prepares the inputs and starts the
// servers).
//
//   perfbench serve   --workload=serve_live|serve_hot_mixed --port=N ...
//   perfbench offline --dataset-cache=PATH --smoke-cache=PATH --work=DIR ...
//
// Each prints one JSON object on stdout: attempted/failed counts, the
// end-to-end metrics, the per-layer metrics of a traced run, and the
// per-phase send/receive record.

#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "util/flags.h"

namespace perfbench {
int RunServe(const ganc::Flags& flags);
int RunOffline(const ganc::Flags& flags);
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::vector<std::string> known = {
      "workload", "port",     "seed",     "kappa",         "seconds",
      "trace",    "shards",   "ref-rate", "slo-ms",        "quality-ops",
      "pipeline", "publish",  "store",    "spans",         "dataset-cache",
      "smoke-cache", "work",  "sample-size", "setup-repeats"};
  ganc::Result<ganc::Flags> flags = ganc::Flags::Parse(argc, argv, known);
  if (!flags.ok() || flags->positional().size() != 1) {
    std::fprintf(stderr, "usage: perfbench serve|offline [flags]\n");
    return 2;
  }
  const std::string& command = flags->positional()[0];
  if (command == "serve") return perfbench::RunServe(*flags);
  if (command == "offline") return perfbench::RunOffline(*flags);
  std::fprintf(stderr, "unknown command %s\n", command.c_str());
  return 2;
}
