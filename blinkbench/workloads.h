// The benchmark's shared set-up and its four workloads.
#ifndef BLINKBENCH_WORKLOADS_H_
#define BLINKBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "blinkbench/truth.h"
#include "src/api/blinkdb.h"
#include "src/server/server.h"
#include "src/workload/conviva.h"

namespace bench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;  // where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::string why;  // first failed check, for stderr
};

// Rows of the generated base table.
constexpr uint64_t kBaseRows = 400'000;

// The database every workload runs against, built from the seed, plus the
// benchmark's own copy of the rows for ground truth.
struct Env {
  blink::ConvivaConfig data;
  std::unique_ptr<blink::BlinkDB> db;
  std::unique_ptr<blink::BlinkServer> server;  // serve_cached only
  RowStore rows;
  double generate_s = 0.0;
  double register_s = 0.0;
  double build_samples_s = 0.0;
  double compress_s = 0.0;
  double start_s = 0.0;  // server start or ConfigureIngest
  double setup_s = 0.0;  // process start to ready
};

// The runtime settings of the database, the server's pool and the traced
// run's own runtime: one scan thread, so runs repeat.
blink::RuntimeConfig RuntimeSettings();

// Builds the database for `workload`; `process_start_ns` anchors setup_s.
blink::Status Setup(const Options& options, int64_t process_start_ns, Env* env);

Outcome RunBounded(const Options& options, Env& env, bool grouped);
Outcome RunServeCached(const Options& options, Env& env);
Outcome RunIngestLive(const Options& options, Env& env);

// Hand-worked checks of the truth computation and the answer checks; returns
// the number of failed expectations.
int SelfTest();

}  // namespace bench

#endif  // BLINKBENCH_WORKLOADS_H_
