// blinkbench: one repeatable benchmark of BlinkDB's bounded queries.
//
//   blinkbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--trace-file <path>]
//   blinkbench --selftest
//
// Builds the Conviva-like database from the seed, runs one workload for
// whole rounds until --seconds have passed, checks every answer against the
// benchmark's own ground truth, and prints one JSON object as the last line
// of stdout: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1. Exits non-zero when a check fails. See README.md.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "blinkbench/trace.h"
#include "blinkbench/workloads.h"

namespace {

// Anchors setup_s at process start (static initialization precedes main).
const int64_t kProcessStartNs = bench::NowNs();

void PrintJson(const bench::Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              out.correct ? "true" : "false", static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const bench::Metric& m = out.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: blinkbench --workload <ungrouped_bounded|grouped_bounded|"
               "serve_cached|ingest_live> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-file <path>]\n       blinkbench --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      const int failures = bench::SelfTest();
      std::printf("selftest: %d failure(s)\n", failures);
      return failures == 0 ? 0 : 1;
    }
    if (i + 1 >= argc) {
      return Usage();
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--trace-file") {
      options.trace_file = value;
    } else {
      return Usage();
    }
  }
  const bool known = options.workload == "ungrouped_bounded" ||
                     options.workload == "grouped_bounded" ||
                     options.workload == "serve_cached" || options.workload == "ingest_live";
  if (!known || !(options.seconds > 0.0)) {
    return Usage();
  }

  bench::Env env;
  if (auto st = bench::Setup(options, kProcessStartNs, &env); !st.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
    return 1;
  }
  // The checks the run relies on must themselves catch wrong answers.
  if (bench::SelfTest() != 0) {
    std::fprintf(stderr, "selftest failed\n");
    return 1;
  }
  bench::Outcome out;
  if (options.workload == "ungrouped_bounded") {
    out = bench::RunBounded(options, env, /*grouped=*/false);
  } else if (options.workload == "grouped_bounded") {
    out = bench::RunBounded(options, env, /*grouped=*/true);
  } else if (options.workload == "serve_cached") {
    out = bench::RunServeCached(options, env);
  } else {
    out = bench::RunIngestLive(options, env);
  }
  std::fprintf(stderr, "setup: generate=%.3fs register=%.3fs build_samples=%.3fs "
               "compress=%.3fs start=%.3fs total=%.3fs\n",
               env.generate_s, env.register_s, env.build_samples_s, env.compress_s,
               env.start_s, env.setup_s);
  if (!out.correct) {
    std::fprintf(stderr, "check failed: %s\n", out.why.c_str());
  }
  PrintJson(out);
  return out.correct ? 0 : 1;
}
