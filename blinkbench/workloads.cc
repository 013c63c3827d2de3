#include "blinkbench/workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <thread>

#include "blinkbench/queries.h"
#include "blinkbench/trace.h"
#include "src/client/blink_client.h"
#include "src/exec/executor.h"
#include "src/server/protocol.h"
#include "src/sql/parser.h"
#include "src/stats/distributions.h"
#include "src/storage/encoded_table.h"

namespace bench {
namespace {

const char kTable[] = "sessions";

double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(v.size() - 1, lo + 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double EncodedBytes(const blink::Table& t) {
  const blink::EncodedTable* e = t.encoded_blocks();
  if (e == nullptr) {
    return static_cast<double>(t.num_rows()) * t.EstimatedBytesPerRow();
  }
  double bytes = 0.0;
  for (size_t c = 0; c < e->num_columns(); ++c) {
    bytes += static_cast<double>(e->stats(c).encoded_bytes);
  }
  return bytes;
}

// Encoded bytes of the base table, its sample families and every live run
// (with the run's families), per logical row.
double StoredBytesPerRow(const blink::BlinkDB& db) {
  const blink::TableEntry* entry = db.catalog().Find(kTable);
  double bytes = EncodedBytes(entry->table);
  double rows = static_cast<double>(entry->table.num_rows());
  for (const blink::SampleFamily* family : db.samples().FamiliesFor(kTable)) {
    bytes += EncodedBytes(family->physical_table());
  }
  if (const auto pinned = db.PinLevels(kTable)) {
    for (const auto& run : pinned->snapshot.runs) {
      bytes += EncodedBytes(*run->rows);
      rows += static_cast<double>(run->rows->num_rows());
      for (const auto& family : run->families) {
        bytes += EncodedBytes(family->physical_table());
      }
    }
  }
  return bytes / rows;
}

std::string FamilyName(const blink::SampleFamily& family) {
  if (family.kind() == blink::SampleFamily::Kind::kUniform) {
    return "uniform";
  }
  std::string name = "{";
  for (size_t i = 0; i < family.columns().size(); ++i) {
    name += (i > 0 ? "," : "") + family.columns()[i];
  }
  return name + "}";
}

const blink::SampleFamily* FindFamily(const blink::BlinkDB& db, const std::string& name) {
  for (const blink::SampleFamily* family : db.samples().FamiliesFor(kTable)) {
    if (FamilyName(*family) == name) {
      return family;
    }
  }
  return nullptr;
}

// Sampled rows matching each answer cell. Ungrouped: the matched rows every
// pipeline reports. Grouped over one sample pipeline: the benchmark's own
// count over the consumed prefix of the family's row store. Otherwise
// (union and leveled plans, cache hits) the counts are unknown and the cells
// stay out of the coverage gate.
MatchCounts CountMatches(const QuerySpec& spec, const blink::ExecutionReport& report,
                         const blink::BlinkDB& db) {
  MatchCounts counts;
  if (report.cache == "hit" || report.pipeline_outcomes.empty()) {
    return counts;
  }
  if (spec.group_column.empty()) {
    uint64_t matched = 0;
    for (const auto& outcome : report.pipeline_outcomes) {
      matched += outcome.rows_matched;
    }
    counts[""] = matched;
    return counts;
  }
  if (report.pipeline_outcomes.size() != 1 || report.pipeline_outcomes[0].reused_probe) {
    return counts;
  }
  const blink::SampleFamily* family = FindFamily(db, report.family);
  if (family == nullptr) {
    return counts;
  }
  const blink::Table& sample = family->physical_table();
  const TableMatcher matcher(spec, sample);
  const uint64_t rows =
      std::min<uint64_t>(report.pipeline_outcomes[0].rows_consumed, sample.num_rows());
  for (uint64_t r = 0; r < rows; ++r) {
    if (matcher.Matches(r)) {
      ++counts[matcher.Group(r)];
    }
  }
  return counts;
}

// Per-query layer counters, read from each answer's report.
struct LayerStats {
  double queries = 0.0;
  double elp_points = 0.0;
  double exact = 0.0;
  double resolution = 0.0;
  double blocks_consumed = 0.0;
  double blocks_reused = 0.0;
  double pipelines = 0.0;
  double rounds = 0.0;
  double stopped_early = 0.0;
  double rows_scanned = 0.0;
  double rows_matched = 0.0;
  double bytes_scanned = 0.0;
  double bytes_decoded = 0.0;
  double hits = 0.0;
  double resumes = 0.0;
  double misses = 0.0;
  double queue_ms = 0.0;
  double partials = 0.0;
  double live_runs = 0.0;

  void Add(const blink::ExecutionReport& r, uint64_t rounds_seen, uint64_t partial_frames,
           size_t runs) {
    queries += 1.0;
    elp_points += static_cast<double>(r.elp.size());
    exact += r.family == "exact" ? 1.0 : 0.0;
    resolution += static_cast<double>(r.resolution);
    blocks_consumed += static_cast<double>(r.blocks_consumed);
    blocks_reused += static_cast<double>(r.blocks_reused);
    pipelines += static_cast<double>(r.pipeline_outcomes.size());
    rounds += static_cast<double>(rounds_seen);
    stopped_early += r.stopped_early ? 1.0 : 0.0;
    for (const auto& outcome : r.pipeline_outcomes) {
      rows_scanned += static_cast<double>(outcome.rows_consumed);
      rows_matched += static_cast<double>(outcome.rows_matched);
    }
    bytes_scanned += r.bytes_scanned;
    bytes_decoded += r.bytes_decoded;
    hits += r.cache == "hit" ? 1.0 : 0.0;
    resumes += r.cache == "resume" ? 1.0 : 0.0;
    misses += r.cache == "miss" ? 1.0 : 0.0;
    queue_ms += r.queue_latency * 1e3;
    partials += static_cast<double>(partial_frames);
    live_runs += static_cast<double>(runs);
  }
  void Merge(const LayerStats& o) {
    queries += o.queries;
    elp_points += o.elp_points;
    exact += o.exact;
    resolution += o.resolution;
    blocks_consumed += o.blocks_consumed;
    blocks_reused += o.blocks_reused;
    pipelines += o.pipelines;
    rounds += o.rounds;
    stopped_early += o.stopped_early;
    rows_scanned += o.rows_scanned;
    rows_matched += o.rows_matched;
    bytes_scanned += o.bytes_scanned;
    bytes_decoded += o.bytes_decoded;
    hits += o.hits;
    resumes += o.resumes;
    misses += o.misses;
    queue_ms += o.queue_ms;
    partials += o.partials;
    live_runs += o.live_runs;
  }
  double Mean(double total) const { return queries > 0.0 ? total / queries : 0.0; }
};

// Append and maintenance figures of the live-ingest workload.
struct IngestStats {
  uint64_t batches = 0;
  uint64_t merges = 0;
  uint64_t rows_appended = 0;
  uint64_t rows_rewritten = 0;
  double busy_s = 0.0;  // inside Append plus MaintenanceTick
};

// The traced run's calls into each layer for one query, with the answer the
// runtime returned. Spans nest under a "query" root sharing the query id.
struct TracedLayers {
  Tracer tracer;
  LayerStats layers;
  std::unique_ptr<blink::QueryRuntime> runtime;  // same config as the db's
};

// Adds the answer's report to `layers` unless it is null.
blink::Result<blink::ApproxAnswer> TracedQuery(TracedLayers& t, const blink::BlinkDB& db,
                                               const std::string& sql, uint64_t qid,
                                               LayerStats* layers) {
  Scoped root(&t.tracer, "query", qid);
  blink::Result<blink::SelectStatement> stmt = blink::Status::Ok();
  {
    Scoped s(&t.tracer, "sql.parse", qid);
    stmt = blink::ParseSelect(sql);
  }
  if (!stmt.ok()) {
    return stmt.status();
  }
  blink::Result<blink::BlinkDB::ResolvedTables> tables = blink::Status::Ok();
  {
    Scoped s(&t.tracer, "api.resolve", qid);
    tables = db.Resolve(*stmt);
  }
  if (!tables.ok()) {
    return tables.status();
  }
  std::optional<blink::BlinkDB::PinnedLevels> pinned;
  {
    Scoped s(&t.tracer, "api.pin_levels", qid);
    pinned = db.PinLevels(kTable);
  }
  uint64_t rounds = 0;
  blink::ProgressCallback progress = [&rounds](const blink::QueryResult&,
                                               const blink::StreamProgress&) { ++rounds; };
  const blink::TableEntry& fact = *tables->fact;
  blink::Result<blink::ApproxAnswer> answer = blink::Status::Ok();
  {
    Scoped s(&t.tracer, "runtime.execute", qid);
    answer = pinned.has_value()
                 ? t.runtime->ExecuteLeveled(*stmt, fact.name, fact.table, fact.scale_factor,
                                             pinned->levels, nullptr, progress)
                 : t.runtime->Execute(*stmt, fact.name, fact.table, fact.scale_factor,
                                      nullptr, progress);
  }
  root.Close();
  if (!answer.ok()) {
    return answer;
  }
  if (layers != nullptr) {
    layers->Add(answer->report, rounds, 0, pinned.has_value() ? pinned->levels.size() : 0);
  }

  // ExecuteQuery over the chosen family and resolution, with and without the
  // GROUP BY at equal blocks. Union and leveled plans scan the uniform
  // family's largest resolution.
  blink::Dataset ds;
  const blink::SampleFamily* family = FindFamily(db, answer->report.family);
  if (answer->report.family == "exact") {
    ds = blink::Dataset::Exact(fact.table);
  } else {
    if (family == nullptr) {
      family = db.samples().UniformFamily(kTable);
    }
    const size_t res = family == FindFamily(db, answer->report.family)
                           ? std::min(answer->report.resolution, family->smallest_resolution())
                           : 0;
    ds = family->LogicalSample(res);
  }
  blink::ExecutionOptions exec;
  exec.num_threads = 1;
  blink::SelectStatement flat = *stmt;
  flat.group_by.clear();
  flat.items.erase(std::remove_if(flat.items.begin(), flat.items.end(),
                                  [](const blink::SelectItem& i) { return !i.is_aggregate; }),
                   flat.items.end());
  {
    Scoped s(&t.tracer, "exec.scan", qid);
    auto r = blink::ExecuteQuery(*stmt, ds, nullptr, exec);
    if (!r.ok()) {
      return r.status();
    }
  }
  {
    Scoped s(&t.tracer, "exec.scan_ungrouped", qid);
    auto r = blink::ExecuteQuery(flat, ds, nullptr, exec);
    if (!r.ok()) {
      return r.status();
    }
  }
  return answer;
}

// EncodeFinal and DecodeFrame of an answer, as the server and client do.
// Answers with a non-finite estimate or variance are left out: their FINAL
// does not decode (see FOUND in CHANGES.md), and that happens on some seeds
// only, so it cannot be a counted failure of the run.
bool TraceProtocol(Tracer& tracer, const blink::QueryResult& result,
                   const blink::ExecutionReport& report, uint64_t qid) {
  for (const auto& row : result.rows) {
    for (const auto& est : row.aggregates) {
      if (!std::isfinite(est.value) || !std::isfinite(est.variance)) {
        std::fprintf(stderr, "FINAL not encoded: non-finite estimate %g variance %g\n",
                     est.value, est.variance);
        return true;
      }
    }
  }
  blink::FinalFrame frame;
  frame.id = qid;
  frame.result = result;
  frame.report = report;
  std::string payload;
  {
    Scoped s(&tracer, "protocol.encode_final", qid);
    payload = blink::EncodeFinal(frame);
  }
  Scoped s(&tracer, "protocol.decode_frame", qid);
  const auto decoded = blink::DecodeFrame(payload);
  if (!decoded.ok()) {
    std::fprintf(stderr, "FINAL frame did not decode: %s\n",
                 decoded.status().ToString().c_str());
  }
  return decoded.ok();
}

// Median per-query ratio of the grouped to the ungrouped scan time.
double GroupCostRatio(const std::vector<const Tracer*>& tracers) {
  std::vector<double> ratios;
  for (const Tracer* t : tracers) {
    std::map<uint64_t, std::pair<double, double>> per_query;
    for (const Span& s : t->spans()) {
      if (std::strcmp(s.name, "exec.scan") == 0) {
        per_query[s.query_id].first = s.seconds();
      } else if (std::strcmp(s.name, "exec.scan_ungrouped") == 0) {
        per_query[s.query_id].second = s.seconds();
      }
    }
    for (const auto& [qid, pair] : per_query) {
      if (pair.first > 0.0 && pair.second > 0.0) {
        ratios.push_back(pair.first / pair.second);
      }
    }
  }
  return Quantile(ratios, 0.5);
}

void AddEndToEnd(Outcome* out, const Env& env, const std::vector<double>& latencies_ms,
                 double queries_per_s, const Quality& quality, double stored_bytes) {
  out->metrics.push_back({"setup_s", env.setup_s, "s"});
  out->metrics.push_back({"query_p50_ms", Quantile(latencies_ms, 0.50), "ms"});
  out->metrics.push_back({"query_p99_ms", Quantile(latencies_ms, 0.99), "ms"});
  out->metrics.push_back({"queries_per_s", queries_per_s, "1/s"});
  out->metrics.push_back({"answer_rel_error", quality.MedianRelError(), "ratio"});
  out->metrics.push_back({"stored_bytes_per_row", stored_bytes, "bytes"});
  out->metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
}

void AddPerLayer(Outcome* out, const Env& env, const std::vector<const Tracer*>& tracers,
                 const LayerStats& l, const Quality& quality, uint64_t zero_width_per_round,
                 const IngestStats& ingest) {
  auto median = [&tracers](const char* name) { return MedianSeconds(tracers, name); };
  auto& m = out->metrics;
  m.push_back({"sql.parse_us", median("sql.parse") * 1e6, "us"});
  m.push_back({"api.resolve_us", median("api.resolve") * 1e6, "us"});
  m.push_back({"runtime.execute_ms", median("runtime.execute") * 1e3, "ms"});
  m.push_back({"optimizer.elp_points", l.Mean(l.elp_points), "count"});
  m.push_back({"optimizer.exact_fallback_share", l.Mean(l.exact), "ratio"});
  m.push_back({"optimizer.resolution", l.Mean(l.resolution), "index"});
  m.push_back({"plan.blocks_consumed", l.Mean(l.blocks_consumed), "count"});
  m.push_back({"plan.blocks_reused", l.Mean(l.blocks_reused), "count"});
  m.push_back({"plan.pipelines", l.Mean(l.pipelines), "count"});
  m.push_back({"plan.rounds", l.Mean(l.rounds), "count"});
  m.push_back({"plan.stopped_early_share", l.Mean(l.stopped_early), "ratio"});
  m.push_back({"exec.scan_ms", median("exec.scan") * 1e3, "ms"});
  m.push_back({"exec.group_cost_ratio", GroupCostRatio(tracers), "ratio"});
  m.push_back({"exec.rows_scanned", l.Mean(l.rows_scanned), "count"});
  m.push_back({"exec.rows_matched", l.Mean(l.rows_matched), "count"});
  m.push_back({"storage.bytes_scanned", l.Mean(l.bytes_scanned), "bytes"});
  m.push_back({"storage.bytes_decoded", l.Mean(l.bytes_decoded), "bytes"});
  m.push_back({"stats.coverage", quality.Coverage(), "ratio"});
  m.push_back({"stats.zero_width_cells", static_cast<double>(zero_width_per_round), "count"});
  m.push_back({"cache.hit_share", l.Mean(l.hits), "ratio"});
  m.push_back({"cache.resume_share", l.Mean(l.resumes), "ratio"});
  m.push_back({"cache.miss_share", l.Mean(l.misses), "ratio"});
  m.push_back({"server.queue_ms", l.Mean(l.queue_ms), "ms"});
  m.push_back({"server.partials_per_query", l.Mean(l.partials), "count"});
  m.push_back({"protocol.encode_final_us", median("protocol.encode_final") * 1e6, "us"});
  m.push_back({"protocol.decode_frame_us", median("protocol.decode_frame") * 1e6, "us"});
  m.push_back({"ingest.append_ms", median("ingest.append") * 1e3, "ms"});
  m.push_back({"ingest.tick_ms", median("ingest.tick") * 1e3, "ms"});
  const double batches = static_cast<double>(std::max<uint64_t>(1, ingest.batches));
  m.push_back({"ingest.merges", static_cast<double>(ingest.merges) / batches, "1/batch"});
  m.push_back({"ingest.rows_rewritten_per_row_appended",
               ingest.rows_appended == 0 ? 0.0
                                         : static_cast<double>(ingest.rows_rewritten) /
                                               static_cast<double>(ingest.rows_appended),
               "ratio"});
  m.push_back({"ingest.live_runs", l.Mean(l.live_runs), "count"});
  m.push_back({"ingest.append_rows_per_s",
               ingest.busy_s > 0.0 ? static_cast<double>(ingest.rows_appended) / ingest.busy_s
                                   : 0.0,
               "rows/s"});
  m.push_back({"setup.generate_s", env.generate_s, "s"});
  m.push_back({"setup.build_samples_s", env.build_samples_s, "s"});
  m.push_back({"setup.compress_s", env.compress_s, "s"});
}

void FinishChecks(Outcome* out, const Quality& quality) {
  std::string why;
  if (!QualityPasses(quality, &why)) {
    out->correct = false;
    out->why = why;
  }
  for (const auto& f : quality.failures) {
    std::fprintf(stderr, "check: %s\n", f.c_str());
  }
  std::fprintf(stderr,
               "quality: answers=%llu cells=%llu rel_error_median=%.5f rel_error_mean=%.5f "
               "coverage=%.4f eligible=%llu eligible_coverage=%.4f zero_width_wrong=%llu\n",
               static_cast<unsigned long long>(quality.answers),
               static_cast<unsigned long long>(quality.cells), quality.MedianRelError(),
               quality.MeanRelError(),
               quality.Coverage(), static_cast<unsigned long long>(quality.eligible_cells),
               quality.EligibleCoverage(),
               static_cast<unsigned long long>(quality.zero_width_wrong));
}

void WriteTrace(const Options& options, const std::vector<const Tracer*>& tracers) {
  if (options.trace && !options.trace_file.empty() &&
      !WriteSpans(tracers, options.trace_file)) {
    std::fprintf(stderr, "could not write %s\n", options.trace_file.c_str());
  }
}

// One distinct query of a workload's trace, with its SQL and truth.
struct TraceQuery {
  QuerySpec spec;
  std::string sql;
  Truth truth;
  explicit TraceQuery(QuerySpec s) : spec(std::move(s)), sql(RenderSql(spec)), truth(spec) {}
};

std::vector<TraceQuery> MakeTrace(const RowStore& rows, const TraceShape& shape, size_t n,
                                  blink::Rng& values) {
  blink::Rng structure(kStructureSeed + (shape.grouped ? 1 : 0));
  std::vector<TraceQuery> trace;
  trace.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    trace.emplace_back(GenerateQuery(rows, shape, structure, values));
    trace.back().truth.Accumulate(rows, 0, rows.num_rows());
  }
  return trace;
}

uint64_t ZeroWidthIn(const TraceQuery& q, const blink::QueryResult& result,
                     const blink::ExecutionReport& report) {
  Quality one;
  CheckAnswer(q.spec, q.truth, result, report, {}, &one);
  return one.zero_width_wrong;
}

}  // namespace

blink::RuntimeConfig RuntimeSettings() {
  blink::RuntimeConfig config;
  config.exec_threads = 1;
  return config;
}

blink::Status Setup(const Options& options, int64_t process_start_ns, Env* env) {
  env->data.num_rows = kBaseRows;
  env->data.num_cities = 500;
  env->data.num_urls = 5'000;
  env->data.rng_seed = options.seed;

  int64_t t = NowNs();
  blink::Table generated = blink::GenerateConvivaTable(env->data);
  env->generate_s = Seconds(t, NowNs());

  t = NowNs();
  // Same paper-scale model as the demo server: the stand-in models 1 TB.
  const double scale = 1e12 / (static_cast<double>(generated.num_rows()) *
                               generated.EstimatedBytesPerRow());
  blink::BlinkDbOptions db_options;
  db_options.runtime = RuntimeSettings();
  env->db = std::make_unique<blink::BlinkDB>(db_options);
  BLINK_RETURN_IF_ERROR(env->db->RegisterTable(kTable, blink::Table(generated), scale));
  env->register_s = Seconds(t, NowNs());

  t = NowNs();
  blink::PlannerConfig planner;
  planner.budget_fraction = 0.5;
  planner.cap_k = 500;
  planner.max_columns_per_set = 2;
  planner.uniform_fraction = 0.1;
  auto plan = env->db->BuildSamples(kTable, blink::ConvivaTemplates(), planner);
  if (!plan.ok()) {
    return plan.status();
  }
  env->build_samples_s = Seconds(t, NowNs());

  t = NowNs();
  BLINK_RETURN_IF_ERROR(env->db->CompressStorage(kTable));
  env->compress_s = Seconds(t, NowNs());

  t = NowNs();
  if (options.workload == "ingest_live") {
    blink::LeveledStoreOptions ingest;
    ingest.seed = options.seed * 0x9e3779b97f4a7c15ULL + 17;
    ingest.encode = blink::BlockEncodeOptions{};
    ingest.background_interval_ms = 0;  // ticks run on the workload's schedule
    BLINK_RETURN_IF_ERROR(env->db->ConfigureIngest(kTable, ingest));
  } else if (options.workload == "serve_cached") {
    blink::ServerOptions server;
    server.runtime = RuntimeSettings();
    server.max_concurrent_queries = 2;
    // Room for both working sets; fresh keys age out of the LRU.
    server.answer_cache_entries = 256;
    env->server = std::make_unique<blink::BlinkServer>(*env->db, server);
    BLINK_RETURN_IF_ERROR(env->server->Start());
  }
  env->start_s = Seconds(t, NowNs());
  env->setup_s = Seconds(process_start_ns, NowNs());

  env->rows = RowStore(generated.schema());
  env->rows.Append(generated);
  return blink::Status::Ok();
}

// ---------------------------------------------------------------------------
// ungrouped_bounded / grouped_bounded: one in-process closed-loop client.

namespace {

// Distinct queries per round, the queries run once before measuring, and
// the fewest measured rounds (each query's latency is a median over them).
constexpr size_t kUngroupedTrace = 1000;
constexpr size_t kGroupedTrace = 600;
constexpr size_t kWarmupQueries = 60;
constexpr size_t kMinRounds = 3;

}  // namespace

Outcome RunBounded(const Options& options, Env& env, bool grouped) {
  Outcome out;
  TraceShape shape;
  shape.grouped = grouped;
  blink::Rng rng(options.seed * 0x2545f4914f6cdd1dULL + (grouped ? 2 : 1));
  const size_t n = grouped ? kGroupedTrace : kUngroupedTrace;
  std::vector<TraceQuery> trace = MakeTrace(env.rows, shape, n, rng);
  std::vector<MatchCounts> matches(trace.size());

  TracedLayers traced;
  traced.runtime = std::make_unique<blink::QueryRuntime>(&env.db->samples(),
                                                         &env.db->cluster(), RuntimeSettings());
  auto run_one = [&](size_t i, uint64_t qid) {
    return options.trace ? TracedQuery(traced, *env.db, trace[i].sql, qid, &traced.layers)
                         : env.db->Query(trace[i].sql);
  };

  for (size_t i = 0; i < std::min<size_t>(kWarmupQueries, trace.size()); ++i) {
    (void)env.db->Query(trace[i].sql);
  }

  Quality quality;
  uint64_t zero_width_round = 0;
  // Every round runs the same queries; each query's latency is its median
  // over the rounds, which keeps a transient stall of the host out of the
  // distribution over distinct queries.
  std::vector<std::vector<double>> per_query_ms(trace.size());
  uint64_t qid = 0;
  const int64_t phase_start = NowNs();
  for (size_t round = 0;; ++round) {
    for (size_t i = 0; i < trace.size(); ++i) {
      ++out.attempted;
      const int64_t t0 = NowNs();
      auto answer = run_one(i, ++qid);
      const int64_t t1 = NowNs();
      if (!answer.ok()) {
        ++out.failed;
        std::fprintf(stderr, "query failed: %s: %s\n", trace[i].sql.c_str(),
                     answer.status().ToString().c_str());
        continue;
      }
      per_query_ms[i].push_back(Seconds(t0, t1) * 1e3);
      if (round == 0) {
        matches[i] = CountMatches(trace[i].spec, answer->report, *env.db);
        zero_width_round += ZeroWidthIn(trace[i], answer->result, answer->report);
      }
      CheckAnswer(trace[i].spec, trace[i].truth, answer->result, answer->report, matches[i],
                  &quality);
      if (options.trace && !TraceProtocol(traced.tracer, answer->result, answer->report, qid)) {
        out.correct = false;
        out.why = "FINAL frame did not decode";
      }
    }
    if (round + 1 >= kMinRounds && Seconds(phase_start, NowNs()) >= options.seconds) {
      break;
    }
  }
  FinishChecks(&out, quality);
  const std::vector<const Tracer*> tracers = {&traced.tracer};
  if (options.trace) {
    AddPerLayer(&out, env, tracers, traced.layers, quality, zero_width_round, IngestStats{});
    WriteTrace(options, tracers);
  } else {
    // Throughput over the same per-query medians: distinct queries per
    // second of their median latencies.
    std::vector<double> latencies_ms;
    double median_total_ms = 0.0;
    for (const auto& samples : per_query_ms) {
      if (!samples.empty()) {
        latencies_ms.push_back(Quantile(samples, 0.5));
        median_total_ms += latencies_ms.back();
      }
    }
    AddEndToEnd(&out, env, latencies_ms,
                median_total_ms > 0.0
                    ? static_cast<double>(latencies_ms.size()) / (median_total_ms * 1e-3)
                    : 0.0,
                quality, StoredBytesPerRow(*env.db));
  }
  return out;
}


// ---------------------------------------------------------------------------
// serve_cached: closed-loop clients over loopback to the in-process server.

namespace {

bool SameBits(const blink::QueryResult& a, const blink::QueryResult& b) {
  if (a.rows.size() != b.rows.size()) {
    return false;
  }
  for (size_t r = 0; r < a.rows.size(); ++r) {
    const auto& x = a.rows[r];
    const auto& y = b.rows[r];
    if (x.group_values != y.group_values || x.aggregates.size() != y.aggregates.size()) {
      return false;
    }
    for (size_t k = 0; k < x.aggregates.size(); ++k) {
      if (std::memcmp(&x.aggregates[k].value, &y.aggregates[k].value, sizeof(double)) != 0 ||
          std::memcmp(&x.aggregates[k].variance, &y.aggregates[k].variance,
                      sizeof(double)) != 0) {
        return false;
      }
    }
  }
  return true;
}

constexpr size_t kServeClients = 2;
constexpr size_t kWorkingSet = 48;
constexpr size_t kRoundAsks = 200;
constexpr size_t kFreshEvery = 20;       // one fresh key every 20 asks ...
constexpr size_t kFreshRetryAfter = 10;  // ... re-asked tighter 10 asks later
constexpr size_t kFreshPool = 2'500;     // fresh keys per client, for 250 rounds
constexpr double kZipfExponent = 1.0;
constexpr double kFreshLoose = 0.10;
constexpr double kFreshTight = 0.05;

// One client's plan and figures. The plan: a Zipf-skewed working set whose
// keys each have a tightest bound, and a pool of fresh keys, each asked once
// loose (a miss) and once tighter (a resume, or a hit when the loose answer
// already meets the tighter bound).
struct ServeClient {
  std::vector<TraceQuery> working;
  std::vector<double> tight;  // per working key
  std::vector<QuerySpec> fresh;

  TracedLayers traced;  // wire spans, layer probes and the cold-path runtime
  LayerStats layers;    // from the FINAL reports
  // Distinct answers (misses and resumes); cache hits, bit-identical replays
  // of a stored answer, are checked apart so repeats of hot keys do not
  // weight answer_rel_error.
  Quality answers;
  Quality hits;
  // Measured rounds repeat the same asks; latencies by position in the round.
  std::vector<std::vector<double>> per_position_ms =
      std::vector<std::vector<double>>(kRoundAsks);
  uint64_t completed = 0;
  double busy_s = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t zero_width_round = 0;
  std::string why;
};

QuerySpec WithBound(QuerySpec spec, double error) {
  spec.bound = QuerySpec::Bound::kError;
  spec.error = error;
  return spec;
}

void ServeClientLoop(const Options& options, const Env& env, uint16_t port, size_t index,
                     ServeClient* c) {
  blink::BlinkClient client;
  if (auto st = client.Connect("127.0.0.1", port, "blinkbench/1"); !st.ok()) {
    c->why = "connect: " + st.ToString();
    return;
  }
  Tracer& tracer = c->traced.tracer;
  std::map<std::string, blink::QueryResult> stored;  // last FINAL the cache stored per key
  uint64_t qid = static_cast<uint64_t>(index) << 40;
  bool measuring = false;
  bool count_zero_width = false;

  // `position` is the ask's index in its round.
  auto ask = [&](const QuerySpec& spec, const Truth& truth, size_t position) {
    const std::string sql = RenderSql(spec);
    const std::string key = ShapeKey(spec);
    ++qid;
    c->attempted += measuring ? 1 : 0;
    const int64_t t0 = NowNs();
    blink::Result<blink::QueryOutcome> outcome = blink::Status::Ok();
    {
      Scoped s(measuring && options.trace ? &tracer : nullptr, "client.query", qid);
      outcome = client.Query(sql);
    }
    const int64_t t1 = NowNs();
    if (!outcome.ok()) {
      c->failed += measuring ? 1 : 0;
      std::fprintf(stderr, "query failed: %s: %s\n", sql.c_str(),
                   outcome.status().ToString().c_str());
      return;
    }
    const blink::ExecutionReport& report = outcome->report;
    if (report.cache == "hit") {
      auto it = stored.find(key);
      if ((it == stored.end() || !SameBits(it->second, outcome->result)) && c->why.empty()) {
        c->why = "cache hit differs from the FINAL stored for its key: " + sql;
      }
    } else {
      stored[key] = outcome->result;
    }
    if (!measuring) {
      return;
    }
    c->per_position_ms[position].push_back(Seconds(t0, t1) * 1e3);
    ++c->completed;
    c->busy_s += Seconds(t0, t1);
    CheckAnswer(spec, truth, outcome->result, report, CountMatches(spec, report, *env.db),
                report.cache == "hit" ? &c->hits : &c->answers);
    if (count_zero_width) {
      Quality one;
      CheckAnswer(spec, truth, outcome->result, report, {}, &one);
      c->zero_width_round += one.zero_width_wrong;
    }
    if (!options.trace) {
      return;
    }
    c->layers.Add(report, outcome->partial_frames, outcome->partial_frames, 0);
    {
      Scoped s(&tracer, "sql.parse", qid);
      auto stmt = blink::ParseSelect(sql);
      s.Close();
      if (stmt.ok()) {
        Scoped r(&tracer, "api.resolve", qid);
        (void)env.db->Resolve(*stmt);
      }
    }
    if (!TraceProtocol(tracer, outcome->result, report, qid) && c->why.empty()) {
      c->why = "FINAL frame did not decode";
    }
    if (report.cache == "miss") {
      // The cold path the server ran, on a cache-less runtime of the same
      // config: runtime.execute and the exec.scan probes.
      (void)TracedQuery(c->traced, *env.db, sql, qid, nullptr);
    }
  };

  // Working set: each key first asked at the loose bound, then its tightest.
  for (size_t k = 0; k < c->working.size(); ++k) {
    ask(WithBound(c->working[k].spec, kFreshLoose), c->working[k].truth, 0);
    ask(WithBound(c->working[k].spec, c->tight[k]), c->working[k].truth, 0);
  }
  const blink::ZipfGenerator zipf(kZipfExponent, c->working.size());
  size_t next_fresh = 0;
  const size_t fresh_per_round = kRoundAsks / kFreshEvery;
  const int64_t phase_start = NowNs();
  // Round 0 warms up: it leaves the cache in the state every later round
  // starts from, so measured rounds repeat the same outcomes.
  for (size_t round = 0; next_fresh + fresh_per_round <= c->fresh.size(); ++round) {
    measuring = round > 0;
    count_zero_width = round == 1;
    blink::Rng draws(options.seed * 1000003ULL + index);  // same asks every round
    std::unique_ptr<Truth> fresh_truth;
    const QuerySpec* fresh = nullptr;
    for (size_t a = 0; a < kRoundAsks; ++a) {
      if (a % kFreshEvery == 0) {
        fresh = &c->fresh[next_fresh++];
        fresh_truth = std::make_unique<Truth>(*fresh);
        fresh_truth->Accumulate(env.rows, 0, env.rows.num_rows());
        ask(WithBound(*fresh, kFreshLoose), *fresh_truth, a);
      } else if (a % kFreshEvery == kFreshRetryAfter) {
        ask(WithBound(*fresh, kFreshTight), *fresh_truth, a);
        stored.erase(ShapeKey(*fresh));  // never asked again
      } else {
        const size_t k = static_cast<size_t>(zipf.Next(draws) - 1);
        // Any bound at or above the key's tightest: the stored answer meets it.
        const double bound =
            std::max(kErrorBounds[draws.NextBounded(kErrorBounds.size())], c->tight[k]);
        ask(WithBound(c->working[k].spec, bound), c->working[k].truth, a);
      }
    }
    if (round > 0 && Seconds(phase_start, NowNs()) >= options.seconds) {
      break;
    }
  }
  client.Close();
}

}  // namespace

Outcome RunServeCached(const Options& options, Env& env) {
  Outcome out;
  // Keys are unique across clients, so each client alone sees every FINAL
  // the cache stores for its keys.
  std::set<std::string> keys;
  blink::Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + 3);
  blink::Rng structure(kStructureSeed + 3);
  auto draw_unique = [&](bool grouped) {
    TraceShape shape;
    shape.grouped = grouped;
    shape.time_share = 0.0;  // time-bounded answers are never cached
    for (;;) {
      QuerySpec spec = GenerateQuery(env.rows, shape, structure, rng);
      if (keys.insert(ShapeKey(spec)).second) {
        return spec;
      }
    }
  };
  std::vector<ServeClient> clients(kServeClients);
  for (auto& c : clients) {
    for (size_t k = 0; k < kWorkingSet; ++k) {
      c.working.emplace_back(draw_unique(k % 2 == 1));
      c.working.back().truth.Accumulate(env.rows, 0, env.rows.num_rows());
      c.tight.push_back(rng.NextBernoulli(0.5) ? 0.02 : 0.05);
    }
    for (size_t f = 0; f < kFreshPool; ++f) {
      c.fresh.push_back(draw_unique(f % 2 == 1));
    }
    c.traced.runtime = std::make_unique<blink::QueryRuntime>(
        &env.db->samples(), &env.db->cluster(), RuntimeSettings());
  }
  std::vector<std::thread> threads;
  for (size_t i = 0; i < clients.size(); ++i) {
    threads.emplace_back(ServeClientLoop, std::cref(options), std::cref(env),
                         env.server->port(), i, &clients[i]);
  }
  for (auto& t : threads) {
    t.join();
  }
  env.server->Stop();

  Quality quality;
  Quality hits;
  LayerStats layers;
  std::vector<double> latencies_ms;
  std::vector<const Tracer*> tracers;
  double queries_per_s = 0.0;
  uint64_t zero_width_round = 0;
  for (auto& c : clients) {
    out.attempted += c.attempted;
    out.failed += c.failed;
    quality.Merge(c.answers);
    hits.Merge(c.hits);
    layers.Merge(c.layers);
    // Each position's latency is its median over the measured rounds.
    for (const auto& samples : c.per_position_ms) {
      if (!samples.empty()) {
        latencies_ms.push_back(Quantile(samples, 0.5));
      }
    }
    tracers.push_back(&c.traced.tracer);
    if (c.busy_s > 0.0) {
      queries_per_s += static_cast<double>(c.completed) / c.busy_s;
    }
    zero_width_round += c.zero_width_round;
    if (!c.why.empty() && out.why.empty()) {
      out.correct = false;
      out.why = c.why;
    }
  }
  Quality checked = quality;
  checked.Merge(hits);
  FinishChecks(&out, checked);
  if (options.trace) {
    AddPerLayer(&out, env, tracers, layers, checked, zero_width_round, IngestStats{});
    WriteTrace(options, tracers);
  } else {
    AddEndToEnd(&out, env, latencies_ms, queries_per_s, quality, StoredBytesPerRow(*env.db));
  }
  return out;
}

// ---------------------------------------------------------------------------
// ingest_live: appends, maintenance ticks and queries on one thread.

namespace {

constexpr uint64_t kBatchRows = 1'000;
constexpr size_t kQueriesPerBatch = 8;
// Each query runs this many times back to back on the same snapshot; its
// latency is the median, as in the bounded workloads.
constexpr size_t kQueryRepeats = 3;
constexpr size_t kIngestTrace = 1200;
constexpr size_t kWarmupBatches = 8;
// Measured batches per second of --seconds (about real time on a 4-core host).
constexpr double kBatchesPerSecond = 10.0;

// Rows of the runs present in `after` but not in `before`: what a tick wrote.
uint64_t RowsWritten(const blink::LeveledStore::Snapshot& before,
                     const blink::LeveledStore::Snapshot& after) {
  std::set<uint64_t> old_ids;
  for (const auto& run : before.runs) {
    old_ids.insert(run->id);
  }
  uint64_t rows = 0;
  for (const auto& run : after.runs) {
    if (old_ids.count(run->id) == 0) {
      rows += run->rows->num_rows();
    }
  }
  return rows;
}

}  // namespace

Outcome RunIngestLive(const Options& options, Env& env) {
  Outcome out;
  TraceShape shape;
  shape.grouped = false;
  blink::Rng rng(options.seed * 0x2545f4914f6cdd1dULL + 4);
  blink::Rng structure(kStructureSeed + 4);
  std::vector<TraceQuery> trace;
  for (size_t i = 0; i < kIngestTrace; ++i) {
    trace.emplace_back(GenerateQuery(env.rows, shape, structure, rng));
    trace.back().truth.Accumulate(env.rows, 0, env.rows.num_rows());
  }
  blink::Rng arrivals(options.seed * 0x9e3779b97f4a7c15ULL + 5);
  const uint64_t base_rows = env.rows.num_rows();

  TracedLayers traced;
  traced.runtime = std::make_unique<blink::QueryRuntime>(&env.db->samples(),
                                                         &env.db->cluster(), RuntimeSettings());
  Tracer* tr = options.trace ? &traced.tracer : nullptr;
  IngestStats ingest;
  Quality quality;
  std::vector<double> latencies_ms;
  double busy_s = 0.0;
  double stored_bytes = 0.0;
  uint64_t zero_width_round = 0;
  uint64_t appended = 0;
  uint64_t qid = 0;
  size_t next_query = 0;
  // The measured batches follow from --seconds at a fixed cadence rather
  // than from the clock, so every run appends the same rows and its reads
  // see the same store growth.
  const size_t batches =
      kWarmupBatches + static_cast<size_t>(std::llround(options.seconds * kBatchesPerSecond));
  for (size_t batch = 0; batch < batches; ++batch) {
    const bool measuring = batch >= kWarmupBatches;
    if (batch == kWarmupBatches) {
      stored_bytes = StoredBytesPerRow(*env.db);
    }
    // Append one batch, then one maintenance tick.
    blink::Table rows = blink::GenerateConvivaArrivals(env.data, kBatchRows, arrivals);
    const uint64_t first = env.rows.num_rows();
    env.rows.Append(rows);
    int64_t t0 = NowNs();
    blink::Result<uint64_t> version = blink::Status::Ok();
    {
      Scoped s(measuring ? tr : nullptr, "ingest.append", qid);
      version = env.db->Append(kTable, std::move(rows));
    }
    const double append_s = Seconds(t0, NowNs());
    // Snapshots around the tick: the runs it wrote are the rows it rewrote.
    const auto before = env.db->PinLevels(kTable);
    t0 = NowNs();
    blink::Result<bool> merged = blink::Status::Ok();
    {
      Scoped s(measuring ? tr : nullptr, "ingest.tick", qid);
      merged = env.db->MaintenanceTick(kTable);
    }
    const double tick_s = Seconds(t0, NowNs());
    if (!version.ok() || !merged.ok()) {
      out.correct = false;
      out.why = "ingest failed: " +
                (version.ok() ? merged.status().ToString() : version.status().ToString());
      break;
    }
    const auto after = env.db->PinLevels(kTable);
    appended += kBatchRows;
    for (auto& q : trace) {
      q.truth.Accumulate(env.rows, first, env.rows.num_rows());
    }
    if (measuring) {
      out.attempted += 2;
      ++ingest.batches;
      ingest.rows_appended += kBatchRows;
      ingest.merges += merged.value() ? 1 : 0;
      ingest.busy_s += append_s + tick_s;
      busy_s += append_s + tick_s;
      if (before.has_value() && after.has_value()) {
        ingest.rows_rewritten += RowsWritten(before->snapshot, after->snapshot);
      }
    }
    // Then the batch's share of bounded queries over the leveled store.
    for (size_t k = 0; k < kQueriesPerBatch; ++k) {
      const size_t index = next_query;
      TraceQuery& q = trace[index];
      next_query = (next_query + 1) % trace.size();
      blink::Result<blink::ApproxAnswer> answer = blink::Status::Ok();
      std::vector<double> repeats_ms;
      for (size_t r = 0; r < kQueryRepeats; ++r) {
        out.attempted += measuring ? 1 : 0;
        const int64_t t2 = NowNs();
        answer = options.trace && measuring
                     ? TracedQuery(traced, *env.db, q.sql, ++qid,
                                   r == 0 ? &traced.layers : nullptr)
                     : env.db->Query(q.sql);
        repeats_ms.push_back(Seconds(t2, NowNs()) * 1e3);
        if (!answer.ok()) {
          break;
        }
      }
      if (!answer.ok()) {
        out.failed += measuring ? 1 : 0;
        std::fprintf(stderr, "query failed: %s: %s\n", q.sql.c_str(),
                     answer.status().ToString().c_str());
        continue;
      }
      if (!measuring) {
        continue;
      }
      latencies_ms.push_back(Quantile(repeats_ms, 0.5));
      busy_s += latencies_ms.back() * 1e-3;
      CheckAnswer(q.spec, q.truth, answer->result, answer->report,
                  CountMatches(q.spec, answer->report, *env.db), &quality);
      if (batch < kWarmupBatches + kIngestTrace / kQueriesPerBatch) {
        Quality one;
        CheckAnswer(q.spec, q.truth, answer->result, answer->report, {}, &one);
        zero_width_round += one.zero_width_wrong;
      }
      if (options.trace && !TraceProtocol(traced.tracer, answer->result, answer->report, qid)) {
        out.correct = false;
        out.why = "FINAL frame did not decode";
      }
    }
  }
  // Every appended row is visible to an exact count.
  auto exact = env.db->QueryExact("SELECT COUNT(*) FROM sessions");
  const double want = static_cast<double>(base_rows + appended);
  if (!exact.ok() || exact->result.rows.size() != 1 ||
      exact->result.rows[0].aggregates[0].value != want) {
    out.correct = false;
    out.why = "exact COUNT(*) is not base rows plus appended rows";
  }
  FinishChecks(&out, quality);
  const std::vector<const Tracer*> tracers = {&traced.tracer};
  if (options.trace) {
    AddPerLayer(&out, env, tracers, traced.layers, quality, zero_width_round, ingest);
    WriteTrace(options, tracers);
  } else {
    AddEndToEnd(&out, env, latencies_ms,
                busy_s > 0.0 ? static_cast<double>(latencies_ms.size()) / busy_s : 0.0,
                quality, stored_bytes);
  }
  return out;
}

}  // namespace bench
