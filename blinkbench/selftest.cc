// Hand-worked checks of the benchmark's ground truth and answer checks,
// including deliberately wrong answers the checks must reject.
#include <cmath>
#include <cstdio>
#include <string>

#include "blinkbench/truth.h"
#include "blinkbench/workloads.h"

namespace bench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  }
}

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b)); }

blink::Schema TinySchema() {
  return blink::Schema({{"dt", blink::DataType::kInt64},
                        {"os", blink::DataType::kString},
                        {"sessiontimems", blink::DataType::kDouble}});
}

// dt  os  sessiontimems
//  1  a   10
//  1  b   20
//  2  a   30
//  2  a   40
//  3  b   50
const std::vector<std::vector<blink::Value>> kTinyRows = {
    {blink::Value(int64_t{1}), blink::Value("a"), blink::Value(10.0)},
    {blink::Value(int64_t{1}), blink::Value("b"), blink::Value(20.0)},
    {blink::Value(int64_t{2}), blink::Value("a"), blink::Value(30.0)},
    {blink::Value(int64_t{2}), blink::Value("a"), blink::Value(40.0)},
    {blink::Value(int64_t{3}), blink::Value("b"), blink::Value(50.0)},
};

Leaf L(const std::string& column, Op op, blink::Value v) { return Leaf{column, op, v}; }

QuerySpec Spec(Agg agg, std::vector<std::vector<Leaf>> where, const std::string& group) {
  QuerySpec s;
  s.agg = agg;
  s.agg_column = agg == Agg::kCount ? "" : "sessiontimems";
  s.disjuncts = std::move(where);
  s.group_column = group;
  return s;
}

blink::ResultRow Row(const std::string& group_os, double value, double variance) {
  blink::ResultRow r;
  if (!group_os.empty()) {
    r.group_values.push_back(blink::Value(group_os));
  }
  r.aggregates.push_back(blink::Estimate{value, variance});
  return r;
}

void TestTruth(const RowStore& rows) {
  // COUNT(*) WHERE dt = 2 -> rows 3, 4.
  Truth count(Spec(Agg::kCount, {{L("dt", Op::kEq, blink::Value(int64_t{2}))}}, ""));
  count.Accumulate(rows, 0, rows.num_rows());
  double v = 0.0;
  Expect(count.Value("", &v) && v == 2.0, "COUNT WHERE dt = 2 is 2");

  // SUM WHERE os = 'a' GROUP BY dt -> dt 1: 10, dt 2: 30 + 40.
  Truth sum(Spec(Agg::kSum, {{L("os", Op::kEq, blink::Value("a"))}}, "dt"));
  sum.Accumulate(rows, 0, rows.num_rows());
  Expect(sum.cells().size() == 2, "SUM GROUP BY dt has two groups");
  Expect(sum.Value("i:1", &v) && v == 10.0, "SUM for dt 1 is 10");
  Expect(sum.Value("i:2", &v) && v == 70.0, "SUM for dt 2 is 70");
  Expect(!sum.Value("i:3", &v), "dt 3 has no os = 'a' row");

  // AVG WHERE dt = 1 OR (os = 'b' AND dt >= 3) -> rows 1, 2, 5: 80 / 3.
  Truth avg(Spec(Agg::kAvg,
                 {{L("dt", Op::kEq, blink::Value(int64_t{1}))},
                  {L("os", Op::kEq, blink::Value("b")), L("dt", Op::kGe, blink::Value(int64_t{3}))}},
                 ""));
  avg.Accumulate(rows, 0, 3);  // incremental: rows 1-3, then rows 4-5
  avg.Accumulate(rows, 3, rows.num_rows());
  Expect(avg.Value("", &v) && Near(v, 80.0 / 3.0), "AVG over the disjunction is 80/3");

  // COUNT WHERE sessiontimems >= 30 GROUP BY os -> a: 2, b: 1.
  Truth by_os(Spec(Agg::kCount, {{L("sessiontimems", Op::kGe, blink::Value(30.0))}}, "os"));
  by_os.Accumulate(rows, 0, rows.num_rows());
  Expect(by_os.Value("s:a", &v) && v == 2.0, "COUNT for os a is 2");
  Expect(by_os.Value("s:b", &v) && v == 1.0, "COUNT for os b is 1");

  // COUNT WHERE dt <= 1 -> rows 1, 2; an absent string -> 0, and no AVG.
  Truth le(Spec(Agg::kCount, {{L("dt", Op::kLe, blink::Value(int64_t{1}))}}, ""));
  le.Accumulate(rows, 0, rows.num_rows());
  Expect(le.Value("", &v) && v == 2.0, "COUNT WHERE dt <= 1 is 2");
  Truth none(Spec(Agg::kCount, {{L("os", Op::kEq, blink::Value("zzz"))}}, ""));
  none.Accumulate(rows, 0, rows.num_rows());
  Expect(none.Value("", &v) && v == 0.0, "COUNT of an absent value is 0");
  Truth none_avg(Spec(Agg::kAvg, {{L("os", Op::kEq, blink::Value("zzz"))}}, ""));
  none_avg.Accumulate(rows, 0, rows.num_rows());
  Expect(!none_avg.Value("", &v), "AVG of no rows has no truth");

  Expect(RenderSql(avg.spec()) ==
             "SELECT AVG(sessiontimems) FROM sessions WHERE dt = 1 OR (os = 'b' AND dt >= 3) "
             "ERROR WITHIN 5% AT CONFIDENCE 95%",
         "SQL rendering of a disjunction");
  QuerySpec timed = by_os.spec();
  timed.bound = QuerySpec::Bound::kTime;
  timed.seconds = 2.0;
  Expect(RenderSql(timed) ==
             "SELECT os, COUNT(*) FROM sessions WHERE sessiontimems >= 30.0 GROUP BY os "
             "WITHIN 2 SECONDS",
         "SQL rendering of a grouped time-bounded query");
}

void TestMatcher() {
  blink::Table table(TinySchema());
  for (const auto& r : kTinyRows) {
    (void)table.AppendRow(r);
  }
  const QuerySpec spec = Spec(Agg::kCount, {{L("os", Op::kEq, blink::Value("a")),
                                             L("dt", Op::kGe, blink::Value(int64_t{2}))}},
                              "os");
  const TableMatcher m(spec, table);
  int matched = 0;
  for (uint64_t r = 0; r < table.num_rows(); ++r) {
    matched += m.Matches(r) ? 1 : 0;
  }
  Expect(matched == 2, "engine-table matcher finds rows 3 and 4");
  Expect(m.Group(2) == "s:a", "engine-table matcher names the group");
}

void TestChecks(const RowStore& rows) {
  Truth by_os(Spec(Agg::kCount, {{L("sessiontimems", Op::kGe, blink::Value(30.0))}}, "os"));
  by_os.Accumulate(rows, 0, rows.num_rows());
  blink::ExecutionReport report;
  report.family = "uniform";

  // A correct answer passes with zero error.
  {
    blink::QueryResult ok;
    ok.rows = {Row("a", 2.0, 0.01), Row("b", 1.0, 0.01)};
    Quality q;
    CheckAnswer(by_os.spec(), by_os, ok, report, {}, &q);
    std::string why;
    Expect(QualityPasses(q, &why) && q.MeanRelError() == 0.0 && q.Coverage() == 1.0,
           "a correct answer passes");
  }
  // Injected wrong answer: a group the data does not hold.
  {
    blink::QueryResult bad;
    bad.rows = {Row("a", 2.0, 0.01), Row("c", 1.0, 0.01)};
    Quality q;
    CheckAnswer(by_os.spec(), by_os, bad, report, {}, &q);
    std::string why;
    Expect(q.unknown_groups == 1 && !QualityPasses(q, &why), "an invented group fails");
  }
  // Injected wrong answer: stopped by its error rule but over its bound.
  // 1.959963984540054 * sqrt(25) / 100 = 0.0979981992270027 > 0.05.
  {
    blink::QueryResult wide;
    wide.rows = {Row("a", 100.0, 25.0)};
    Expect(Near(RecomputedError(wide), 0.0979981992270027), "recomputed error by hand");
    blink::ExecutionReport stopped = report;
    stopped.stopped_early = true;
    Quality q;
    CheckAnswer(by_os.spec(), by_os, wide, stopped, {}, &q);
    std::string why;
    Expect(q.bound_violations == 1 && !QualityPasses(q, &why),
           "an error-stopped answer over its bound fails");
    // |100 - 2| / 2 = 49.
    Expect(Near(q.MeanRelError(), 49.0), "relative error by hand");
    // Cells with errors 0, 0 (the correct answer) and 49: median 0, mean 49/3.
    blink::QueryResult ok;
    ok.rows = {Row("a", 2.0, 0.01), Row("b", 1.0, 0.01)};
    CheckAnswer(by_os.spec(), by_os, ok, report, {}, &q);
    Expect(q.MedianRelError() == 0.0 && Near(q.MeanRelError(), 49.0 / 3.0),
           "median and mean cell error by hand");
  }
  // Injected wrong answers: intervals that miss the truth on enough
  // eligible cells drop coverage under the floor.
  {
    Quality q;
    blink::QueryResult miss;
    miss.rows = {Row("a", 3.0, 0.01)};  // truth 2, half-width 0.196
    const MatchCounts matches = {{"s:a", kMinMatches}};
    for (uint64_t i = 0; i < kMinEligibleCells; ++i) {
      CheckAnswer(by_os.spec(), by_os, miss, report, matches, &q);
    }
    std::string why;
    Expect(q.eligible_cells == kMinEligibleCells && q.EligibleCoverage() == 0.0 &&
               !QualityPasses(q, &why),
           "intervals that miss the truth fail the coverage floor");
  }
  // A zero-width interval away from the truth is counted.
  {
    blink::QueryResult zero;
    zero.rows = {Row("a", 1.0, 0.0)};
    Quality q;
    CheckAnswer(by_os.spec(), by_os, zero, report, {}, &q);
    Expect(q.zero_width_wrong == 1 && q.Coverage() == 0.0, "zero-width miss is counted");
  }
}

}  // namespace

int SelfTest() {
  failures = 0;
  RowStore rows(TinySchema());
  for (const auto& r : kTinyRows) {
    rows.AppendRow(r);
  }
  TestTruth(rows);
  TestMatcher();
  TestChecks(rows);
  return failures;
}

}  // namespace bench
