// Seeded query generation for the benchmark's workloads, in structured form.
#ifndef BLINKBENCH_QUERIES_H_
#define BLINKBENCH_QUERIES_H_

#include <string>
#include <vector>

#include "blinkbench/truth.h"
#include "src/util/rng.h"

namespace bench {

struct TraceShape {
  // Every query groups by one of kGroupColumns (else none does).
  bool grouped = false;
  // Share of queries whose WHERE is a 2-4-way disjunction of template
  // conjunctions (the §4.1.2 union path).
  double disjunctive_share = 0.35;
  // Share of queries bounded by WITHIN n SECONDS instead of ERROR WITHIN.
  double time_share = 0.25;
};

// GROUP BY columns with 2 to 200 groups.
extern const std::vector<std::string> kGroupColumns;
// Error bounds of the ERROR WITHIN queries, as fractions.
extern const std::vector<double> kErrorBounds;
// Budgets of the WITHIN n SECONDS queries.
extern const std::vector<double> kTimeBounds;

// Draws one query: a weighted Conviva template (ConvivaTemplates) supplies
// the predicate columns, constants come from randomly drawn rows, and the
// aggregate is COUNT(*), SUM or AVG of a session metric. `structure` draws
// the query's shape (aggregate, templates, disjuncts, group column, bound)
// and `values` its constants: seeding `structure` the same for every
// workload seed keeps the mix of shapes identical across seeds.
QuerySpec GenerateQuery(const RowStore& rows, const TraceShape& shape, blink::Rng& structure,
                        blink::Rng& values);

// The seed of the shape stream: fixed, so only data and constants vary.
constexpr uint64_t kStructureSeed = 0x51ed2701ULL;

// The SQL of `spec` without its bound clause: the answer-cache identity of
// the query, which excludes the bound.
std::string ShapeKey(const QuerySpec& spec);

}  // namespace bench

#endif  // BLINKBENCH_QUERIES_H_
