// Independent ground truth for the benchmark.
//
// Queries are generated in a structured form (QuerySpec) and rendered to SQL
// from it. Truth is computed from the structured form with plain loops over
// the benchmark's own copy of the rows it generated (RowStore) — never
// through the engine's executors — and answers are checked against it.
#ifndef BLINKBENCH_TRUTH_H_
#define BLINKBENCH_TRUTH_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/exec/executor.h"
#include "src/runtime/query_runtime.h"
#include "src/storage/table.h"

namespace bench {

// The benchmark's own columnar copy of the generated rows. Strings are
// interned into the store's own dictionaries.
class RowStore {
 public:
  enum class Kind { kInt, kDouble, kString };
  struct Column {
    std::string name;
    Kind kind = Kind::kInt;
    std::vector<int64_t> ints;      // kInt values; kString codes
    std::vector<double> doubles;    // kDouble values
    std::vector<std::string> dict;  // kString: code -> string
    std::unordered_map<std::string, int64_t> index;
  };

  RowStore() = default;
  explicit RowStore(const blink::Schema& schema);

  // Copies every row of `rows` (whose schema must match) with a plain loop.
  void Append(const blink::Table& rows);
  // Appends one row of literal cells, in schema order (self-test tables).
  void AppendRow(const std::vector<blink::Value>& cells);

  uint64_t num_rows() const { return num_rows_; }
  int Find(const std::string& name) const;  // -1 when absent
  const Column& column(int i) const { return columns_[static_cast<size_t>(i)]; }
  // Code of a string in column `col`'s dictionary, -1 when the store never saw it.
  int64_t CodeOf(int col, const std::string& s) const;

 private:
  std::vector<Column> columns_;
  uint64_t num_rows_ = 0;
};

enum class Agg { kCount, kSum, kAvg };
enum class Op { kEq, kLe, kGe };

struct Leaf {
  std::string column;
  Op op = Op::kEq;
  blink::Value literal;  // int, double or string, matching the column type
};

struct QuerySpec {
  Agg agg = Agg::kCount;
  std::string agg_column;  // empty for COUNT(*)
  // OR of ANDs; empty = no WHERE clause.
  std::vector<std::vector<Leaf>> disjuncts;
  std::string group_column;  // empty = ungrouped
  enum class Bound { kError, kTime } bound = Bound::kError;
  double error = 0.05;    // relative, kError
  double seconds = 0.0;   // kTime
};

std::string RenderSql(const QuerySpec& spec);

// Group identity shared by truth and answers: "i:<int>" or "s:<string>";
// "" for the single cell of an ungrouped query.
std::string GroupKey(const blink::Value& v);

struct TruthCell {
  double count = 0.0;
  double sum = 0.0;
};

// Running truth of one query: per-group COUNT and SUM of matching rows.
class Truth {
 public:
  explicit Truth(const QuerySpec& spec) : spec_(spec) {}
  // Folds rows [begin, end) of `rows` into the running aggregates.
  void Accumulate(const RowStore& rows, uint64_t begin, uint64_t end);
  // The aggregate's true value for a group; false when no row matched it
  // (for COUNT of an ungrouped query the single cell always exists).
  bool Value(const std::string& group, double* out) const;
  const std::map<std::string, TruthCell>& cells() const { return cells_; }
  const QuerySpec& spec() const { return spec_; }

 private:
  QuerySpec spec_;
  std::map<std::string, TruthCell> cells_;
};

// Matches of `spec`'s WHERE clause on row `row` of an engine table (used to
// count the sampled rows a sample prefix holds per group).
class TableMatcher {
 public:
  TableMatcher(const QuerySpec& spec, const blink::Table& table);
  bool Matches(uint64_t row) const;
  std::string Group(uint64_t row) const;

 private:
  struct BoundLeaf {
    size_t col = 0;
    Op op = Op::kEq;
    blink::DataType type = blink::DataType::kInt64;
    int64_t ival = 0;
    double dval = 0.0;
    int32_t code = -1;  // string literal's code in the table's dictionary
  };
  const blink::Table& table_;
  std::vector<std::vector<BoundLeaf>> disjuncts_;
  int group_col_ = -1;
};

// Accumulated answer-quality figures over many answers.
struct Quality {
  uint64_t answers = 0;
  uint64_t cells = 0;             // answer cells whose truth is nonzero
  double rel_error_sum = 0.0;     // sum of |est - truth| / |truth| over them
  std::vector<double> rel_errors; // ... and each of them
  uint64_t interval_cells = 0;    // sampled cells whose truth is known
  uint64_t interval_covered = 0;  // ... whose truth lies in the 95% interval
  uint64_t eligible_cells = 0;    // ... with >= kMinMatches sampled matches
  uint64_t eligible_covered = 0;
  uint64_t zero_width_wrong = 0;  // zero-width interval, truth != estimate
  uint64_t unknown_groups = 0;    // answer groups the truth lacks
  uint64_t bound_violations = 0;  // error-stopped answers over their bound
  std::vector<std::string> failures;  // first few check failures, for stderr

  void Merge(const Quality& other);
  double MeanRelError() const;
  // answer_rel_error: the median cell's relative error. The mean is printed
  // beside it; single-sampled-row estimates give it a heavy tail that moves
  // it between seeds far more than the median.
  double MedianRelError() const;
  double Coverage() const;
  double EligibleCoverage() const;
};

// Sampled matches a cell needs before its interval counts toward the
// coverage check.
constexpr uint64_t kMinMatches = 30;
// The coverage check's floor over eligible cells (nominal 95%).
constexpr double kCoverageFloor = 0.75;
// Below this many eligible cells the coverage figure is too noisy to gate on.
constexpr uint64_t kMinEligibleCells = 200;

// Per-group sampled matches of an answer; empty when they cannot be counted.
using MatchCounts = std::map<std::string, uint64_t>;

// Checks one answer against its truth and folds the result into `q`.
// `matches` gives per-group sampled match counts (may be empty).
void CheckAnswer(const QuerySpec& spec, const Truth& truth,
                 const blink::QueryResult& result, const blink::ExecutionReport& report,
                 const MatchCounts& matches, Quality* q);

// The relative error at 95% confidence the benchmark recomputes from an
// answer's variances: max over cells with nonzero value and variance.
double RecomputedError(const blink::QueryResult& result);

// True when the run's figures pass every per-run gate.
bool QualityPasses(const Quality& q, std::string* why);

}  // namespace bench

#endif  // BLINKBENCH_TRUTH_H_
