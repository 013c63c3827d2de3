#include "blinkbench/truth.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace bench {
namespace {

// Two-sided 95% normal quantile, written out rather than taken from the
// engine so the bound check does not share its code.
constexpr double kZ95 = 1.959963984540054;

const char* OpText(Op op) {
  switch (op) {
    case Op::kEq:
      return " = ";
    case Op::kLe:
      return " <= ";
    case Op::kGe:
      return " >= ";
  }
  return " = ";
}

std::string RenderLiteral(const blink::Value& v) {
  if (v.is_string()) {
    return "'" + v.AsString() + "'";
  }
  if (v.is_int()) {
    return std::to_string(v.AsInt());
  }
  // %.17g round-trips the double; the parser reads a literal without '.' as
  // an integer, so integral doubles keep an explicit fraction.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v.AsDouble());
  std::string s = buf;
  if (s.find_first_of(".en") == std::string::npos) {
    s += ".0";
  }
  return s;
}

template <typename T>
bool Compare(T a, Op op, T b) {
  switch (op) {
    case Op::kEq:
      return a == b;
    case Op::kLe:
      return a <= b;
    case Op::kGe:
      return a >= b;
  }
  return false;
}

// Tolerance for comparing the benchmark's sums with the engine's, which add
// the same values in another order.
double Tolerance(double truth) { return 1e-9 * std::fabs(truth) + 1e-9; }

void Fail(Quality* q, const std::string& why) {
  if (q->failures.size() < 5) {
    q->failures.push_back(why);
  }
}

}  // namespace

// --- RowStore ---------------------------------------------------------------

RowStore::RowStore(const blink::Schema& schema) {
  for (const auto& spec : schema.columns()) {
    Column c;
    c.name = spec.name;
    c.kind = spec.type == blink::DataType::kInt64    ? Kind::kInt
             : spec.type == blink::DataType::kDouble ? Kind::kDouble
                                                     : Kind::kString;
    columns_.push_back(std::move(c));
  }
}

void RowStore::Append(const blink::Table& rows) {
  for (size_t col = 0; col < columns_.size(); ++col) {
    Column& c = columns_[col];
    for (uint64_t r = 0; r < rows.num_rows(); ++r) {
      switch (c.kind) {
        case Kind::kInt:
          c.ints.push_back(rows.GetInt(col, r));
          break;
        case Kind::kDouble:
          c.doubles.push_back(rows.GetDouble(col, r));
          break;
        case Kind::kString: {
          const std::string& s = rows.GetString(col, r);
          auto [it, inserted] = c.index.emplace(s, static_cast<int64_t>(c.dict.size()));
          if (inserted) {
            c.dict.push_back(s);
          }
          c.ints.push_back(it->second);
          break;
        }
      }
    }
  }
  num_rows_ += rows.num_rows();
}

void RowStore::AppendRow(const std::vector<blink::Value>& cells) {
  for (size_t col = 0; col < columns_.size(); ++col) {
    Column& c = columns_[col];
    switch (c.kind) {
      case Kind::kInt:
        c.ints.push_back(cells[col].AsInt());
        break;
      case Kind::kDouble:
        c.doubles.push_back(cells[col].AsDouble());
        break;
      case Kind::kString: {
        auto [it, inserted] =
            c.index.emplace(cells[col].AsString(), static_cast<int64_t>(c.dict.size()));
        if (inserted) {
          c.dict.push_back(cells[col].AsString());
        }
        c.ints.push_back(it->second);
        break;
      }
    }
  }
  ++num_rows_;
}

int RowStore::Find(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

int64_t RowStore::CodeOf(int col, const std::string& s) const {
  const auto& index = column(col).index;
  auto it = index.find(s);
  return it == index.end() ? -1 : it->second;
}

// --- SQL rendering ----------------------------------------------------------

std::string RenderSql(const QuerySpec& spec) {
  std::string sql = "SELECT ";
  if (!spec.group_column.empty()) {
    sql += spec.group_column + ", ";
  }
  switch (spec.agg) {
    case Agg::kCount:
      sql += "COUNT(*)";
      break;
    case Agg::kSum:
      sql += "SUM(" + spec.agg_column + ")";
      break;
    case Agg::kAvg:
      sql += "AVG(" + spec.agg_column + ")";
      break;
  }
  sql += " FROM sessions";
  if (!spec.disjuncts.empty()) {
    sql += " WHERE ";
    const bool many = spec.disjuncts.size() > 1;
    for (size_t d = 0; d < spec.disjuncts.size(); ++d) {
      if (d > 0) {
        sql += " OR ";
      }
      const auto& conj = spec.disjuncts[d];
      const bool paren = many && conj.size() > 1;
      if (paren) {
        sql += "(";
      }
      for (size_t i = 0; i < conj.size(); ++i) {
        if (i > 0) {
          sql += " AND ";
        }
        sql += conj[i].column + OpText(conj[i].op) + RenderLiteral(conj[i].literal);
      }
      if (paren) {
        sql += ")";
      }
    }
  }
  if (!spec.group_column.empty()) {
    sql += " GROUP BY " + spec.group_column;
  }
  if (spec.bound == QuerySpec::Bound::kError) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " ERROR WITHIN %g%% AT CONFIDENCE 95%%",
                  spec.error * 100.0);
    sql += buf;
  } else {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " WITHIN %g SECONDS", spec.seconds);
    sql += buf;
  }
  return sql;
}

std::string GroupKey(const blink::Value& v) {
  if (v.is_string()) {
    return "s:" + v.AsString();
  }
  if (v.is_int()) {
    return "i:" + std::to_string(v.AsInt());
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "d:%.17g", v.AsDouble());
  return buf;
}

// --- Truth ------------------------------------------------------------------

void Truth::Accumulate(const RowStore& rows, uint64_t begin, uint64_t end) {
  if (end <= begin) {
    return;
  }
  const uint64_t n = end - begin;
  // Column-at-a-time: one match byte per row, OR over disjuncts of the AND
  // over each disjunct's leaves.
  std::vector<uint8_t> match(n, spec_.disjuncts.empty() ? 1 : 0);
  std::vector<uint8_t> conj(n);
  for (const auto& disjunct : spec_.disjuncts) {
    std::fill(conj.begin(), conj.end(), 1);
    for (const Leaf& leaf : disjunct) {
      const int col = rows.Find(leaf.column);
      const RowStore::Column& c = rows.column(col);
      if (c.kind == RowStore::Kind::kString) {
        const int64_t code = rows.CodeOf(col, leaf.literal.AsString());
        for (uint64_t i = 0; i < n; ++i) {
          conj[i] &= static_cast<uint8_t>(c.ints[begin + i] == code);
        }
      } else if (c.kind == RowStore::Kind::kInt) {
        const int64_t lit = leaf.literal.AsInt();
        for (uint64_t i = 0; i < n; ++i) {
          conj[i] &= static_cast<uint8_t>(Compare(c.ints[begin + i], leaf.op, lit));
        }
      } else {
        const double lit = leaf.literal.AsDouble();
        for (uint64_t i = 0; i < n; ++i) {
          conj[i] &= static_cast<uint8_t>(Compare(c.doubles[begin + i], leaf.op, lit));
        }
      }
    }
    for (uint64_t i = 0; i < n; ++i) {
      match[i] |= conj[i];
    }
  }

  const int agg_col = spec_.agg_column.empty() ? -1 : rows.Find(spec_.agg_column);
  const int group_col = spec_.group_column.empty() ? -1 : rows.Find(spec_.group_column);
  if (group_col < 0) {
    TruthCell& cell = cells_[""];
    for (uint64_t i = 0; i < n; ++i) {
      if (match[i] != 0) {
        cell.count += 1.0;
        if (agg_col >= 0) {
          cell.sum += rows.column(agg_col).doubles[begin + i];
        }
      }
    }
    return;
  }
  // Grouped: accumulate by raw group value, then name the groups.
  const RowStore::Column& g = rows.column(group_col);
  std::unordered_map<int64_t, TruthCell> by_value;
  for (uint64_t i = 0; i < n; ++i) {
    if (match[i] != 0) {
      TruthCell& cell = by_value[g.ints[begin + i]];
      cell.count += 1.0;
      if (agg_col >= 0) {
        cell.sum += rows.column(agg_col).doubles[begin + i];
      }
    }
  }
  for (const auto& [value, cell] : by_value) {
    const std::string key = g.kind == RowStore::Kind::kString
                                ? "s:" + g.dict[static_cast<size_t>(value)]
                                : "i:" + std::to_string(value);
    TruthCell& out = cells_[key];
    out.count += cell.count;
    out.sum += cell.sum;
  }
}

bool Truth::Value(const std::string& group, double* out) const {
  auto it = cells_.find(group);
  if (it == cells_.end()) {
    return false;
  }
  const TruthCell& c = it->second;
  switch (spec_.agg) {
    case Agg::kCount:
      *out = c.count;
      return true;
    case Agg::kSum:
      if (c.count == 0.0) {
        return false;
      }
      *out = c.sum;
      return true;
    case Agg::kAvg:
      if (c.count == 0.0) {
        return false;
      }
      *out = c.sum / c.count;
      return true;
  }
  return false;
}

// --- TableMatcher -----------------------------------------------------------

TableMatcher::TableMatcher(const QuerySpec& spec, const blink::Table& table)
    : table_(table) {
  for (const auto& disjunct : spec.disjuncts) {
    std::vector<BoundLeaf> bound;
    for (const Leaf& leaf : disjunct) {
      BoundLeaf b;
      b.col = *table.schema().FindColumn(leaf.column);
      b.op = leaf.op;
      b.type = table.schema().column(b.col).type;
      if (b.type == blink::DataType::kString) {
        b.code = table.column(b.col).dict->Find(leaf.literal.AsString());
      } else if (b.type == blink::DataType::kInt64) {
        b.ival = leaf.literal.AsInt();
      } else {
        b.dval = leaf.literal.AsDouble();
      }
      bound.push_back(b);
    }
    disjuncts_.push_back(std::move(bound));
  }
  if (!spec.group_column.empty()) {
    group_col_ = static_cast<int>(*table.schema().FindColumn(spec.group_column));
  }
}

bool TableMatcher::Matches(uint64_t row) const {
  if (disjuncts_.empty()) {
    return true;
  }
  for (const auto& disjunct : disjuncts_) {
    bool all = true;
    for (const BoundLeaf& b : disjunct) {
      bool ok = false;
      if (b.type == blink::DataType::kString) {
        ok = b.code >= 0 && table_.GetStringCode(b.col, row) == b.code;
      } else if (b.type == blink::DataType::kInt64) {
        ok = Compare(table_.GetInt(b.col, row), b.op, b.ival);
      } else {
        ok = Compare(table_.GetDouble(b.col, row), b.op, b.dval);
      }
      if (!ok) {
        all = false;
        break;
      }
    }
    if (all) {
      return true;
    }
  }
  return false;
}

std::string TableMatcher::Group(uint64_t row) const {
  if (group_col_ < 0) {
    return "";
  }
  const size_t col = static_cast<size_t>(group_col_);
  if (table_.schema().column(col).type == blink::DataType::kString) {
    return "s:" + table_.GetString(col, row);
  }
  return "i:" + std::to_string(table_.GetInt(col, row));
}

// --- Checks -----------------------------------------------------------------

void Quality::Merge(const Quality& o) {
  answers += o.answers;
  cells += o.cells;
  rel_error_sum += o.rel_error_sum;
  rel_errors.insert(rel_errors.end(), o.rel_errors.begin(), o.rel_errors.end());
  interval_cells += o.interval_cells;
  interval_covered += o.interval_covered;
  eligible_cells += o.eligible_cells;
  eligible_covered += o.eligible_covered;
  zero_width_wrong += o.zero_width_wrong;
  unknown_groups += o.unknown_groups;
  bound_violations += o.bound_violations;
  for (const auto& f : o.failures) {
    if (failures.size() < 5) {
      failures.push_back(f);
    }
  }
}

double Quality::MeanRelError() const {
  return cells == 0 ? 0.0 : rel_error_sum / static_cast<double>(cells);
}

double Quality::MedianRelError() const {
  if (rel_errors.empty()) {
    return 0.0;
  }
  std::vector<double> v = rel_errors;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  if (v.size() % 2 == 1) {
    return v[mid];
  }
  return (*std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid)) + v[mid]) /
         2.0;
}

double Quality::Coverage() const {
  return interval_cells == 0 ? 1.0
                             : static_cast<double>(interval_covered) /
                                   static_cast<double>(interval_cells);
}

double Quality::EligibleCoverage() const {
  return eligible_cells == 0 ? 1.0
                             : static_cast<double>(eligible_covered) /
                                   static_cast<double>(eligible_cells);
}

double RecomputedError(const blink::QueryResult& result) {
  double worst = 0.0;
  for (const auto& row : result.rows) {
    for (const auto& est : row.aggregates) {
      if (est.variance > 0.0 && est.value != 0.0) {
        worst = std::max(worst, kZ95 * std::sqrt(est.variance) / std::fabs(est.value));
      }
    }
  }
  return worst;
}

void CheckAnswer(const QuerySpec& spec, const Truth& truth,
                 const blink::QueryResult& result, const blink::ExecutionReport& report,
                 const MatchCounts& matches, Quality* q) {
  ++q->answers;
  const bool sampled = report.family != "exact";
  for (const auto& row : result.rows) {
    const std::string group = row.group_values.empty() ? "" : GroupKey(row.group_values[0]);
    const blink::Estimate& est = row.aggregates.at(0);
    double t = 0.0;
    if (!truth.Value(group, &t)) {
      // Ungrouped aggregates over no matching rows have no truth; a group
      // the data does not hold is a wrong answer.
      if (!group.empty()) {
        ++q->unknown_groups;
        Fail(q, "group " + group + " not in truth: " + RenderSql(spec));
      }
      continue;
    }
    if (t != 0.0) {
      ++q->cells;
      q->rel_errors.push_back(std::fabs(est.value - t) / std::fabs(t));
      q->rel_error_sum += q->rel_errors.back();
    }
    const double tol = Tolerance(t);
    if (est.variance <= 0.0 && std::fabs(est.value - t) > tol) {
      ++q->zero_width_wrong;
    }
    if (!sampled) {
      continue;
    }
    const double half = kZ95 * std::sqrt(std::max(0.0, est.variance));
    const bool covered = std::fabs(est.value - t) <= half + tol;
    ++q->interval_cells;
    q->interval_covered += covered ? 1 : 0;
    auto m = matches.find(group);
    if (m != matches.end() && m->second >= kMinMatches) {
      ++q->eligible_cells;
      q->eligible_covered += covered ? 1 : 0;
    }
  }
  // An answer that stopped because its error rule was met must honour the
  // bound by the benchmark's own recomputation from the returned variances.
  if (spec.bound == QuerySpec::Bound::kError && report.stopped_early && !report.cancelled) {
    const double err = RecomputedError(result);
    const double bound = report.effective_error_bound > 0.0 ? report.effective_error_bound
                                                            : spec.error;
    if (err > bound * (1.0 + 1e-9)) {
      ++q->bound_violations;
      char buf[96];
      std::snprintf(buf, sizeof(buf), "error %.6g over bound %.6g: ", err, bound);
      Fail(q, buf + RenderSql(spec));
    }
  }
}

bool QualityPasses(const Quality& q, std::string* why) {
  if (q.unknown_groups > 0) {
    *why = std::to_string(q.unknown_groups) + " answer groups absent from the truth";
    return false;
  }
  if (q.bound_violations > 0) {
    *why = std::to_string(q.bound_violations) + " error-stopped answers over their bound";
    return false;
  }
  if (q.eligible_cells >= kMinEligibleCells && q.EligibleCoverage() < kCoverageFloor) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "coverage %.4f over %llu cells below floor %.2f",
                  q.EligibleCoverage(), static_cast<unsigned long long>(q.eligible_cells),
                  kCoverageFloor);
    *why = buf;
    return false;
  }
  return true;
}

}  // namespace bench
