#include "blinkbench/queries.h"

#include "src/workload/conviva.h"

namespace bench {

const std::vector<std::string> kGroupColumns = {"endedflag", "os", "dt", "isp",
                                                "country"};
const std::vector<double> kErrorBounds = {0.02, 0.05, 0.10};
const std::vector<double> kTimeBounds = {2.0, 5.0, 10.0};

namespace {

const char* kMetrics[] = {"sessiontimems", "bufferingms", "jointimems", "bitrate"};

// A leaf on `column` whose constant is the column's value in a random row:
// equality on categorical columns, ranges on continuous columns and on the
// high-cardinality integer keys (equality there selects a handful of rows).
Leaf DrawLeaf(const RowStore& rows, const std::string& column, blink::Rng& rng) {
  const int col = rows.Find(column);
  const RowStore::Column& c = rows.column(col);
  const uint64_t row = rng.NextBounded(rows.num_rows());
  Leaf leaf;
  leaf.column = column;
  switch (c.kind) {
    case RowStore::Kind::kString:
      leaf.op = Op::kEq;
      leaf.literal = blink::Value(c.dict[static_cast<size_t>(c.ints[row])]);
      break;
    case RowStore::Kind::kDouble:
      leaf.op = Op::kGe;
      leaf.literal = blink::Value(c.doubles[row]);
      break;
    case RowStore::Kind::kInt:
      leaf.op = column == "customer_id" || column == "asn" ? Op::kLe : Op::kEq;
      leaf.literal = blink::Value(c.ints[row]);
      break;
  }
  return leaf;
}

const blink::WorkloadTemplate& DrawTemplate(
    const std::vector<blink::WorkloadTemplate>& templates, blink::Rng& rng) {
  double total = 0.0;
  for (const auto& t : templates) {
    total += t.weight;
  }
  double u = rng.NextDouble() * total;
  for (const auto& t : templates) {
    if (u < t.weight) {
      return t;
    }
    u -= t.weight;
  }
  return templates.back();
}

std::vector<Leaf> DrawConjunction(const RowStore& rows, const std::string& group_column,
                                  blink::Rng& structure, blink::Rng& values) {
  static const std::vector<blink::WorkloadTemplate> templates = blink::ConvivaTemplates();
  std::vector<Leaf> conj;
  for (const auto& column : DrawTemplate(templates, structure).columns) {
    if (column != group_column) {
      conj.push_back(DrawLeaf(rows, column, values));
    }
  }
  return conj;
}

}  // namespace

QuerySpec GenerateQuery(const RowStore& rows, const TraceShape& shape, blink::Rng& structure,
                        blink::Rng& values) {
  QuerySpec spec;
  switch (structure.NextBounded(3)) {
    case 0:
      spec.agg = Agg::kCount;
      break;
    case 1:
      spec.agg = Agg::kSum;
      break;
    default:
      spec.agg = Agg::kAvg;
      break;
  }
  if (spec.agg != Agg::kCount) {
    spec.agg_column = kMetrics[structure.NextBounded(4)];
  }
  if (shape.grouped) {
    spec.group_column = kGroupColumns[structure.NextBounded(kGroupColumns.size())];
  }
  const size_t disjuncts =
      structure.NextBernoulli(shape.disjunctive_share) ? 2 + structure.NextBounded(3) : 1;
  for (size_t d = 0; d < disjuncts; ++d) {
    auto conj = DrawConjunction(rows, spec.group_column, structure, values);
    if (!conj.empty()) {
      spec.disjuncts.push_back(std::move(conj));
    }
  }
  if (structure.NextBernoulli(shape.time_share)) {
    spec.bound = QuerySpec::Bound::kTime;
    spec.seconds = kTimeBounds[structure.NextBounded(kTimeBounds.size())];
  } else {
    spec.bound = QuerySpec::Bound::kError;
    spec.error = kErrorBounds[structure.NextBounded(kErrorBounds.size())];
  }
  return spec;
}

std::string ShapeKey(const QuerySpec& spec) {
  const std::string sql = RenderSql(spec);
  const size_t cut = sql.rfind(spec.bound == QuerySpec::Bound::kError ? " ERROR WITHIN "
                                                                      : " WITHIN ");
  return sql.substr(0, cut);
}

}  // namespace bench
