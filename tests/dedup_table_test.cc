// exec::DedupTable, the one row-dedup structure of every read path, checked
// against a std::set<Row> reference: the same accept/reject decision for
// every insert, the same distinct rows in first-seen order, at widths 0-4,
// under heavy duplication and across many rehashes. Then the evaluator's
// streaming CountAnswers, which keeps only the table, against the size of
// the materialized DISTINCT answer on both join routes.
#include "exec/dedup_table.h"

#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "query/evaluator.h"
#include "query/query.h"
#include "rdf/triple_store.h"

namespace wdr::exec {
namespace {

using Row = std::vector<Value>;

// Inserts every row into a fresh table and into the reference set, in
// order, and checks that both agree on each insert and on the final rows.
void ExpectMatchesReference(size_t width, const std::vector<Row>& rows) {
  DedupTable table(width);
  std::set<Row> reference;
  std::vector<Row> first_seen;
  for (const Row& row : rows) {
    ASSERT_EQ(row.size(), width);
    const bool fresh = reference.insert(row).second;
    ASSERT_EQ(table.Insert(row.data()), fresh) << "width " << width;
    if (fresh) first_seen.push_back(row);
  }
  ASSERT_EQ(table.size(), reference.size());
  EXPECT_EQ(table.duplicates(), rows.size() - reference.size());
  for (size_t i = 0; i < first_seen.size(); ++i) {
    EXPECT_EQ(Row(table.row(i), table.row(i) + width), first_seen[i])
        << "row " << i << " at width " << width;
  }
}

std::vector<Row> RandomRows(Rng& rng, size_t width, size_t count,
                            int64_t domain) {
  std::vector<Row> rows(count, Row(width));
  for (Row& row : rows) {
    for (Value& v : row) v = static_cast<Value>(rng.Uniform(0, domain - 1));
  }
  return rows;
}

TEST(DedupTableTest, EmptyTableHoldsNothing) {
  DedupTable table(3);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.duplicates(), 0u);
}

// Width 0 is ASK or an empty projection: every row is equal, so the first
// insert is new and every later one a duplicate.
TEST(DedupTableTest, WidthZeroKeepsOneRow) {
  DedupTable table(0);
  EXPECT_TRUE(table.Insert(nullptr));
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(table.Insert(nullptr));
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.duplicates(), 100u);
}

TEST(DedupTableTest, MatchesSetReferenceAtEveryWidth) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    for (size_t width = 0; width <= 4; ++width) {
      // A tiny domain makes almost every insert a duplicate; a wide one
      // makes almost every insert new.
      for (int64_t domain : {int64_t{2}, int64_t{5}, int64_t{1000},
                             int64_t{1} << 32}) {
        const size_t count = static_cast<size_t>(rng.Uniform(0, 600));
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " domain "
                                          << domain << " count " << count);
        ExpectMatchesReference(width, RandomRows(rng, width, count, domain));
      }
    }
  }
}

// 5,000 distinct rows take the slot array from 16 to 16,384 slots (ten
// rehashes); every row must stay findable and in place across them.
TEST(DedupTableTest, GrowsAcrossRehashesKeepingFirstSeenOrder) {
  Rng rng(7);
  for (size_t width = 1; width <= 4; ++width) {
    std::vector<Row> rows;
    for (Value i = 0; i < 5000; ++i) {
      Row row(width, i % 3);
      row[width - 1] = i;  // distinct in the last column
      rows.push_back(row);
    }
    // Every row again, shuffled: all duplicates.
    std::vector<Row> again = rows;
    for (size_t i = again.size(); i > 1; --i) {
      std::swap(again[i - 1],
                again[static_cast<size_t>(rng.Uniform(0, i - 1))]);
    }
    rows.insert(rows.end(), again.begin(), again.end());
    ExpectMatchesReference(width, rows);
  }
}

// Extreme ids (0 is the unbound marker in projected rows, UINT32_MAX is
// the largest id) are ordinary values to the table.
TEST(DedupTableTest, ExtremeValuesAreOrdinaryRows) {
  const Value max = UINT32_MAX;
  ExpectMatchesReference(2, {{0, 0}, {max, max}, {0, max}, {max, 0},
                             {0, 0}, {max, max}, {0, max}, {max, 0}});
}

}  // namespace
}  // namespace wdr::exec

namespace wdr::query {
namespace {

// Random store over a small id range, so joins repeat projected rows.
rdf::TripleStore RandomStore(Rng& rng) {
  rdf::TripleStore store;
  for (int i = 0; i < 400; ++i) {
    store.Insert(rdf::Triple(static_cast<TermId>(rng.Uniform(1, 30)),
                             static_cast<TermId>(rng.Uniform(31, 33)),
                             static_cast<TermId>(rng.Uniform(1, 30))));
  }
  return store;
}

// DISTINCT (?a p ?b . ?b q ?c) projecting the first `width` of a, b, c.
BgpQuery PathQuery(size_t width, TermId p, TermId q) {
  BgpQuery query;
  query.SetDistinct(true);
  const VarId a = query.AddVar("a");
  const VarId b = query.AddVar("b");
  const VarId c = query.AddVar("c");
  query.AddAtom(TriplePattern{PatternTerm::Variable(a),
                              PatternTerm::Constant(p),
                              PatternTerm::Variable(b)});
  query.AddAtom(TriplePattern{PatternTerm::Variable(b),
                              PatternTerm::Constant(q),
                              PatternTerm::Variable(c)});
  const VarId vars[] = {a, b, c};
  for (size_t i = 0; i < width; ++i) query.Project(vars[i]);
  return query;
}

TEST(DedupTableTest, CountAnswersEqualsDistinctEvaluateOnBothRoutes) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    const rdf::TripleStore store = RandomStore(rng);
    for (bool plan : {false, true}) {
      EvaluatorOptions options;
      options.plan = plan;
      const Evaluator evaluator(store, options);
      for (size_t width = 0; width <= 3; ++width) {
        const BgpQuery q = PathQuery(width, 31, 32);
        const ResultSet rows = evaluator.Evaluate(q);
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " plan "
                                          << plan << " width " << width);
        EXPECT_EQ(evaluator.CountAnswers(q), rows.rows.size());
        // The evaluated rows are already distinct.
        const std::set<Row> distinct(rows.rows.begin(), rows.rows.end());
        EXPECT_EQ(distinct.size(), rows.rows.size());
        if (width == 0) {
          EXPECT_LE(rows.rows.size(), 1u);
        }
      }
    }
  }
}

}  // namespace
}  // namespace wdr::query
