// Tests for the ledger's own code: exact percentiles and their refusal,
// per-op best times, the answer and determinism checks, the self-time
// layer table, and the op streams and payload-erase victims.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <string>

#include "checks.h"
#include "common/random.h"
#include "core/eclipse.h"
#include "dataset/columnar.h"
#include "dataset/generators.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace ledger {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

double At(const std::vector<double>& v, double q) {
  return SupportedPercentile(v, q, /*min_beyond=*/0)->value;
}

TEST(LedgerStats, NearestRankOnKnownSamples) {
  const std::vector<double> v = OneTo(100);
  EXPECT_EQ(At(v, 0.5), 50.0);
  EXPECT_EQ(At(v, 0.9), 90.0);
  EXPECT_EQ(At(v, 0.99), 99.0);
  EXPECT_EQ(At(v, 1.0), 100.0);
  EXPECT_EQ(At(v, 0.001), 1.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.0);  // lower middle
}

TEST(LedgerStats, PercentileIgnoresInputOrder) {
  std::vector<double> v = OneTo(1000);
  std::reverse(v.begin(), v.end());
  auto p = SupportedPercentile(v, 0.99);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->value, 990.0);
  EXPECT_EQ(p->samples, 1000u);
  EXPECT_EQ(p->beyond, 10u);
}

TEST(LedgerStats, BestPerOpTakesEachOpsLeastTimeOverReplays) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> replays = {
      {5.0, 2.0, 9.0, nan}, {4.0, 3.0, 9.5, 7.0}, {6.0, 2.5, 8.0, 6.0}};
  EXPECT_EQ(BestPerOp(replays), (std::vector<double>{4.0, 2.0, 8.0, 6.0}));
  EXPECT_EQ(BestPerOp({{1.0, 2.0}}), (std::vector<double>{1.0, 2.0}));
  EXPECT_TRUE(BestPerOp({}).empty());
}

TEST(LedgerStats, RefusesPercentileWithFewerThanTenBeyond) {
  // 100 samples: p99 has 1 sample beyond it, p90 exactly 10.
  EXPECT_FALSE(SupportedPercentile(OneTo(100), 0.99).has_value());
  auto p90 = SupportedPercentile(OneTo(100), 0.90);
  ASSERT_TRUE(p90.has_value());
  EXPECT_EQ(p90->value, 90.0);
  EXPECT_EQ(p90->beyond, 10u);
  // p50 of 19 samples has 9 beyond; of 21, 10.
  EXPECT_FALSE(SupportedPercentile(OneTo(19), 0.5).has_value());
  EXPECT_TRUE(SupportedPercentile(OneTo(21), 0.5).has_value());
  EXPECT_FALSE(SupportedPercentile({}, 0.5).has_value());
}

eclipse::PointSet Inde(size_t n, size_t d, uint64_t seed) {
  eclipse::Rng rng(seed);
  return eclipse::GenerateSynthetic(eclipse::Distribution::kIndependent, n, d,
                                    &rng);
}

TEST(LedgerChecks, AnswerCheckCatchesPlantedWrongId) {
  auto snap = *eclipse::ColumnarSnapshot::FromPointSet(Inde(500, 3, 7));
  const auto box = *eclipse::RatioBox::Uniform(2, 0.4, 2.5);
  auto want = OracleAnswer(*snap, box);
  ASSERT_TRUE(want.ok());
  ASSERT_GE(want->size(), 2u);
  EXPECT_EQ(CompareAnswer(*want, *want), "");

  std::vector<PointId> wrong = *want;
  wrong[1] = wrong[0] == 499 ? 498 : 499;  // an id outside the answer
  std::sort(wrong.begin(), wrong.end());
  EXPECT_NE(CompareAnswer(wrong, *want), "");

  std::vector<PointId> missing(want->begin() + 1, want->end());
  EXPECT_NE(CompareAnswer(missing, *want), "");
  std::vector<PointId> extra = *want;
  extra.push_back(extra.back() + 1);
  EXPECT_NE(CompareAnswer(extra, *want), "");
}

TEST(LedgerChecks, OracleMapsRowsToStableIdsAfterMutations) {
  auto snap = *eclipse::ColumnarSnapshot::FromPointSet(Inde(300, 3, 11));
  const auto box = *eclipse::RatioBox::Uniform(2, 0.5, 2.0);
  const auto before = *OracleAnswer(*snap, box);
  // Erase a non-member and insert a dominated point: the answer keeps its
  // stable ids although every later row index shifts.
  eclipse::PointId victim = 0;
  while (std::binary_search(before.begin(), before.end(), victim)) ++victim;
  auto erased = *snap->Erase(victim);
  auto grown = *erased->Insert(std::vector<double>{0.99, 0.99, 0.99});
  ASSERT_FALSE(grown->ids_are_row_indices());
  EXPECT_EQ(CompareAnswer(*OracleAnswer(*grown, box), before), "");
}

TEST(LedgerChecks, DeterminismCheckCatchesChangedCount) {
  const EventCounts a = {{"answered_by.diagram", 900}, {"cache.hits", 0}};
  EXPECT_TRUE(DiffCounts(a, a).empty());
  EventCounts changed = a;
  changed["cache.hits"] = 1;
  auto diffs = DiffCounts(a, changed);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_NE(diffs[0].find("cache.hits"), std::string::npos);
  EventCounts missing = a;
  missing.erase("cache.hits");
  EXPECT_EQ(DiffCounts(a, missing).size(), 1u);
  EventCounts extra = a;
  extra["diagram.drops"] = 0;
  EXPECT_EQ(DiffCounts(a, extra).size(), 1u);
}

TEST(LedgerChecks, CountRecordRoundTrips) {
  const EventCounts a = {{"answered_by.bbs_tree", 12}, {"ops.failed", 0}};
  auto parsed = ParseCounts(FormatCounts(a));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, a);
  EXPECT_FALSE(ParseCounts("cache.hits twelve\n").ok());
  EXPECT_FALSE(ParseCounts("cache.hits 1 2\n").ok());
}

TEST(LedgerSpans, RowsPlusOtherSumToEndToEndTime) {
  SpanLog log;
  // op 0: 10 us end to end; plan 1 us, a one-shot of 6 us whose two
  // stages take 2 + 3 us (1 us self).
  int32_t root = log.Add("op.query", 0, 10'000, -1, 0);
  log.Add("engine.plan", 10'000, 11'000, root, 0);
  int32_t oneshot = log.Add("core.oneshot", 11'000, 17'000, root, 0);
  log.Add("core.embed", 17'000, 19'000, oneshot, 0);
  log.Add("skyline.flat", 19'000, 22'000, oneshot, 0);
  // op 1: 4 us; plan 1 us, called twice (0.5 us each).
  root = log.Add("op.query", 30'000, 34'000, -1, 1);
  log.Add("engine.plan", 34'000, 34'500, root, 1);
  log.Add("engine.plan", 34'500, 35'000, root, 1);

  const SpanLog* logs[] = {&log};
  const LayerTable table = BuildLayerTable(logs);
  EXPECT_EQ(table.ops, 2u);
  EXPECT_DOUBLE_EQ(table.mean_op_us, 7.0);
  double sum = 0.0, share = 0.0;
  for (const LayerRow& row : table.rows) {
    sum += row.mean_us_per_op;
    share += row.share_pct;
  }
  EXPECT_NEAR(sum, table.mean_op_us, 1e-9);
  EXPECT_NEAR(share, 100.0, 1e-9);
  EXPECT_EQ(table.rows.back().name, "other");
  // other: op 0 has 10 - 1 - 6 = 3 us self, op 1 has 4 - 1 = 3 us.
  EXPECT_DOUBLE_EQ(table.Find("other")->mean_us_per_op, 3.0);
  EXPECT_DOUBLE_EQ(table.Find("core.oneshot")->median_us, 1.0);
  EXPECT_EQ(table.Find("engine.plan")->ops, 2u);
  EXPECT_DOUBLE_EQ(table.Find("engine.plan")->median_us, 1.0);
  EXPECT_DOUBLE_EQ(table.LayerSharePct("skyline"), 100.0 * 3.0 / 14.0);
  EXPECT_EQ(table.Find("diagram.query"), nullptr);
}

TEST(LedgerWorkloads, StreamsAreAFunctionOfTheSeed) {
  const WorkloadSpec& spec = *FindWorkload("write_mix");
  const auto popular = PopularBoxes(5, spec.d, spec.popular_boxes);
  OpStream a(spec, 42, 0, &popular), b(spec, 42, 0, &popular);
  OpStream other_client(spec, 42, 1, &popular);
  bool differs = false;
  for (int i = 0; i < 200; ++i) {
    const Op x = a.Next(), y = b.Next(), z = other_client.Next();
    ASSERT_EQ(x.cls, y.cls);
    ASSERT_EQ(x.box.ToString(), y.box.ToString());
    ASSERT_EQ(x.point, y.point);
    ASSERT_EQ(x.pick, y.pick);
    differs |= x.cls != z.cls || x.box.ToString() != z.box.ToString();
  }
  EXPECT_TRUE(differs);
}

TEST(LedgerWorkloads, WriteSequenceIsTheSameForEverySeed) {
  const WorkloadSpec& spec = *FindWorkload("write_mix");
  const auto popular = PopularBoxes(5, spec.d, spec.popular_boxes);
  auto writes = [&](uint64_t seed) {
    OpStream stream(spec, seed, 0, &popular);
    std::vector<std::pair<eclipse::Point, uint64_t>> out;
    while (out.size() < 100) {
      const Op op = stream.Next();
      if (!IsQuery(op.cls)) out.emplace_back(op.point, op.pick);
    }
    return out;
  };
  EXPECT_EQ(writes(1), writes(2));
}

TEST(LedgerWorkloads, EveryBlockHoldsTheExactMix) {
  for (const WorkloadSpec& spec : Workloads()) {
    const auto popular = PopularBoxes(1, spec.d, spec.popular_boxes);
    OpStream stream(spec, 9, 0, &popular);
    std::map<OpClass, size_t> want;
    for (OpClass cls : spec.block) ++want[cls];
    for (int block = 0; block < 5; ++block) {
      std::map<OpClass, size_t> got;
      for (size_t i = 0; i < spec.block.size(); ++i) ++got[stream.Next().cls];
      EXPECT_EQ(got, want) << spec.name;
    }
  }
}

TEST(LedgerWorkloads, ScheduledFrontierInsertsAndPayloadErases) {
  const WorkloadSpec& spec = *FindWorkload("write_mix");
  const auto popular = PopularBoxes(1, spec.d, spec.popular_boxes);
  OpStream stream(spec, 4, 0, &popular);
  size_t inserts = 0, erases = 0, op_index = 0;
  std::vector<size_t> frontier, payload, frontier_at, payload_at;
  while (erases < 3 * kPayloadEraseEvery) {
    const Op op = stream.Next();
    if (op.cls == OpClass::kInsert) {
      if (*std::max_element(op.point.begin(), op.point.end()) < 0.01) {
        frontier.push_back(inserts);
        frontier_at.push_back(op_index);
      }
      ++inserts;
    } else if (op.cls == OpClass::kErase) {
      if (op.payload_member) {
        payload.push_back(erases);
        payload_at.push_back(op_index);
      }
      ++erases;
    }
    ++op_index;
  }
  EXPECT_EQ(payload, (std::vector<size_t>{25, 25 + kPayloadEraseEvery,
                                          25 + 2 * kPayloadEraseEvery}));
  ASSERT_GE(frontier.size(), 7u);
  for (size_t i = 0; i < frontier.size(); ++i) {
    EXPECT_EQ(frontier[i], 50 + i * kFrontierInsertEvery);
  }
  // The first payload erase meets the set-up eclipse before any frontier
  // insert has evicted it from the diagram's root payload.
  EXPECT_LT(payload_at.front(), frontier_at.front());
}

TEST(LedgerWorkloads, RepeatsDealEveryPopularBoxEquallyOften) {
  const WorkloadSpec& spec = *FindWorkload("write_mix");
  const auto popular = PopularBoxes(1, spec.d, spec.popular_boxes);
  for (uint64_t seed : {1, 2, 3}) {
    OpStream stream(spec, seed, 0, &popular);
    std::map<std::string, size_t> dealt;
    size_t repeats = 0;
    while (repeats < 4 * popular.size()) {
      const Op op = stream.Next();
      if (op.cls != OpClass::kRepeat) continue;
      ++dealt[op.box.ToString()];
      ++repeats;
    }
    ASSERT_EQ(dealt.size(), popular.size()) << seed;
    for (const auto& [box, count] : dealt) EXPECT_EQ(count, 4u) << box;
  }
}

TEST(LedgerWorkloads, PayloadVictimSkipsErasedIdsAndWraps) {
  const std::vector<PointId> eclipse = {3, 8, 15, 40};
  std::set<PointId> erased;
  auto live = [&](PointId id) { return !erased.contains(id); };
  EXPECT_EQ(PayloadVictim(eclipse, 5, live), PointId{8});  // 5 % 4 = 1
  erased = {8, 15};
  EXPECT_EQ(PayloadVictim(eclipse, 5, live), PointId{40});
  erased = {8, 15, 40};
  EXPECT_EQ(PayloadVictim(eclipse, 5, live), PointId{3});  // wraps around
  erased = {3, 8, 15, 40};
  EXPECT_FALSE(PayloadVictim(eclipse, 5, live).has_value());
  EXPECT_FALSE(PayloadVictim({}, 5, live).has_value());
  erased = {};
  // A pick near 2^64 starts at pick % size, like any other.
  EXPECT_EQ(PayloadVictim(eclipse, ~uint64_t{0}, live), PointId{40});
}

TEST(LedgerWorkloads, BoxesHaveTheirClassShape) {
  eclipse::Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const auto bounded = BoundedBox(&rng, 4);
    EXPECT_FALSE(bounded.AnyUnbounded());
    EXPECT_EQ(bounded.dims(), 4u);
    const auto one = HalfOpenBox(&rng, 4, HalfOpenShape::kOneRatio);
    size_t open = 0;
    for (const auto& r : one.ranges()) open += r.unbounded();
    EXPECT_EQ(open, 1u);
    const auto every = HalfOpenBox(&rng, 7, HalfOpenShape::kEverySecond);
    for (size_t j = 0; j < every.num_ratios(); ++j) {
      EXPECT_EQ(every.range(j).unbounded(), j % 2 == 1);
    }
  }
}

}  // namespace
}  // namespace ledger
