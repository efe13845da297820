// The serving-ledger benchmark driver.
//
//   ledger_bench --workload NAME --seed N --seconds S --trace 0|1
//                [--source-digest HEX] [--git-sha SHA] [--counts-dir DIR]
//
// Runs one workload (workloads.h) against the public EclipseEngine /
// ShardedEclipseEngine API with default options, in a closed loop: a
// client sends its next op only when the previous one returns. Every op is
// timed from outside with steady_clock; percentiles are exact order
// statistics. A deterministic sample of answers is checked against a
// one-shot EclipseCornerSkyline over the snapshot the op captured.
//
// --trace 0 measures the end-to-end metrics over several repetitions, each
// a fresh set-up followed by the same op stream (workloads.h); the latency
// and throughput metrics come from each op's best time over the
// repetitions (stats.h, BestPerOp).
// --trace 1 runs one repetition's ops twice on fresh engines: untraced,
// then traced. The traced pass times, around each op, the layers' public
// functions on the op's own inputs (spans.h) and prints the per-layer
// table; the two passes must agree on every engine event count.
//
// The last stdout line is one JSON object: correct, attempted, failed, and
// the metrics of the mode. Everything above it is a human-readable report.
// Exit 0 only when every check passed.

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <latch>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "checks.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/corner_kernel.h"
#include "core/eclipse.h"
#include "core/eclipse_index.h"
#include "dataset/columnar.h"
#include "dataset/generators.h"
#include "diagram/eclipse_diagram.h"
#include "engine/eclipse_engine.h"
#include "engine/result_cache.h"
#include "index/packed_rtree.h"
#include "shard/merge.h"
#include "shard/sharded_engine.h"
#include "skyline/bbs.h"
#include "skyline/flat_skyline.h"
#include "spans.h"
#include "stats.h"
#include "stream/delta_maintainer.h"
#include "telemetry/build_info.h"
#include "workloads.h"

#ifndef LEDGER_BUILD_TYPE
#define LEDGER_BUILD_TYPE "unknown"
#endif

namespace ledger {
namespace {

using eclipse::ColumnarSnapshot;
using eclipse::EclipseEngine;
using eclipse::EngineOptions;
using eclipse::EngineQueryStats;
using eclipse::PlanInputs;
using eclipse::PointSet;
using eclipse::QueryPlan;
using eclipse::RatioBox;
using eclipse::Result;
using eclipse::ShardedEclipseEngine;
using eclipse::ShardedQueryStats;
using eclipse::Status;

// ------------------------------------------------------------------ args --

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string source_digest = "unknown";
  std::string git_sha = "unknown";
  std::string counts_dir;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  auto number = [&](const char* text, uint64_t* out) {
    char* end = nullptr;
    errno = 0;
    *out = std::strtoull(text, &end, 10);
    return errno == 0 && end != text && *end == '\0';
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const char* value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed" && number(value, &n)) {
      args->seed = n;
    } else if (flag == "--seconds" && number(value, &n) && n >= 1 &&
               n <= 600) {
      args->seconds = int(n);
    } else if (flag == "--trace" && number(value, &n) && n <= 1) {
      args->trace = int(n);
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else if (flag == "--counts-dir") {
      args->counts_dir = value;
    } else {
      *error = "bad flag or value: " + flag + " " + value;
      return false;
    }
  }
  if (FindWorkload(args->workload) == nullptr) {
    *error = "unknown --workload '" + args->workload + "'";
    return false;
  }
  if (args->seconds == 0 || args->trace < 0) {
    *error = "--seconds and --trace are required";
    return false;
  }
  return true;
}

// ------------------------------------------------------- serving target --

/// The engine under test: one EclipseEngine, or a ShardedEclipseEngine.
struct Target {
  std::optional<EclipseEngine> single;
  std::optional<ShardedEclipseEngine> sharded;

  std::vector<const EclipseEngine*> engines() const {
    std::vector<const EclipseEngine*> out;
    if (single) out.push_back(&*single);
    if (sharded) {
      for (size_t s = 0; s < sharded->num_shards(); ++s) {
        out.push_back(&sharded->shard(s));
      }
    }
    return out;
  }
  const eclipse::ResultCache& front_cache() const {
    return single ? single->cache() : sharded->cache();
  }
  size_t structure_bytes() const {
    size_t bytes = 0;
    for (const auto& f : single ? single->StructureFootprints()
                                : sharded->StructureFootprints()) {
      bytes += f.bytes;
    }
    return bytes;
  }
  uint64_t lazy_builds() const {
    // Sharded engines share one registry across shards.
    auto registry = single ? single->metrics() : sharded->metrics();
    if (registry == nullptr) return 0;
    const auto snap = registry->Snapshot();
    auto it = snap.counters.find("engine.build.count");
    return it == snap.counters.end() ? 0 : it->second;
  }
};

Result<Target> MakeTarget(const WorkloadSpec& spec, PointSet data) {
  Target target;
  if (spec.shards == 0) {
    auto engine = EclipseEngine::Make(std::move(data));
    if (!engine.ok()) return engine.status();
    target.single.emplace(std::move(engine).value());
  } else {
    eclipse::ShardedEngineOptions options;
    options.num_shards = spec.shards;
    auto engine = ShardedEclipseEngine::Make(std::move(data), options);
    if (!engine.ok()) return engine.status();
    target.sharded.emplace(std::move(engine).value());
  }
  return target;
}

// ------------------------------------------------------------- planning --

bool InsideDomain(const RatioBox& box, const EngineOptions& options) {
  for (size_t j = 0; j < box.num_ratios(); ++j) {
    const eclipse::RatioRange& q = box.range(j);
    const eclipse::RatioRange& d = options.index.domain.empty()
                                       ? eclipse::kDefaultIndexDomainRange
                                       : options.index.domain[j];
    if (q.lo < d.lo || q.hi > d.hi) return false;
  }
  return true;
}

RatioBox DomainBox(const EngineOptions& options, size_t d) {
  std::vector<eclipse::RatioRange> ranges = options.index.domain;
  if (ranges.empty()) ranges.assign(d - 1, eclipse::kDefaultIndexDomainRange);
  return *RatioBox::Make(std::move(ranges));
}

/// The diagram build options an engine derives from its own options.
eclipse::DiagramOptions DiagramOptionsOf(const EngineOptions& o) {
  eclipse::DiagramOptions d;
  d.max_cells = o.diagram_max_cells;
  d.target_payload = o.diagram_target_payload;
  d.max_candidates = o.diagram_max_candidates;
  d.algorithm = o.algorithm;
  return d;
}

/// The plan inputs of `box` on `engine` once every lazy-build counter has
/// passed its threshold: what the engine routes to in steady state.
PlanInputs SteadyInputs(const EclipseEngine& engine, const RatioBox& box) {
  const auto snap = engine.snapshot();
  PlanInputs in;
  in.n = snap->size();
  in.d = snap->dims();
  in.bounded = !box.AnyUnbounded();
  in.degenerate = box.AllDegenerate();
  in.inside_domain = in.bounded && InsideDomain(box, engine.options());
  const size_t saturated = size_t{1} << 30;
  in.eligible_queries = saturated;
  in.bbs_eligible_queries = saturated;
  in.diagram_eligible_queries = saturated;
  in.index_built = engine.index_built();
  in.tree_built = engine.bbs_tree_built();
  in.diagram_built = engine.diagram_built();
  return in;
}

/// The serving tier a plan routes to, ignoring a cache hit.
std::string PlanTier(const QueryPlan& plan) {
  if (plan.uses_diagram) return "diagram";
  if (plan.uses_index) return "index";
  if (plan.uses_tree) return "bbs-tree";
  return "one-shot";
}

/// True while `box` would still trigger (or is still counting toward) a
/// lazy structure build on `engine`.
bool BuildPending(const EclipseEngine& engine, const RatioBox& box) {
  const QueryPlan now = engine.Explain(box);
  if (now.will_build_index || now.will_build_tree || now.will_build_diagram) {
    return true;
  }
  const QueryPlan steady =
      eclipse::ChoosePlan(SteadyInputs(engine, box), engine.options());
  return PlanTier(steady) != PlanTier(now) || steady.will_build_index ||
         steady.will_build_tree || steady.will_build_diagram;
}

// ---------------------------------------------------------------- tiers --

constexpr std::array<const char*, 5> kTiers = {"cache", "diagram", "index",
                                               "bbs_tree", "one_shot"};

size_t TierIndex(const std::string& answered_by) {
  if (answered_by == "cache") return 0;
  if (answered_by == "diagram") return 1;
  if (answered_by == "index") return 2;
  if (answered_by == "bbs-tree") return 3;
  return 4;
}

// ---------------------------------------------------------------- set-up --

/// Sends warm-up queries (their own seed) of every query class the workload
/// sends until no lazy build is pending for any of them, then caches the
/// repeat set. Fails if structures are still pending after 64 rounds.
Status WarmUp(Target* target, const WorkloadSpec& spec, uint64_t seed,
              const std::vector<RatioBox>& popular) {
  eclipse::Rng rng(DeriveSeed(seed, 300));
  std::vector<OpClass> classes;
  for (OpClass cls : spec.block) {
    if (IsQuery(cls) && cls != OpClass::kRepeat &&
        std::find(classes.begin(), classes.end(), cls) == classes.end()) {
      classes.push_back(cls);
    }
  }
  auto query = [&](const RatioBox& box) -> Status {
    auto r = target->single ? target->single->Query(box)
                            : target->sharded->Query(box);
    return r.status();
  };
  bool pending = true;
  for (int round = 0; round < 64 && pending; ++round) {
    std::vector<RatioBox> reps;
    for (OpClass cls : classes) {
      RatioBox box = cls == OpClass::kBounded
                         ? BoundedBox(&rng, spec.d)
                         : cls == OpClass::kHalfOpen
                               ? HalfOpenBox(&rng, spec.d, spec.half_open)
                               : RatioBox::Skyline(spec.d - 1);
      ECLIPSE_RETURN_IF_ERROR(query(box));
      reps.push_back(std::move(box));
    }
    pending = false;
    for (const EclipseEngine* engine : target->engines()) {
      for (const RatioBox& box : reps) pending |= BuildPending(*engine, box);
    }
  }
  if (pending) {
    return Status::Internal("lazy builds still pending after 64 warm-up rounds");
  }
  std::vector<RatioBox> repeat_set = popular;
  if (std::find(spec.block.begin(), spec.block.end(), OpClass::kSkyline) !=
      spec.block.end()) {
    repeat_set.push_back(RatioBox::Skyline(spec.d - 1));
  }
  for (const RatioBox& box : repeat_set) {
    ECLIPSE_RETURN_IF_ERROR(query(box));
    const bool cached = target->single
                            ? target->single->Explain(box).cache_hit
                            : target->sharded->Explain(box).cache_hit;
    if (!cached) return Status::Internal("repeat box not cached after warm-up");
  }
  return Status::OK();
}

struct SetUp {
  Target target;
  double seconds = 0.0;
};

/// Make + warm-up, timed. Copying the dataset is not part of set-up.
Result<SetUp> TimedSetUp(const WorkloadSpec& spec, const PointSet& data,
                         uint64_t seed, const std::vector<RatioBox>& popular) {
  PointSet copy = data;
  const int64_t t0 = NowNs();
  auto target = MakeTarget(spec, std::move(copy));
  if (!target.ok()) return target.status();
  ECLIPSE_RETURN_IF_ERROR(WarmUp(&target.value(), spec, seed, popular));
  const int64_t t1 = NowNs();
  return SetUp{std::move(target).value(), double(t1 - t0) / 1e9};
}

// ------------------------------------------------------------ the phase --

/// Maps each shard's local stable ids to global ids by row coordinates --
/// the sharded engine keeps its own map private. Used only by the traced
/// replica of the cross-shard merge.
std::vector<std::vector<eclipse::PointId>> LocalToGlobal(
    const ShardedEclipseEngine& engine, const PointSet& data) {
  auto key = [&](std::span<const double> row) {
    std::string k(row.size() * sizeof(double), '\0');
    std::memcpy(k.data(), row.data(), k.size());
    return k;
  };
  std::unordered_map<std::string, eclipse::PointId> global;
  for (size_t i = 0; i < data.size(); ++i) {
    global.emplace(key(data[i]), eclipse::PointId(i));
  }
  std::vector<std::vector<eclipse::PointId>> out(engine.num_shards());
  for (size_t s = 0; s < engine.num_shards(); ++s) {
    const auto snap = engine.shard(s).snapshot();
    out[s].resize(snap->size());
    for (size_t row = 0; row < snap->size(); ++row) {
      auto it = global.find(key(snap->points()[row]));
      out[s][snap->id(row)] =
          it == global.end() ? std::numeric_limits<eclipse::PointId>::max()
                             : it->second;
    }
  }
  return out;
}

/// A sampled answer kept for the check after the phase.
struct Sample {
  RatioBox box;
  std::vector<eclipse::PointId> ids;
};

/// One client's record of the timed phase.
struct ClientResult {
  /// Every attempted op's time in stream order (a failed op's too), and its
  /// class: the same classes on every repetition.
  std::vector<double> op_us;
  std::vector<OpClass> op_cls;
  std::vector<double> query_us;
  std::vector<double> insert_us;
  std::vector<double> erase_us;
  std::map<OpClass, std::vector<double>> class_us;
  std::array<uint64_t, kTiers.size()> tiers{};
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Sample> deferred;
  uint64_t checked = 0;
  int64_t wall_ns = 0;
  int64_t paused_ns = 0;
  // Per-op engine stats (counts, not times).
  uint64_t diagram_candidates = 0;
  uint64_t diagram_results = 0;
  std::vector<double> bbs_nodes;
  std::vector<double> gathered;
  // Traced pass only.
  SpanLog spans;
  uint64_t replica_mismatches = 0;
};

struct PhaseConfig {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  size_t ops_per_client = 0;
  bool trace = false;
  const std::vector<RatioBox>* popular = nullptr;
  /// Dataset behind the target (sharded replica id map).
  const PointSet* data = nullptr;
  /// Mutating workloads: the set-up dataset's eclipse over the domain box,
  /// the victims of payload-member erases (PayloadVictim).
  const std::vector<eclipse::PointId>* domain_eclipse = nullptr;
};

/// Answers each client checks per repetition, spread evenly over its ops.
constexpr size_t kChecksPerClient = 32;

void Fail(ClientResult* r, const std::string& what) {
  ++r->failed;
  if (r->failures.size() < 5) r->failures.push_back(what);
}

/// One closed-loop client: its own op stream, its own record.
class Client {
 public:
  Client(const PhaseConfig& config, Target* target, size_t index,
         std::vector<eclipse::PointId>* live,
         const std::vector<std::vector<eclipse::PointId>>* local_to_global)
      : config_(config),
        spec_(*config.spec),
        target_(target),
        stream_(spec_, config.seed, index, config.popular),
        live_(live),
        local_to_global_(local_to_global) {
    stride_ = std::max<size_t>(1, config.ops_per_client / kChecksPerClient);
    if (config.trace) result_.spans.Reserve(config.ops_per_client * 6);
  }

  ClientResult Run(std::latch* start) {
    result_.query_us.reserve(config_.ops_per_client);
    result_.op_us.reserve(config_.ops_per_client);
    result_.op_cls.reserve(config_.ops_per_client);
    start->arrive_and_wait();
    const int64_t t0 = NowNs();
    for (size_t k = 0; k < config_.ops_per_client; ++k) {
      Op op = stream_.Next();
      ++result_.attempted;
      result_.op_cls.push_back(op.cls);
      const bool sampled = k % stride_ == stride_ / 2;
      const uint32_t op_id = uint32_t(k);
      if (IsQuery(op.cls)) {
        target_->single ? QuerySingle(op, op_id, sampled)
                        : QuerySharded(op, op_id, sampled);
      } else if (op.cls == OpClass::kInsert) {
        Insert(op, op_id);
      } else {
        Erase(op, op_id);
      }
    }
    result_.wall_ns = NowNs() - t0;
    return std::move(result_);
  }

 private:
  /// Records one op's time, before its status is looked at.
  void Timed(int64_t t0, int64_t t1) {
    result_.op_us.push_back(double(t1 - t0) / 1e3);
  }

  void Record(OpClass cls, double us) {
    result_.class_us[cls].push_back(us);
    if (IsQuery(cls)) {
      result_.query_us.push_back(us);
    } else if (cls == OpClass::kInsert) {
      result_.insert_us.push_back(us);
    } else {
      result_.erase_us.push_back(us);
    }
  }

  /// Checks a sampled answer: inline (clock paused) when the workload
  /// mutates, since every sampled snapshot would have to stay alive;
  /// after the phase otherwise, when every op saw the set-up snapshot.
  void CheckSample(const RatioBox& box, const std::vector<eclipse::PointId>& ids,
                   const std::shared_ptr<const ColumnarSnapshot>& snap) {
    if (live_ == nullptr) {
      result_.deferred.push_back(Sample{box, ids});
      return;
    }
    const int64_t t0 = NowNs();
    auto want = OracleAnswer(*snap, box);
    ++result_.checked;
    if (!want.ok()) {
      Fail(&result_, "oracle failed: " + want.status().ToString());
    } else if (auto diff = CompareAnswer(ids, *want); !diff.empty()) {
      Fail(&result_, "wrong answer for " + box.ToString() + ": " + diff);
    }
    result_.paused_ns += NowNs() - t0;
  }

  // ---- single engine --------------------------------------------------

  void QuerySingle(const Op& op, uint32_t op_id, bool sampled) {
    EclipseEngine& engine = *target_->single;
    int32_t root = -1;
    bool had_diagram = false, had_tree = false, had_index = false;
    if (config_.trace) {
      root = result_.spans.Add("op.query", 0, 0, -1, op_id);
      const PlanInputs in = SteadyInputs(engine, op.box);
      int64_t t0 = NowNs();
      const QueryPlan plan = eclipse::ChoosePlan(in, engine.options());
      int64_t t1 = NowNs();
      result_.spans.Add("engine.plan", t0, t1, root, op_id);
      const uint64_t epoch = engine.snapshot()->epoch();
      t0 = NowNs();
      const bool hit =
          engine.cache().Peek(epoch, eclipse::CanonicalBoxKey(op.box));
      t1 = NowNs();
      result_.spans.Add("engine.cache_lookup", t0, t1, root, op_id);
      (void)plan;
      (void)hit;
      had_diagram = engine.diagram_built();
      had_tree = engine.bbs_tree_built();
      had_index = engine.index_built();
    }
    EngineQueryStats st;
    const int64_t t0 = NowNs();
    auto r = engine.Query(op.box, &st);
    const int64_t t1 = NowNs();
    Timed(t0, t1);
    if (config_.trace) result_.spans.SetTimes(root, t0, t1);
    if (!r.ok()) {
      Fail(&result_, "query failed: " + r.status().ToString());
      return;
    }
    Record(op.cls, double(t1 - t0) / 1e3);
    ++result_.tiers[TierIndex(st.plan.answered_by)];
    if (st.plan.diagram_hit) {
      result_.diagram_candidates += st.diagram.candidates;
      result_.diagram_results += st.diagram.result_size;
    }
    if (st.plan.answered_by == "bbs-tree") {
      result_.bbs_nodes.push_back(double(st.bbs.nodes_visited));
    }
    if (config_.trace) {
      TraceTier(op.box, st, *r, root, op_id, had_diagram, had_tree,
                had_index);
    }
    if (sampled) CheckSample(op.box, *r, st.snapshot);
  }

  /// Re-runs, through their public functions on the op's snapshot, any
  /// lazy build the query triggered (a build runs before the cache lookup,
  /// so even a cache hit can pay one) and the serving tier that answered;
  /// the tier's replica must give the engine's answer.
  void TraceTier(const RatioBox& box, const EngineQueryStats& st,
                 const std::vector<eclipse::PointId>& answer, int32_t root,
                 uint32_t op_id, bool had_diagram, bool had_tree,
                 bool had_index) {
    const EclipseEngine& engine = *target_->single;
    const EngineOptions& options = engine.options();
    const ColumnarSnapshot& snap = *st.snapshot;
    SpanLog& log = result_.spans;
    if (!had_diagram && engine.diagram_built()) {
      const int64_t b0 = NowNs();
      auto built = eclipse::EclipseDiagram::Build(
          snap, DomainBox(options, snap.dims()), DiagramOptionsOf(options));
      log.Add("diagram.build", b0, NowNs(), root, op_id);
    }
    if (!had_index && engine.index_built()) {
      const int64_t b0 = NowNs();
      auto built = eclipse::EclipseIndex::Build(snap.points(), options.index);
      log.Add("core.index_build", b0, NowNs(), root, op_id);
    }
    const bool tree_built_here = !had_tree && engine.bbs_tree_built();
    if (tree_built_here || (st.plan.answered_by == "bbs-tree" &&
                            (tree_ == nullptr || tree_epoch_ != snap.epoch()))) {
      // The replica tree also serves later BBS ops of this epoch; only a
      // build the engine itself ran is charged to the op.
      const int64_t b0 = NowNs();
      auto tree = eclipse::PackedRTree::Build(snap.points());
      const int64_t b1 = NowNs();
      if (tree_built_here) log.Add("index.rtree_build", b0, b1, root, op_id);
      if (tree.ok()) {
        tree_ = std::make_unique<eclipse::PackedRTree>(std::move(*tree));
        tree_epoch_ = snap.epoch();
      }
    }

    const std::string& tier = st.plan.answered_by;
    std::optional<Result<std::vector<eclipse::PointId>>> replica;
    if (tier == "diagram") {
      const auto diagram = engine.diagram();
      eclipse::DiagramQueryStats ds;
      const int64_t t0 = NowNs();
      replica = diagram->Query(snap, box, &ds);
      log.Add("diagram.query", t0, NowNs(), root, op_id);
    } else if (tier == "bbs-tree") {
      eclipse::BbsStats bs;
      const int64_t t0 = NowNs();
      auto ids = eclipse::BbsEclipse(snap.points(), *tree_, box,
                                     options.algorithm.max_corner_dims,
                                     nullptr, nullptr, &bs);
      log.Add("skyline.bbs", t0, NowNs(), root, op_id);
      if (ids.ok() && !snap.ids_are_row_indices()) {
        for (auto& id : ids.value()) id = snap.id(id);
      }
      replica = std::move(ids);
    } else if (tier == "index") {
      eclipse::QueryStats qs;
      const int64_t t0 = NowNs();
      replica = engine.index().Query(box, &qs);
      log.Add("core.index_query", t0, NowNs(), root, op_id);
    } else if (tier == "one-shot") {
      const int64_t t0 = NowNs();
      auto ids =
          eclipse::EclipseCornerSkyline(snap.points(), box, options.algorithm);
      const int32_t oneshot =
          log.Add("core.oneshot", t0, NowNs(), root, op_id);
      // Its two stages, each re-run on its own: CornerKernel's embedding
      // (parallel from 2^15 rows on >= 2 lanes, as EclipseCornerSkyline
      // does) and the flat skyline over it.
      const size_t n = snap.size();
      eclipse::CornerKernel kernel(box);
      const bool parallel =
          n >= (size_t{1} << 15) && eclipse::ThreadPool::Shared().size() >= 2;
      const int64_t e0 = NowNs();
      std::vector<double> scores = parallel
                                       ? kernel.EmbedAllParallel(snap.points())
                                       : kernel.EmbedAll(snap.points());
      const int64_t e1 = NowNs();
      log.Add("core.embed", e0, e1, oneshot, op_id);
      const auto view =
          eclipse::FlatMatrixView::Of(scores, kernel.embedding_dims());
      const int64_t f0 = NowNs();
      auto sky = eclipse::FlatSkyline(
          view, eclipse::ChooseFlatSkylinePath(
                    options.algorithm.skyline_algorithm, n));
      log.Add("skyline.flat", f0, NowNs(), oneshot, op_id);
      if (ids.ok() && !snap.ids_are_row_indices()) {
        for (auto& id : ids.value()) id = snap.id(id);
      }
      replica = std::move(ids);
    }
    if (replica.has_value() &&
        (!replica->ok() || CompareAnswer(answer, **replica) != "")) {
      ++result_.replica_mismatches;
    }
  }

  static eclipse::RowLookup LookupIn(
      std::shared_ptr<const ColumnarSnapshot> snap) {
    return [snap = std::move(snap)](eclipse::PointId id) -> const double* {
      auto row = snap->RowOf(id);
      return row.ok() ? snap->points()[*row].data() : nullptr;
    };
  }

  void Insert(const Op& op, uint32_t op_id) {
    EclipseEngine& engine = *target_->single;
    SpanLog& log = result_.spans;
    int32_t root = -1;
    std::shared_ptr<const ColumnarSnapshot> base;
    std::shared_ptr<const eclipse::EclipseDiagram> diagram;
    std::vector<eclipse::ResultCache::MaintainableEntry> entries;
    bool had_tree = false;
    if (config_.trace) {
      root = log.Add("op.insert", 0, 0, -1, op_id);
      base = engine.snapshot();
      diagram = engine.diagram();
      had_tree = engine.bbs_tree_built();
      const int64_t m0 = NowNs();
      entries = engine.cache().MaintainableEntries(base->epoch());
      log.Add("stream.maintain_insert", m0, NowNs(), root, op_id);
    }
    const int64_t t0 = NowNs();
    auto r = engine.Insert(op.point);
    const int64_t t1 = NowNs();
    Timed(t0, t1);
    if (config_.trace) log.SetTimes(root, t0, t1);
    if (!r.ok()) {
      Fail(&result_, "insert failed: " + r.status().ToString());
      return;
    }
    Record(op.cls, double(t1 - t0) / 1e3);
    live_->push_back(*r);
    if (!config_.trace) return;
    // The write path's layers, each on the pre-insert snapshot.
    int64_t s0 = NowNs();
    auto next = base->Insert(op.point);
    log.Add("dataset.cow_insert", s0, NowNs(), root, op_id);
    eclipse::MaintenanceStats tick;
    s0 = NowNs();
    auto carried = eclipse::MaintainEntriesOnInsert(
        std::move(entries), LookupIn(base), op.point, *r, &tick);
    log.Add("stream.maintain_insert", s0, NowNs(), root, op_id);
    bool dominated = false;
    s0 = NowNs();
    if (had_tree) {
      eclipse::StrictlyDominatedOverBox(
          *base, RatioBox::Skyline(base->dims() - 1), op.point);
    }
    if (diagram != nullptr) {
      dominated = eclipse::StrictlyDominatedOverBox(
          *base, DomainBox(engine.options(), base->dims()), op.point);
    }
    log.Add("stream.domain_test", s0, NowNs(), root, op_id);
    if (diagram != nullptr && !dominated) {
      s0 = NowNs();
      auto repaired = diagram->WithInsert(diagram, *base, op.point, *r);
      log.Add("diagram.repair", s0, NowNs(), root, op_id);
    }
  }

  void Erase(const Op& op, uint32_t op_id) {
    EclipseEngine& engine = *target_->single;
    SpanLog& log = result_.spans;
    size_t pick = size_t(op.pick % live_->size());
    if (op.payload_member) {
      // Choosing the victim is the benchmark's own work: clock paused.
      const int64_t p0 = NowNs();
      const auto victim = PayloadVictim(
          *config_.domain_eclipse, op.pick,
          [&](eclipse::PointId id) { return !erased_.contains(id); });
      if (victim.has_value()) {
        const auto at = std::find(live_->begin(), live_->end(), *victim);
        if (at != live_->end()) pick = size_t(at - live_->begin());
      }
      result_.paused_ns += NowNs() - p0;
    }
    const eclipse::PointId id = (*live_)[pick];
    int32_t root = -1;
    std::shared_ptr<const ColumnarSnapshot> base;
    std::shared_ptr<const eclipse::EclipseDiagram> diagram;
    std::vector<eclipse::ResultCache::MaintainableEntry> entries;
    if (config_.trace) {
      root = log.Add("op.erase", 0, 0, -1, op_id);
      base = engine.snapshot();
      diagram = engine.diagram();
      const int64_t m0 = NowNs();
      entries = engine.cache().MaintainableEntries(base->epoch());
      log.Add("stream.maintain_erase", m0, NowNs(), root, op_id);
    }
    const int64_t t0 = NowNs();
    Status st = engine.Erase(id);
    const int64_t t1 = NowNs();
    Timed(t0, t1);
    if (config_.trace) log.SetTimes(root, t0, t1);
    if (!st.ok()) {
      Fail(&result_, "erase failed: " + st.ToString());
      return;
    }
    Record(op.cls, double(t1 - t0) / 1e3);
    (*live_)[pick] = live_->back();
    live_->pop_back();
    erased_.insert(id);
    if (!config_.trace) return;
    int64_t s0 = NowNs();
    auto next = base->Erase(id);
    log.Add("dataset.cow_erase", s0, NowNs(), root, op_id);
    eclipse::MaintenanceStats tick;
    s0 = NowNs();
    auto carried =
        eclipse::MaintainEntriesOnErase(std::move(entries), id, &tick);
    log.Add("stream.maintain_erase", s0, NowNs(), root, op_id);
    if (diagram != nullptr) {
      s0 = NowNs();
      const bool member = diagram->ContainsId(id);
      log.Add("diagram.erase_check", s0, NowNs(), root, op_id);
      (void)member;
    }
  }

  // ---- sharded engine -------------------------------------------------

  void QuerySharded(const Op& op, uint32_t op_id, bool sampled) {
    ShardedEclipseEngine& engine = *target_->sharded;
    const size_t shards = engine.num_shards();
    SpanLog& log = result_.spans;
    int32_t root = -1;
    // Per shard: ChoosePlan + cache lookup before the op, the diagram query
    // after it. The shards run in parallel, so the slowest lane is the one
    // on the op's critical path.
    std::vector<int64_t> plan_ns(shards), lookup_ns(shards);
    if (config_.trace) {
      root = log.Add("op.query", 0, 0, -1, op_id);
      int64_t t0 = NowNs();
      const bool hit = engine.cache().Peek(engine.global_epoch(),
                                           eclipse::CanonicalBoxKey(op.box));
      log.Add("engine.cache_lookup", t0, NowNs(), root, op_id);
      (void)hit;
      for (size_t s = 0; s < shards; ++s) {
        const EclipseEngine& shard = engine.shard(s);
        const PlanInputs in = SteadyInputs(shard, op.box);
        t0 = NowNs();
        const QueryPlan plan = eclipse::ChoosePlan(in, shard.options());
        int64_t t1 = NowNs();
        plan_ns[s] = t1 - t0;
        (void)plan;
        const uint64_t epoch = shard.snapshot()->epoch();
        t0 = NowNs();
        const bool shard_hit =
            shard.cache().Peek(epoch, eclipse::CanonicalBoxKey(op.box));
        t1 = NowNs();
        lookup_ns[s] = t1 - t0;
        (void)shard_hit;
      }
    }
    ShardedQueryStats st;
    const int64_t t0 = NowNs();
    auto r = engine.Query(op.box, &st);
    const int64_t t1 = NowNs();
    Timed(t0, t1);
    if (config_.trace) log.SetTimes(root, t0, t1);
    if (!r.ok()) {
      Fail(&result_, "query failed: " + r.status().ToString());
      return;
    }
    Record(op.cls, double(t1 - t0) / 1e3);
    if (st.plan.cache_hit) {
      ++result_.tiers[0];
    } else {
      for (const QueryPlan& plan : st.plan.shard_plans) {
        ++result_.tiers[TierIndex(plan.answered_by)];
      }
      result_.gathered.push_back(double(st.gathered_candidates));
    }
    if (config_.trace && !st.plan.cache_hit) {
      TraceScatter(op.box, *r, root, op_id, plan_ns, lookup_ns);
    }
    if (sampled) CheckSample(op.box, *r, nullptr);
  }

  void TraceScatter(const RatioBox& box,
                    const std::vector<eclipse::PointId>& answer, int32_t root,
                    uint32_t op_id, const std::vector<int64_t>& plan_ns,
                    const std::vector<int64_t>& lookup_ns) {
    const ShardedEclipseEngine& engine = *target_->sharded;
    const size_t shards = engine.num_shards();
    SpanLog& log = result_.spans;
    std::vector<std::shared_ptr<const ColumnarSnapshot>> snaps(shards);
    std::vector<std::vector<eclipse::PointId>> sub(shards);
    std::vector<int64_t> query_start(shards), query_ns(shards);
    size_t critical = 0;
    for (size_t s = 0; s < shards; ++s) {
      const EclipseEngine& shard = engine.shard(s);
      snaps[s] = shard.snapshot();
      const auto diagram = shard.diagram();
      if (diagram == nullptr) {
        ++result_.replica_mismatches;
        return;
      }
      query_start[s] = NowNs();
      auto ids = diagram->Query(*snaps[s], box);
      query_ns[s] = NowNs() - query_start[s];
      if (!ids.ok()) {
        ++result_.replica_mismatches;
        return;
      }
      sub[s] = std::move(ids).value();
      if (plan_ns[s] + lookup_ns[s] + query_ns[s] >
          plan_ns[critical] + lookup_ns[critical] + query_ns[critical]) {
        critical = s;
      }
    }
    // The critical lane as one span, with its three calls as children.
    const int64_t c0 = query_start[critical];
    const int64_t lane =
        plan_ns[critical] + lookup_ns[critical] + query_ns[critical];
    const int32_t sub_span = log.Add("shard.subquery", c0, c0 + lane, root,
                                     op_id);
    log.Add("engine.plan", c0, c0 + plan_ns[critical], sub_span, op_id);
    log.Add("engine.cache_lookup", c0, c0 + lookup_ns[critical], sub_span,
            op_id);
    log.Add("diagram.query", c0, c0 + query_ns[critical], sub_span, op_id);

    std::vector<eclipse::GatheredCandidate> candidates;
    size_t non_empty = 0;
    std::vector<eclipse::PointId> merged;
    for (size_t s = 0; s < shards; ++s) {
      if (!sub[s].empty()) ++non_empty;
      for (eclipse::PointId local : sub[s]) {
        auto row = snaps[s]->RowOf(local);
        if (!row.ok()) {
          ++result_.replica_mismatches;
          return;
        }
        candidates.push_back({(*local_to_global_)[s][local],
                              snaps[s]->points()[*row].data()});
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const auto& a, const auto& b) {
                return a.global_id < b.global_id;
              });
    if (non_empty <= 1) {
      for (const auto& c : candidates) merged.push_back(c.global_id);
    } else {
      const int64_t m0 = NowNs();
      auto ids = eclipse::CrossShardDominanceMerge(
          candidates, box.dims(), box, engine.options().engine.algorithm);
      log.Add("shard.merge", m0, NowNs(), root, op_id);
      if (ids.ok()) merged = std::move(ids).value();
    }
    if (CompareAnswer(answer, merged) != "") ++result_.replica_mismatches;
  }

  const PhaseConfig& config_;
  const WorkloadSpec& spec_;
  Target* target_;
  OpStream stream_;
  /// Live stable ids (mutating workloads only; null otherwise).
  std::vector<eclipse::PointId>* live_;
  /// Ids this client erased: PayloadVictim skips them.
  std::unordered_set<eclipse::PointId> erased_;
  const std::vector<std::vector<eclipse::PointId>>* local_to_global_;
  size_t stride_ = 1;
  ClientResult result_;
  /// Traced BBS replica: a tree over the snapshot of epoch tree_epoch_.
  std::unique_ptr<eclipse::PackedRTree> tree_;
  uint64_t tree_epoch_ = 0;
};

struct PhaseResult {
  std::vector<ClientResult> clients;
  /// Phase time: the slowest client's wall time minus its inline checks.
  double seconds = 0.0;
  EventCounts counts;
  size_t structure_bytes = 0;
  double cache_hit_ratio = 0.0;
  double carried_ratio = 0.0;
  uint64_t repaired_cells = 0;
  uint64_t drops = 0;
  uint64_t repacks = 0;
  uint64_t lazy_builds = 0;
};

eclipse::MaintenanceStats TotalMaintenance(const Target& target) {
  eclipse::MaintenanceStats total;
  for (const EclipseEngine* engine : target.engines()) {
    total += engine->maintenance();
  }
  return total;
}

/// Runs the timed phase on a set-up target, then the deferred answer check.
PhaseResult RunPhase(const PhaseConfig& config, Target* target) {
  const WorkloadSpec& spec = *config.spec;
  const eclipse::ResultCache& cache = target->front_cache();
  const uint64_t hits0 = cache.hits(), misses0 = cache.misses();
  const uint64_t builds0 = target->lazy_builds();

  const bool mutates =
      std::any_of(spec.block.begin(), spec.block.end(),
                  [](OpClass c) { return !IsQuery(c); });
  std::vector<eclipse::PointId> live;
  if (mutates) live = target->single->snapshot()->ids();
  std::vector<std::vector<eclipse::PointId>> l2g;
  if (config.trace && target->sharded) {
    l2g = LocalToGlobal(*target->sharded, *config.data);
  }

  std::vector<std::unique_ptr<Client>> clients;
  for (size_t c = 0; c < spec.clients; ++c) {
    clients.push_back(std::make_unique<Client>(
        config, target, c, mutates ? &live : nullptr, &l2g));
  }
  PhaseResult phase;
  phase.clients.resize(spec.clients);
  std::latch start(ptrdiff_t(spec.clients));
  std::vector<std::thread> threads;
  for (size_t c = 1; c < spec.clients; ++c) {
    threads.emplace_back(
        [&, c] { phase.clients[c] = clients[c]->Run(&start); });
  }
  phase.clients[0] = clients[0]->Run(&start);
  for (auto& t : threads) t.join();

  int64_t phase_ns = 0;
  for (const ClientResult& r : phase.clients) {
    phase_ns = std::max(phase_ns, r.wall_ns - r.paused_ns);
  }
  phase.seconds = double(phase_ns) / 1e9;

  // Deferred answer check: read-only workloads, so the snapshot every op
  // saw is the set-up one (for sharded, the unsharded rows).
  std::shared_ptr<const ColumnarSnapshot> rows;
  if (target->single) {
    rows = target->single->snapshot();
  } else {
    rows = *ColumnarSnapshot::FromPointSet(*config.data);
  }
  for (ClientResult& r : phase.clients) {
    for (const Sample& s : r.deferred) {
      auto want = OracleAnswer(*rows, s.box);
      ++r.checked;
      if (!want.ok()) {
        Fail(&r, "oracle failed: " + want.status().ToString());
      } else if (auto diff = CompareAnswer(s.ids, *want); !diff.empty()) {
        Fail(&r, "wrong answer for " + s.box.ToString() + ": " + diff);
      }
    }
    r.deferred.clear();
  }

  const uint64_t hits = cache.hits() - hits0;
  const uint64_t misses = cache.misses() - misses0;
  const eclipse::MaintenanceStats m = TotalMaintenance(*target);
  phase.structure_bytes = target->structure_bytes();
  phase.cache_hit_ratio =
      hits + misses > 0 ? double(hits) / double(hits + misses) : 0.0;
  phase.carried_ratio =
      m.entries_examined > 0
          ? double(m.entries_carried) / double(m.entries_examined)
          : 0.0;
  phase.repaired_cells = m.diagram_repaired_cells;
  phase.drops = m.diagram_dropped;
  phase.repacks = m.tree_repacks;
  phase.lazy_builds = target->lazy_builds() - builds0;

  EventCounts& counts = phase.counts;
  uint64_t attempted = 0, failed = 0;
  std::array<uint64_t, kTiers.size()> tiers{};
  for (const ClientResult& r : phase.clients) {
    attempted += r.attempted;
    failed += r.failed;
    for (size_t t = 0; t < tiers.size(); ++t) tiers[t] += r.tiers[t];
  }
  for (size_t t = 0; t < tiers.size(); ++t) {
    counts[std::string("answered_by.") + kTiers[t]] = tiers[t];
  }
  counts["ops.attempted"] = attempted;
  counts["ops.failed"] = failed;
  counts["cache.hits"] = hits;
  counts["cache.misses"] = misses;
  counts["maintenance.entries_carried"] = m.entries_carried;
  counts["maintenance.entries_merged"] = m.entries_merged;
  counts["maintenance.entries_dropped"] = m.entries_dropped;
  counts["diagram.repaired_cells"] = m.diagram_repaired_cells;
  counts["diagram.drops"] = m.diagram_dropped;
  counts["tree.preserved"] = m.tree_preserved;
  counts["tree.repacks"] = m.tree_repacks;
  counts["lazy_builds"] = phase.lazy_builds;
  // Two clients interleave their cache puts, so which results the LRU
  // holds at the end -- and its bytes -- varies; one client's does not.
  if (spec.clients == 1) counts["structure_bytes"] = phase.structure_bytes;
  return phase;
}

// -------------------------------------------------------------- reports --

/// A fixed integer loop: the host diagnostic. Never used to adjust a metric.
double ReferenceLoopUs() {
  std::vector<double> runs;
  for (int rep = 0; rep < 5; ++rep) {
    const int64_t t0 = NowNs();
    uint64_t x = 0x9E3779B97F4A7C15ull;
    for (int i = 0; i < 2'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    const int64_t t1 = NowNs();
    volatile uint64_t sink = x;
    (void)sink;
    runs.push_back(double(t1 - t0) / 1e3);
  }
  return Median(std::move(runs));
}

std::vector<double> Concat(const std::vector<ClientResult>& clients,
                           std::vector<double> ClientResult::*field) {
  std::vector<double> all;
  for (const ClientResult& r : clients) {
    all.insert(all.end(), (r.*field).begin(), (r.*field).end());
  }
  return all;
}

std::string Json(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string MetricsJson(
    const std::vector<std::tuple<std::string, double, std::string>>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value, unit] = metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + name + "\": {\"value\": " + Json(value) + ", \"unit\": \"" +
           unit + "\"}";
  }
  return out + "}";
}

void PrintFailures(const PhaseResult& phase) {
  for (const ClientResult& r : phase.clients) {
    for (const std::string& f : r.failures) {
      std::printf("FAILED: %s\n", f.c_str());
    }
  }
}

uint64_t Attempted(const PhaseResult& p) { return p.counts.at("ops.attempted"); }
uint64_t Failed(const PhaseResult& p) { return p.counts.at("ops.failed"); }

/// Compares with (then records) the counts of an earlier run of the same
/// seed, build and op count; returns the differences.
std::vector<std::string> CheckAgainstRecord(const Args& args, size_t ops,
                                            const EventCounts& counts) {
  if (args.counts_dir.empty()) return {};
  const std::string path = args.counts_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-ops" +
                           std::to_string(ops) + "-lanes" +
                           std::to_string(eclipse::ThreadPool::Shared().size()) +
                           "-" + args.source_digest.substr(0, 16) + ".counts";
  std::ifstream in(path);
  if (in) {
    std::stringstream text;
    text << in.rdbuf();
    auto recorded = ParseCounts(text.str());
    if (!recorded.ok()) return {"unreadable count record " + path};
    return DiffCounts(*recorded, counts);
  }
  std::ofstream out(path);
  out << FormatCounts(counts);
  return {};
}

void PrintProvenance(const Args& args, const WorkloadSpec& spec, size_t ops,
                     size_t repetitions) {
  const eclipse::BuildInfo info = eclipse::CurrentBuildInfo();
  std::printf(
      "provenance {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, "
      "\"ops_per_repetition\": %zu, \"repetitions\": %zu, \"clients\": %zu, "
      "\"git_sha\": \"%s\", "
      "\"source_digest\": \"%s\", \"simd_tier\": \"%s\", \"nproc\": %u, "
      "\"pool_lanes\": %zu, \"build_type\": \"%s\"}\n",
      spec.name.c_str(), (unsigned long long)args.seed, args.seconds, ops,
      repetitions, spec.clients, args.git_sha.c_str(), args.source_digest.c_str(),
      info.simd_tier.c_str(), std::thread::hardware_concurrency(),
      eclipse::ThreadPool::Shared().size(), LEDGER_BUILD_TYPE);
}

void PrintCounts(const char* label, const EventCounts& counts) {
  std::printf("%s", label);
  for (const auto& [name, value] : counts) {
    std::printf(" %s=%llu", name.c_str(), (unsigned long long)value);
  }
  std::printf("\n");
}

/// The end-to-end latency summary; false when a percentile is unsupported.
struct Latency {
  Percentile p50;
  Percentile tail;
};

std::optional<Latency> QueryLatency(const PhaseResult& phase,
                                    const WorkloadSpec& spec) {
  const std::vector<double> q = Concat(phase.clients, &ClientResult::query_us);
  auto p50 = SupportedPercentile(q, 0.5);
  auto tail = SupportedPercentile(q, spec.tail_q);
  if (!p50 || !tail) return std::nullopt;
  return Latency{*p50, *tail};
}

void PrintLatency(const PhaseResult& phase, const WorkloadSpec& spec,
                  const Latency& lat) {
  std::printf("query latency: p50 %.3f us, p%g %.3f us (%zu queries; %zu "
              "beyond p50, %zu beyond p%g)\n",
              lat.p50.value, spec.tail_q * 100, lat.tail.value,
              lat.p50.samples, lat.p50.beyond, lat.tail.beyond,
              spec.tail_q * 100);
  std::map<OpClass, std::vector<double>> by_class;
  for (const ClientResult& r : phase.clients) {
    for (const auto& [cls, us] : r.class_us) {
      by_class[cls].insert(by_class[cls].end(), us.begin(), us.end());
    }
  }
  for (auto& [cls, us] : by_class) {
    const size_t n = us.size();
    std::printf("  class %-9s %8zu ops  p50 %10.3f us\n", OpClassName(cls), n,
                Median(std::move(us)));
  }
  for (auto [name, field] :
       {std::pair{"insert", &ClientResult::insert_us},
        std::pair{"erase", &ClientResult::erase_us}}) {
    std::vector<double> us = Concat(phase.clients, field);
    if (us.empty()) continue;
    auto p99 = SupportedPercentile(us, 0.99);
    std::printf("%s latency: p50 %.3f us", name, Median(us));
    if (p99) std::printf(", p99 %.3f us (%zu beyond)", p99->value, p99->beyond);
    std::printf(" (%zu ops)\n", us.size());
  }
}

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "ledger_bench: %s\n", error.c_str());
    return 2;
  }
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  // The timed phases of all repetitions together last about --seconds.
  // A repetition needs enough queries for its tail percentile, so a short
  // run gets fewer repetitions than the workload asks for.
  const double total_ops = double(args.seconds) * spec.ops_per_second;
  const double query_share =
      double(std::count_if(spec.block.begin(), spec.block.end(), IsQuery)) /
      double(spec.block.size());
  const double min_rep_ops =
      double(kMinBeyond + 1) / (1.0 - spec.tail_q) / query_share;
  const size_t repetitions = std::clamp<size_t>(
      size_t(total_ops / min_rep_ops), 1, spec.repetitions);
  const size_t ops_per_client = std::max<size_t>(
      1, size_t(std::llround(total_ops /
                             double(repetitions * spec.clients))));
  const size_t ops_per_rep = ops_per_client * spec.clients;
  PrintProvenance(args, spec, ops_per_rep,
                  args.trace == 0 ? repetitions : 1);

  // The dataset and the popular boxes are the same for every seed: set-up
  // cost, the shape of every structure (diagram cells and payloads, index
  // size) and the cost of a cache hit depend on them, and one run cannot
  // average over datasets. The seed draws the op streams.
  eclipse::Rng data_rng(DeriveSeed(0, 1));
  const PointSet data = eclipse::GenerateSynthetic(
      eclipse::Distribution::kIndependent, spec.n, spec.d, &data_rng);
  const std::vector<RatioBox> popular =
      PopularBoxes(DeriveSeed(0, 2), spec.d, spec.popular_boxes);

  const double ref_before = ReferenceLoopUs();
  PhaseConfig config;
  config.spec = &spec;
  config.seed = args.seed;
  config.ops_per_client = ops_per_client;
  config.popular = &popular;
  config.data = &data;

  auto fail = [](const std::string& what) {
    std::fprintf(stderr, "ledger_bench: %s\n", what.c_str());
    return 1;
  };

  std::vector<eclipse::PointId> domain_eclipse;
  if (std::any_of(spec.block.begin(), spec.block.end(),
                  [](OpClass c) { return !IsQuery(c); })) {
    auto eclipse = OracleAnswer(**ColumnarSnapshot::FromPointSet(data),
                                DomainBox(EngineOptions{}, spec.d));
    if (!eclipse.ok()) {
      return fail("domain eclipse: " + eclipse.status().ToString());
    }
    domain_eclipse = std::move(eclipse).value();
  }
  config.domain_eclipse = &domain_eclipse;

  if (args.trace == 0) {
    // Repetitions run the identical op stream on fresh engines, so they
    // differ only by host interference, which only ever adds time. The
    // latency and throughput metrics come from each op's best time over the
    // repetitions (BestPerOp); setup_s is the median set-up.
    std::vector<double> setups;
    // replays[c][r]: client c's op times in repetition r.
    std::vector<std::vector<std::vector<double>>> replays(spec.clients);
    std::vector<std::vector<OpClass>> op_cls(spec.clients);
    std::optional<EventCounts> first_counts;
    std::vector<std::string> diffs;
    uint64_t attempted = 0, failed = 0, checked = 0;
    size_t structure_bytes = 0;
    for (size_t rep = 0; rep < repetitions; ++rep) {
      auto setup = TimedSetUp(spec, data, args.seed, popular);
      if (!setup.ok()) {
        return fail("set-up failed: " + setup.status().ToString());
      }
      const PhaseResult phase = RunPhase(config, &setup->target);
      PrintFailures(phase);
      auto lat = QueryLatency(phase, spec);
      if (!lat) return fail("too few queries for the gated percentiles");
      const double rate = double(Attempted(phase)) / phase.seconds;
      std::printf("repetition %zu: setup_s %.4f, ops_per_s %.1f over %.3f s, "
                  "structure_bytes %zu, failed %llu of %llu\n",
                  rep, setup->seconds, rate, phase.seconds,
                  phase.structure_bytes, (unsigned long long)Failed(phase),
                  (unsigned long long)Attempted(phase));
      PrintLatency(phase, spec, *lat);
      setups.push_back(setup->seconds);
      attempted += Attempted(phase);
      failed += Failed(phase);
      for (const ClientResult& r : phase.clients) checked += r.checked;
      for (size_t c = 0; c < spec.clients; ++c) {
        replays[c].push_back(phase.clients[c].op_us);
        op_cls[c] = phase.clients[c].op_cls;
      }
      structure_bytes = phase.structure_bytes;
      if (!first_counts) {
        first_counts = phase.counts;
        PrintCounts("counts:", phase.counts);
      } else {
        for (const auto& d : DiffCounts(*first_counts, phase.counts)) {
          diffs.push_back("repetition " + std::to_string(rep) + ": " + d);
        }
      }
    }
    // Each op's best time over the repetitions. A client's best times sum
    // to its closed-loop time for one repetition's ops; the slowest client
    // sets the throughput.
    std::vector<double> best_query_us;
    std::map<OpClass, std::vector<double>> best_by_class;
    double slowest_client_us = 0.0;
    for (size_t c = 0; c < spec.clients; ++c) {
      const std::vector<double> best = BestPerOp(replays[c]);
      double sum_us = 0.0;
      for (size_t k = 0; k < best.size(); ++k) {
        sum_us += best[k];
        best_by_class[op_cls[c][k]].push_back(best[k]);
        if (IsQuery(op_cls[c][k])) best_query_us.push_back(best[k]);
      }
      slowest_client_us = std::max(slowest_client_us, sum_us);
    }
    const auto best_p50 = SupportedPercentile(best_query_us, 0.5);
    const auto best_tail = SupportedPercentile(best_query_us, spec.tail_q);
    if (!best_p50 || !best_tail) {
      return fail("too few queries for the gated percentiles");
    }
    const double best_rate =
        double(ops_per_rep) / (slowest_client_us / 1e6);
    std::printf("best per op over %zu repetitions: query p50 %.3f us, p%g "
                "%.3f us (%zu queries; %zu beyond p50, %zu beyond p%g), "
                "ops_per_s %.1f (slowest client's best op times sum to "
                "%.4f s)\n",
                repetitions, best_p50->value, spec.tail_q * 100,
                best_tail->value, best_p50->samples, best_p50->beyond,
                best_tail->beyond, spec.tail_q * 100, best_rate,
                slowest_client_us / 1e6);
    for (auto& [cls, us] : best_by_class) {
      const size_t n = us.size();
      const double sum = std::accumulate(us.begin(), us.end(), 0.0);
      std::printf("  best per op, class %-9s %8zu ops  p50 %10.3f us  "
                  "share of time %5.1f%%\n",
                  OpClassName(cls), n, Median(std::move(us)),
                  100.0 * sum / slowest_client_us / double(spec.clients));
    }
    const double ref_after = ReferenceLoopUs();
    std::printf("host.ref_loop_us before %.1f after %.1f\n", ref_before,
                ref_after);
    std::printf("failed_ops_ratio %.6f (%llu of %llu); %llu answers checked\n",
                double(failed) / double(attempted),
                (unsigned long long)failed, (unsigned long long)attempted,
                (unsigned long long)checked);
    for (const auto& d : CheckAgainstRecord(args, ops_per_rep, *first_counts)) {
      diffs.push_back("earlier run of this seed: " + d);
    }
    for (const auto& d : diffs) std::printf("DETERMINISM: %s\n", d.c_str());
    const bool correct = failed == 0 && diffs.empty();
    std::printf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": %s}\n",
        correct ? "true" : "false", (unsigned long long)attempted,
        (unsigned long long)failed,
        MetricsJson({{"query_p50_us", best_p50->value, "us"},
                     {"query_tail_us", best_tail->value, "us"},
                     {"ops_per_s", best_rate, "1/s"},
                     {"setup_s", Median(setups), "s"},
                     {"structure_bytes", double(structure_bytes), "bytes"}})
            .c_str());
    return correct ? 0 : 1;
  }

  // --trace 1: an untraced pass, then a traced pass, each on a fresh engine.
  PhaseResult untraced;
  {
    auto untraced_setup = TimedSetUp(spec, data, args.seed, popular);
    if (!untraced_setup.ok()) {
      return fail("set-up failed: " + untraced_setup.status().ToString());
    }
    untraced = RunPhase(config, &untraced_setup->target);
  }

  auto traced_setup = TimedSetUp(spec, data, args.seed, popular);
  if (!traced_setup.ok()) {
    return fail("set-up failed: " + traced_setup.status().ToString());
  }
  // Set-up decomposition, before the traced phase mutates anything: each
  // structure build re-run on the traced engine's set-up snapshot. Shards
  // build concurrently during warm-up, so a structure's row is its slowest
  // shard's build.
  std::map<std::string, double> setup_rows;
  {
    auto timed = [&](const char* name, const std::function<void()>& build) {
      const int64_t b0 = NowNs();
      build();
      const double s = double(NowNs() - b0) / 1e9;
      setup_rows[name] = std::max(setup_rows[name], s);
    };
    for (const EclipseEngine* engine : traced_setup->target.engines()) {
      const auto snap = engine->snapshot();
      const EngineOptions& o = engine->options();
      if (engine->diagram_built()) {
        timed("diagram.build_s", [&] {
          auto d = eclipse::EclipseDiagram::Build(
              *snap, DomainBox(o, snap->dims()), DiagramOptionsOf(o));
        });
      }
      if (engine->bbs_tree_built()) {
        timed("index.rtree_build_s",
              [&] { auto t = eclipse::PackedRTree::Build(snap->points()); });
      }
      if (engine->index_built()) {
        timed("core.index_build_s", [&] {
          auto i = eclipse::EclipseIndex::Build(snap->points(), o.index);
        });
      }
    }
    double builds = 0.0;
    for (const auto& [name, s] : setup_rows) builds += s;
    setup_rows["other_s"] = traced_setup->seconds - builds;
  }

  config.trace = true;
  PhaseResult traced = RunPhase(config, &traced_setup->target);
  const double ref_after = ReferenceLoopUs();
  PrintFailures(untraced);
  PrintFailures(traced);

  std::vector<const SpanLog*> logs;
  uint64_t mismatches = 0;
  for (const ClientResult& r : traced.clients) {
    logs.push_back(&r.spans);
    mismatches += r.replica_mismatches;
  }
  const LayerTable table = BuildLayerTable(logs);

  auto lat_untraced = QueryLatency(untraced, spec);
  auto lat_traced = QueryLatency(traced, spec);
  if (!lat_untraced || !lat_traced) {
    return fail("too few queries for the gated percentiles");
  }
  double untraced_sum_us = 0.0;
  for (auto field : {&ClientResult::query_us, &ClientResult::insert_us,
                     &ClientResult::erase_us}) {
    for (double us : Concat(untraced.clients, field)) untraced_sum_us += us;
  }
  const double mean_untraced_us =
      untraced_sum_us / double(Attempted(untraced));
  std::printf("untraced pass: ");
  PrintLatency(untraced, spec, *lat_untraced);
  std::printf("traced pass: ");
  PrintLatency(traced, spec, *lat_traced);
  std::printf("tracing overhead: query p50 %+.2f%%, p%g %+.2f%%, mean op "
              "%.3f -> %.3f us (%+.2f%%)\n",
              100.0 * (lat_traced->p50.value / lat_untraced->p50.value - 1.0),
              spec.tail_q * 100,
              100.0 * (lat_traced->tail.value / lat_untraced->tail.value - 1.0),
              mean_untraced_us, table.mean_op_us,
              100.0 * (table.mean_op_us / mean_untraced_us - 1.0));

  std::printf("per-layer table (%zu ops; self time per op; rows + other sum "
              "to the mean end-to-end op time %.3f us)\n",
              table.ops, table.mean_op_us);
  std::printf("  %-26s %9s %12s %14s %8s\n", "row", "ops", "median_us",
              "mean_us/op", "share%");
  double row_sum = 0.0;
  for (const LayerRow& row : table.rows) {
    std::printf("  %-26s %9zu %12.3f %14.4f %8.2f\n", row.name.c_str(),
                row.ops, row.median_us, row.mean_us_per_op, row.share_pct);
    row_sum += row.mean_us_per_op;
  }
  std::printf("  %-26s %9s %12s %14.4f\n", "sum", "", "", row_sum);
  std::printf("set-up decomposition (traced engine, setup_s %.4f):",
              traced_setup->seconds);
  for (const auto& [name, s] : setup_rows) std::printf(" %s=%.4f", name.c_str(), s);
  std::printf("\nhost.ref_loop_us before %.1f after %.1f\n", ref_before,
              ref_after);

  PrintCounts("counts (untraced):", untraced.counts);
  PrintCounts("counts (traced):  ", traced.counts);
  const auto pass_diffs = DiffCounts(untraced.counts, traced.counts);
  for (const auto& d : pass_diffs) {
    std::printf("DETERMINISM: traced pass differs from untraced: %s\n",
                d.c_str());
  }
  const auto record_diffs =
      CheckAgainstRecord(args, ops_per_rep, untraced.counts);
  for (const auto& d : record_diffs) {
    std::printf("DETERMINISM: differs from an earlier run of this seed: %s\n",
                d.c_str());
  }
  if (mismatches > 0) {
    std::printf("TRACE: %llu replica calls disagreed with the engine's "
                "answer\n",
                (unsigned long long)mismatches);
  }
  const uint64_t attempted = Attempted(untraced) + Attempted(traced);
  const uint64_t failed = Failed(untraced) + Failed(traced);
  const bool correct = failed == 0 && pass_diffs.empty() &&
                       record_diffs.empty() && mismatches == 0;

  auto row_median = [&](const char* name) {
    const LayerRow* row = table.Find(name);
    return row == nullptr ? 0.0 : row->median_us;
  };
  auto median_of = [&](std::vector<double> ClientResult::*field) {
    return Median(Concat(traced.clients, field));
  };
  const LayerRow* other = table.Find("other");
  std::vector<std::tuple<std::string, double, std::string>> metrics = {
      {"engine.plan_us", row_median("engine.plan"), "us"},
      {"engine.cache_lookup_us", row_median("engine.cache_lookup"), "us"},
      {"other_us", other == nullptr ? 0.0 : other->mean_us_per_op, "us"},
      {"host.ref_loop_us", Median({ref_before, ref_after}), "us"},
  };
  for (const char* layer : {"engine", "diagram", "skyline", "core", "index",
                            "dataset", "stream", "shard"}) {
    metrics.emplace_back(std::string(layer) + ".share_pct",
                         table.LayerSharePct(layer), "%");
  }
  metrics.emplace_back("other.share_pct",
                       other == nullptr ? 0.0 : other->share_pct, "%");
  for (size_t t = 0; t < kTiers.size(); ++t) {
    metrics.emplace_back(
        std::string("engine.answered_by.") + kTiers[t],
        double(traced.counts.at(std::string("answered_by.") + kTiers[t])),
        "count");
  }
  uint64_t candidates = 0, results = 0;
  for (const ClientResult& r : traced.clients) {
    candidates += r.diagram_candidates;
    results += r.diagram_results;
  }
  metrics.emplace_back("engine.cache_hit_ratio", traced.cache_hit_ratio,
                       "ratio");
  metrics.emplace_back("engine.lazy_builds", double(traced.lazy_builds),
                       "count");
  metrics.emplace_back(
      "diagram.candidates_per_result",
      results > 0 ? double(candidates) / double(results) : 0.0, "ratio");
  metrics.emplace_back("diagram.repaired_cells", double(traced.repaired_cells),
                       "count");
  metrics.emplace_back("diagram.drops", double(traced.drops), "count");
  metrics.emplace_back("skyline.bbs_nodes_visited",
                       median_of(&ClientResult::bbs_nodes), "count");
  metrics.emplace_back("stream.carried_ratio", traced.carried_ratio, "ratio");
  metrics.emplace_back("index.tree_repacks", double(traced.repacks), "count");
  metrics.emplace_back("shard.gathered", median_of(&ClientResult::gathered),
                       "count");
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", (unsigned long long)attempted,
      (unsigned long long)failed, MetricsJson(metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) { return ledger::Main(argc, argv); }
