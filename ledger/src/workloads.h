// The ledger's four workloads and their op streams.
//
// Each client's op stream is a function of (seed, workload, client) alone,
// so a single-client run repeats every internal engine event exactly. Class
// shares are stratified: every block of ops holds exactly the workload's
// class counts in a seeded order, so no seed shifts the mix -- and a gated
// percentile lands at the same rank inside one class on every run. The
// seed draws the boxes and places the write slots; the write sequence
// itself (inserted points, erase picks, insert/erase order) is the same for
// every seed, because the write path's rare events (diagram drops, tree
// rebuilds) are too few per run to average over write streams.

#ifndef LEDGER_WORKLOADS_H_
#define LEDGER_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "core/ratio_box.h"
#include "geometry/point.h"

namespace ledger {

enum class OpClass {
  /// A unique bounded box inside the default [0, 100] ratio domain.
  kBounded,
  /// A unique box with one or more unbounded ratio ranges.
  kHalfOpen,
  /// The fully unbounded box (the skyline).
  kSkyline,
  /// One of the workload's popular bounded boxes.
  kRepeat,
  /// A fresh INDE point.
  kInsert,
  /// A uniformly chosen live stable id.
  kErase,
};

const char* OpClassName(OpClass cls);

/// Which ratios a half-open box leaves unbounded.
enum class HalfOpenShape {
  /// One ratio, chosen per box.
  kOneRatio,
  /// Every second ratio (1, 3, 5, ...).
  kEverySecond,
};

struct WorkloadSpec {
  std::string name;
  /// INDE dataset size and dimensionality.
  size_t n = 0;
  size_t d = 0;
  /// Closed-loop clients, each with its own op stream.
  size_t clients = 1;
  /// 0 = one EclipseEngine; otherwise a ShardedEclipseEngine with this many
  /// shards.
  size_t shards = 0;
  /// One block of the stratified mix: every consecutive block of a
  /// client's stream holds exactly these classes, in a seeded order.
  std::vector<OpClass> block;
  HalfOpenShape half_open = HalfOpenShape::kOneRatio;
  /// Popular boxes behind kRepeat.
  size_t popular_boxes = 0;
  /// Ops per second of --seconds, over all clients: a run executes
  /// round(seconds * ops_per_second) ops split over its repetitions, sized
  /// so the timed phases last about --seconds together on a 4-core x86
  /// host. A fixed op count (not a deadline) keeps every event count a
  /// function of the seed.
  double ops_per_second = 0.0;
  /// Repetitions per run: each sets up a fresh engine and replays the same
  /// op stream. They differ only by host interference, so a run reports
  /// latencies and throughput from each op's best time over the
  /// repetitions (BestPerOp), and the median set-up.
  size_t repetitions = 1;
  /// The gated tail percentile of query latency: the highest the run's
  /// query count supports with >= 10 samples beyond it.
  double tail_q = 0.99;
};

const std::vector<WorkloadSpec>& Workloads();
/// nullptr when unknown.
const WorkloadSpec* FindWorkload(std::string_view name);

/// splitmix64 of (seed, tag): independent seeds for the dataset, each
/// client, the warm-up, the popular set, and the insert points.
uint64_t DeriveSeed(uint64_t seed, uint64_t tag);

/// A bounded box: per ratio, lo uniform in [0.3, 1.0), hi = lo + [0.2, 2.2).
eclipse::RatioBox BoundedBox(eclipse::Rng* rng, size_t d);
/// A bounded box with the `shape` ratios made unbounded.
eclipse::RatioBox HalfOpenBox(eclipse::Rng* rng, size_t d,
                              HalfOpenShape shape);
/// `count` bounded boxes from their own seed.
std::vector<eclipse::RatioBox> PopularBoxes(uint64_t seed, size_t d,
                                            size_t count);

struct Op {
  OpClass cls = OpClass::kBounded;
  /// Query ops.
  eclipse::RatioBox box = eclipse::RatioBox::Skyline(1);
  /// kInsert: the point. One insert in kFrontierInsertEvery lands near the
  /// origin, in [0, 0.01)^d: it is not dominated over the ratio domain, so
  /// it repairs the diagram's payloads (and drops the BBS tree). A uniform
  /// INDE insert reaches the frontier too rarely for a repetition of a few
  /// hundred inserts to see a repair.
  eclipse::Point point;
  /// kErase: a uniform 64-bit draw; the executor maps it onto its live-id
  /// list (live[pick % live.size()]), which is itself deterministic.
  uint64_t pick = 0;
  /// kErase: erase a point of the set-up dataset's eclipse over the ratio
  /// domain instead (PayloadVictim): it is in the diagram's root payload,
  /// so erasing it drops the diagram for an inline rebuild. Uniform erases
  /// hit the payload about once in 400, too rarely for a repetition of a
  /// few thousand ops to see it, so one erase in kPayloadEraseEvery is of
  /// this kind. The first comes before the first frontier insert, which
  /// evicts most of the set-up eclipse from the root payload.
  bool payload_member = false;
};

inline constexpr size_t kPayloadEraseEvery = 250;
inline constexpr size_t kFrontierInsertEvery = 100;

bool IsQuery(OpClass cls);

/// The stable id a payload-member erase removes: the first live member of
/// `domain_eclipse` (the set-up dataset's eclipse over the domain box) at
/// or after position pick % size; nullopt when none is live. It is chosen
/// from the op stream and the set-up dataset alone, never from the
/// engine's state, so every build of the program replays the same erases.
std::optional<eclipse::PointId> PayloadVictim(
    const std::vector<eclipse::PointId>& domain_eclipse, uint64_t pick,
    const std::function<bool(eclipse::PointId)>& live);

/// One client's op stream, generated lazily.
class OpStream {
 public:
  /// `popular` must outlive the stream (may be empty when the workload
  /// sends no repeats).
  OpStream(const WorkloadSpec& spec, uint64_t seed, size_t client,
           const std::vector<eclipse::RatioBox>* popular);

  Op Next();

 private:
  const WorkloadSpec& spec_;
  const std::vector<eclipse::RatioBox>* popular_;
  eclipse::Rng rng_;
  /// Inserted points and erase picks: the same stream for every seed (see
  /// the file comment).
  eclipse::Rng write_rng_;
  std::vector<OpClass> block_;
  size_t next_in_block_ = 0;
  /// The write classes of one block, in the write sequence's own order.
  std::vector<OpClass> write_block_;
  size_t next_write_ = 0;
  /// Repeat ops deal the popular boxes from a deck reshuffled (seeded)
  /// each time it runs out, so every seed repeats each box equally often
  /// and the cache-hit class has the same make-up on every run.
  std::vector<size_t> deck_;
  size_t next_in_deck_ = 0;
  size_t inserts_ = 0;
  size_t erases_ = 0;
};

}  // namespace ledger

#endif  // LEDGER_WORKLOADS_H_
