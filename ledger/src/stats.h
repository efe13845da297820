// Exact order statistics for the ledger's latency samples.
//
// Every op is timed from outside the engine, so a percentile here is an
// actual sample (nearest rank), never an interpolation inside a histogram
// bucket. A percentile is only reported when at least kMinBeyond samples lie
// above it: with fewer, one outlier more or less moves it, and the run
// cannot tell that apart from a change in the program.

#ifndef LEDGER_STATS_H_
#define LEDGER_STATS_H_

#include <cstddef>
#include <optional>
#include <vector>

namespace ledger {

/// Samples a reported percentile must have strictly above its rank.
inline constexpr size_t kMinBeyond = 10;

struct Percentile {
  double q = 0.0;
  double value = 0.0;
  /// Samples the percentile was taken over.
  size_t samples = 0;
  /// Samples strictly above its rank.
  size_t beyond = 0;
};

/// The nearest-rank q-th percentile of `samples` (any order): the sample at
/// 1-based rank ceil(q * n), clamped to [1, n]. nullopt when the sample is
/// empty or fewer than `min_beyond` samples lie above that rank.
std::optional<Percentile> SupportedPercentile(std::vector<double> samples,
                                              double q,
                                              size_t min_beyond = kMinBeyond);

/// Nearest-rank median (0 for an empty sample).
double Median(std::vector<double> samples);

/// Op k's best time over replays of one op sequence: entry k is the least
/// of replays[r][k] over r (a NaN entry, an op that failed, is skipped).
/// The replays must have equal length. Replays of the same ops on fresh
/// engines differ only by host interference, which only ever adds time, so
/// each op's best converges on its undisturbed cost -- one op at a time,
/// without needing a whole replay to fall in a quiet spell.
std::vector<double> BestPerOp(const std::vector<std::vector<double>>& replays);

}  // namespace ledger

#endif  // LEDGER_STATS_H_
