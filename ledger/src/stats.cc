#include "stats.h"

#include <algorithm>
#include <cmath>

namespace ledger {

namespace {

size_t Rank(size_t n, double q) {
  const double r = std::ceil(q * static_cast<double>(n));
  return std::clamp<size_t>(static_cast<size_t>(r), 1, n);
}

}  // namespace

std::optional<Percentile> SupportedPercentile(std::vector<double> samples,
                                              double q, size_t min_beyond) {
  if (samples.empty()) return std::nullopt;
  const size_t n = samples.size();
  const size_t rank = Rank(n, q);
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return Percentile{q, samples[rank - 1], n, n - rank};
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const size_t rank = Rank(samples.size(), 0.5);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::vector<double> BestPerOp(
    const std::vector<std::vector<double>>& replays) {
  if (replays.empty()) return {};
  std::vector<double> best = replays.front();
  for (size_t r = 1; r < replays.size(); ++r) {
    for (size_t k = 0; k < best.size(); ++k) {
      best[k] = std::fmin(best[k], replays[r][k]);
    }
  }
  return best;
}

}  // namespace ledger
