// The ledger's two self-checks.
//
// Answer check: a deterministic sample of each run's answers is compared
// with EclipseCornerSkyline over the exact snapshot the op captured (row
// indices mapped to stable ids), outside the timed region.
//
// Determinism check: every run records its engine event counts (answers per
// serving tier, cache hits, carried entries, repaired cells, drops, lazy
// builds, ...). With one client and a fixed seed every internal event
// repeats exactly, so two runs of the same seed -- and the traced and
// untraced passes of one run -- must agree on every count.

#ifndef LEDGER_CHECKS_H_
#define LEDGER_CHECKS_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/ratio_box.h"
#include "dataset/columnar.h"
#include "geometry/point.h"

namespace ledger {

using eclipse::PointId;

/// Empty when `got` equals `want` (both ascending stable ids); otherwise a
/// one-line description of the first difference.
std::string CompareAnswer(std::span<const PointId> got,
                          std::span<const PointId> want);

/// The exact answer for `box` over `rows`: EclipseCornerSkyline with no
/// prebuilt structure, row indices mapped to the snapshot's stable ids.
eclipse::Result<std::vector<PointId>> OracleAnswer(
    const eclipse::ColumnarSnapshot& rows, const eclipse::RatioBox& box);

/// Event counts by name.
using EventCounts = std::map<std::string, uint64_t>;

/// One line per count that differs or exists on one side only; empty when
/// the two records agree.
std::vector<std::string> DiffCounts(const EventCounts& expected,
                                    const EventCounts& actual);

/// "name value" lines, sorted by name.
std::string FormatCounts(const EventCounts& counts);

/// Inverse of FormatCounts; InvalidArgument on a malformed line.
eclipse::Result<EventCounts> ParseCounts(const std::string& text);

}  // namespace ledger

#endif  // LEDGER_CHECKS_H_
