// Outside-in spans for the traced run, and the per-layer table built from
// them.
//
// Each op runs through the engine inside a root span "op.<type>". Around
// that call the driver calls the layers' public functions on the op's own
// inputs, each in a span whose parent is the op span; a span may also have
// children of its own (core.oneshot -> core.embed + skyline.flat). Spans
// stay in memory, one log per client thread, until the run ends.
//
// The table charges every span its SELF time: its duration minus the
// durations of its children. A root's self time is the part of the
// end-to-end op time no layer row explains ("other"), so the rows plus
// other sum exactly to the end-to-end time per op.

#ifndef LEDGER_SPANS_H_
#define LEDGER_SPANS_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace ledger {

/// steady_clock nanoseconds.
int64_t NowNs();

struct Span {
  /// A string literal ("op.query", "diagram.query", ...).
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the parent span in the same log; -1 for an op's root span.
  int32_t parent = -1;
  uint32_t op = 0;
};

class SpanLog {
 public:
  /// Appends a span with explicit times; returns its index.
  int32_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int32_t parent, uint32_t op);
  /// Sets the times of an already-added span (roots are added before their
  /// engine call so children can name them as parent).
  void SetTimes(int32_t index, int64_t start_ns, int64_t end_ns);
  const std::vector<Span>& spans() const { return spans_; }
  void Reserve(size_t n) { spans_.reserve(n); }

 private:
  std::vector<Span> spans_;
};

/// One row of the per-layer table.
struct LayerRow {
  /// Span name ("engine.plan", ...) or "other".
  std::string name;
  /// Ops with at least one span of this name.
  size_t ops = 0;
  /// Median over those ops of the row's per-op self time.
  double median_us = 0.0;
  /// Total self time divided by ALL ops: rows + other sum to the mean
  /// end-to-end time per op.
  double mean_us_per_op = 0.0;
  /// Share of the summed end-to-end op time.
  double share_pct = 0.0;
};

struct LayerTable {
  /// Rows sorted by name, "other" last.
  std::vector<LayerRow> rows;
  /// Root (op.*) spans.
  size_t ops = 0;
  double mean_op_us = 0.0;

  /// The row named `name`, or nullptr.
  const LayerRow* Find(const std::string& name) const;
  /// Summed share of every row whose name starts with "<layer>.".
  double LayerSharePct(const std::string& layer) const;
};

/// Builds the self-time table over every span of every log. A parent index
/// refers to the span's own log, a parent precedes its children, and the
/// spans of one op are contiguous in their log.
LayerTable BuildLayerTable(std::span<const SpanLog* const> logs);

}  // namespace ledger

#endif  // LEDGER_SPANS_H_
