#include "spans.h"

#include <chrono>
#include <map>
#include <optional>

#include "stats.h"

namespace ledger {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t SpanLog::Add(const char* name, int64_t start_ns, int64_t end_ns,
                     int32_t parent, uint32_t op) {
  spans_.push_back(Span{name, start_ns, end_ns, parent, op});
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanLog::SetTimes(int32_t index, int64_t start_ns, int64_t end_ns) {
  spans_[index].start_ns = start_ns;
  spans_[index].end_ns = end_ns;
}

const LayerRow* LayerTable::Find(const std::string& name) const {
  for (const LayerRow& row : rows) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

double LayerTable::LayerSharePct(const std::string& layer) const {
  double pct = 0.0;
  const std::string prefix = layer + ".";
  for (const LayerRow& row : rows) {
    if (row.name.compare(0, prefix.size(), prefix) == 0) pct += row.share_pct;
  }
  return pct;
}

LayerTable BuildLayerTable(std::span<const SpanLog* const> logs) {
  // Per row: the self time of every op that has the row, summed within the
  // op (an op may call one layer twice).
  std::map<std::string, std::vector<double>> per_op;
  double total_us = 0.0;
  size_t ops = 0;
  std::map<std::string, double> op_rows;
  auto flush_op = [&]() {
    for (const auto& [name, us] : op_rows) per_op[name].push_back(us);
    op_rows.clear();
  };
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<double> self_us(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      const double us = double(spans[i].end_ns - spans[i].start_ns) / 1e3;
      self_us[i] += us;
      if (spans[i].parent >= 0) {
        self_us[spans[i].parent] -= us;
      } else {
        total_us += us;
        ++ops;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      if (i > 0 && spans[i].op != spans[i - 1].op) flush_op();
      op_rows[spans[i].parent < 0 ? "other" : spans[i].name] += self_us[i];
    }
    flush_op();
  }
  LayerTable table;
  table.ops = ops;
  if (ops == 0) return table;
  table.mean_op_us = total_us / double(ops);
  std::optional<LayerRow> other;
  for (auto& [name, values] : per_op) {
    LayerRow row;
    row.name = name;
    row.ops = values.size();
    double sum = 0.0;
    for (double us : values) sum += us;
    row.median_us = Median(std::move(values));
    row.mean_us_per_op = sum / double(ops);
    row.share_pct = total_us > 0.0 ? 100.0 * sum / total_us : 0.0;
    if (name == "other") {
      other = std::move(row);
    } else {
      table.rows.push_back(std::move(row));
    }
  }
  if (other.has_value()) table.rows.push_back(std::move(*other));
  return table;
}

}  // namespace ledger
