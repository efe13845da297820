#include "checks.h"

#include <sstream>

#include "common/strings.h"
#include "core/eclipse.h"

namespace ledger {

std::string CompareAnswer(std::span<const PointId> got,
                          std::span<const PointId> want) {
  const size_t common = std::min(got.size(), want.size());
  for (size_t i = 0; i < common; ++i) {
    if (got[i] != want[i]) {
      return eclipse::StrFormat(
          "position %zu: got id %u, oracle id %u (%zu vs %zu ids)", i,
          unsigned(got[i]), unsigned(want[i]), got.size(), want.size());
    }
  }
  if (got.size() != want.size()) {
    return eclipse::StrFormat("got %zu ids, oracle %zu (common prefix equal)",
                              got.size(), want.size());
  }
  return "";
}

eclipse::Result<std::vector<PointId>> OracleAnswer(
    const eclipse::ColumnarSnapshot& rows, const eclipse::RatioBox& box) {
  auto ids = eclipse::EclipseCornerSkyline(rows.points(), box);
  if (!ids.ok()) return ids.status();
  std::vector<PointId> out = std::move(ids).value();
  if (!rows.ids_are_row_indices()) {
    for (PointId& id : out) id = rows.id(id);
  }
  return out;
}

std::vector<std::string> DiffCounts(const EventCounts& expected,
                                    const EventCounts& actual) {
  std::vector<std::string> diffs;
  for (const auto& [name, want] : expected) {
    auto it = actual.find(name);
    if (it == actual.end()) {
      diffs.push_back(name + ": missing (expected " + std::to_string(want) +
                      ")");
    } else if (it->second != want) {
      diffs.push_back(name + ": " + std::to_string(it->second) +
                      " (expected " + std::to_string(want) + ")");
    }
  }
  for (const auto& [name, got] : actual) {
    if (expected.find(name) == expected.end()) {
      diffs.push_back(name + ": " + std::to_string(got) + " (not expected)");
    }
  }
  return diffs;
}

std::string FormatCounts(const EventCounts& counts) {
  std::string out;
  for (const auto& [name, value] : counts) {
    out += name + " " + std::to_string(value) + "\n";
  }
  return out;
}

eclipse::Result<EventCounts> ParseCounts(const std::string& text) {
  EventCounts counts;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string name;
    uint64_t value = 0;
    std::string rest;
    if (!(fields >> name >> value) || (fields >> rest)) {
      return eclipse::Status::InvalidArgument("malformed count line: " + line);
    }
    counts[name] = value;
  }
  return counts;
}

}  // namespace ledger
