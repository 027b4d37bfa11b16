#include "src/stats/table.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace digg::stats {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  if (header_.empty()) throw std::invalid_argument("TextTable: empty header");
}

void TextTable::add_row(std::vector<std::string> row) {
  if (row.size() != header_.size())
    throw std::invalid_argument("TextTable::add_row: column count mismatch");
  rows_.push_back(std::move(row));
}

std::string TextTable::render() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c)
    widths[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << row[c];
      if (c + 1 < row.size())
        os << std::string(widths[c] - row[c].size() + 2, ' ');
    }
    os << '\n';
  };
  emit_row(header_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  os << std::string(total > 2 ? total - 2 : total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

std::string fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return buf;
}

std::string fmt(std::int64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(value));
  return buf;
}

std::string fmt_pct(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%", fraction * 100.0);
  return buf;
}

namespace {

std::string bar(double value, double max_value, std::size_t max_width) {
  if (max_value <= 0.0) return "";
  const auto width = static_cast<std::size_t>(
      value / max_value * static_cast<double>(max_width) + 0.5);
  return std::string(width, '#');
}

}  // namespace

std::string render_bars(const std::vector<Bin>& bins, std::size_t max_width) {
  std::uint64_t max_count = 0;
  for (const Bin& b : bins) max_count = std::max(max_count, b.count);
  std::ostringstream os;
  for (const Bin& b : bins) {
    char label[64];
    std::snprintf(label, sizeof label, "[%8.0f, %8.0f)", b.lo, b.hi);
    os << label << ' ';
    char count[16];
    std::snprintf(count, sizeof count, "%6llu",
                  static_cast<unsigned long long>(b.count));
    os << count << ' '
       << bar(static_cast<double>(b.count), static_cast<double>(max_count),
              max_width)
       << '\n';
  }
  return os.str();
}

std::string render_bars(
    const std::vector<std::pair<std::int64_t, std::uint64_t>>& items,
    std::size_t max_width) {
  std::uint64_t max_count = 0;
  for (const auto& [v, c] : items) max_count = std::max(max_count, c);
  std::ostringstream os;
  for (const auto& [v, c] : items) {
    char label[48];
    std::snprintf(label, sizeof label, "%6lld %6llu ",
                  static_cast<long long>(v),
                  static_cast<unsigned long long>(c));
    os << label
       << bar(static_cast<double>(c), static_cast<double>(max_count),
              max_width)
       << '\n';
  }
  return os.str();
}

std::string render_series(const std::vector<double>& times,
                          const std::vector<double>& values,
                          std::size_t max_width) {
  if (times.size() != values.size())
    throw std::invalid_argument("render_series: size mismatch");
  double max_value = 0.0;
  for (double v : values) max_value = std::max(max_value, v);
  std::ostringstream os;
  for (std::size_t i = 0; i < times.size(); ++i) {
    char label[48];
    std::snprintf(label, sizeof label, "t=%7.0f  %8.1f ", times[i], values[i]);
    os << label << bar(values[i], max_value, max_width) << '\n';
  }
  return os.str();
}

}  // namespace digg::stats
