#include "common/table.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace graf {

Table::Table(std::string title) : title_{std::move(title)} {}

Table& Table::header(std::vector<std::string> names) {
  header_ = std::move(names);
  return *this;
}

Table& Table::row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
  return *this;
}

std::string Table::num(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string Table::integer(long long v) { return std::to_string(v); }

std::string Table::str() const {
  std::vector<std::size_t> widths;
  auto widen = [&](const std::vector<std::string>& cells) {
    if (widths.size() < cells.size()) widths.resize(cells.size(), 0);
    for (std::size_t i = 0; i < cells.size(); ++i)
      widths[i] = std::max(widths[i], cells[i].size());
  };
  widen(header_);
  for (const auto& r : rows_) widen(r);

  std::ostringstream os;
  os << "== " << title_ << " ==\n";
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      os << std::left << std::setw(static_cast<int>(widths[i]) + 2) << cells[i];
    }
    os << '\n';
  };
  if (!header_.empty()) {
    emit(header_);
    std::size_t total = 0;
    for (auto w : widths) total += w + 2;
    os << std::string(total, '-') << '\n';
  }
  for (const auto& r : rows_) emit(r);
  return os.str();
}

void Table::print(std::ostream& os) const { os << str() << '\n'; }

}  // namespace graf
