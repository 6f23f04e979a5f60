// Console table emission for the benchmark harness.
//
// Every bench binary prints the rows/series of the paper table or figure it
// regenerates; Table gives them a uniform, aligned plain-text rendering.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace graf {

/// A simple column-aligned text table with a title, header, and rows.
class Table {
 public:
  explicit Table(std::string title);

  Table& header(std::vector<std::string> names);
  Table& row(std::vector<std::string> cells);

  /// Convenience: format doubles with fixed precision.
  static std::string num(double v, int precision = 2);
  static std::string integer(long long v);

  /// Render aligned text (title, separator, header, rows).
  std::string str() const;

  void print(std::ostream& os) const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace graf
