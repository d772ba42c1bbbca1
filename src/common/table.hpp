// Console table printer used by every bench binary so the reproduced figures
// and tables share one consistent, diff-friendly format. Also emits CSV for
// downstream plotting.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace st2 {

class Table {
 public:
  explicit Table(std::string title = {});

  Table& header(std::vector<std::string> columns);
  Table& row(std::vector<std::string> cells);

  /// Formats a double with `prec` digits after the decimal point.
  static std::string num(double v, int prec = 2);
  /// Formats a ratio as a percentage, e.g. 0.213 -> "21.3%".
  static std::string pct(double ratio, int prec = 1);

  void print(std::ostream& os) const;
  std::string to_csv() const;

  const std::string& title() const { return title_; }
  std::size_t rows() const { return rows_.size(); }

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

std::ostream& operator<<(std::ostream& os, const Table& t);

}  // namespace st2
