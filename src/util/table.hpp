// ASCII table renderer; duo_check --list-stms prints the backend registry
// with it.
#pragma once

#include <string>
#include <vector>

namespace duo::util {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Add one data row; must have as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  /// Render with column-aligned pipes and a header separator.
  std::string render() const;

  std::size_t rows() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Convenience: "yes"/"no" cells for boolean verdicts.
std::string yes_no(bool b);

}  // namespace duo::util
