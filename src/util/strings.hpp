// Small string helpers shared by parsers and report printers.
#pragma once

#include <string>
#include <vector>

namespace pipesched {

/// Strip leading/trailing whitespace.
std::string trim(const std::string& s);

/// Split on a delimiter character; keeps empty fields.
std::vector<std::string> split(const std::string& s, char delim);

/// Format a count with thousands separators, e.g. 1307674368000 ->
/// "1,307,674,368,000" (used by the Table 1 reproduction).
std::string with_commas(unsigned long long n);

/// Format a double with `digits` significant digits, scientific when large.
std::string compact_double(double v, int digits = 3);

/// Pad with spaces to at least `width` columns (left-aligned). Text at
/// or over the width comes back whole: a column never cuts a number.
std::string pad_right(const std::string& s, std::size_t width);

/// Pad on the left (right-aligned); longer text comes back whole.
std::string pad_left(const std::string& s, std::size_t width);

}  // namespace pipesched
