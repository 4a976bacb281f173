#include "util/strings.hpp"

#include <cctype>
#include <cmath>
#include <iomanip>
#include <sstream>

namespace pipesched {

std::string trim(const std::string& s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::vector<std::string> split(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::string current;
  for (char c : s) {
    if (c == delim) {
      out.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  out.push_back(current);
  return out;
}

std::string with_commas(unsigned long long n) {
  std::string digits = std::to_string(n);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count && count % 3 == 0) out += ',';
    out += *it;
    ++count;
  }
  return {out.rbegin(), out.rend()};
}

std::string compact_double(double v, int digits) {
  std::ostringstream oss;
  if (v != 0 && (std::abs(v) >= 1e7 || std::abs(v) < 1e-3)) {
    oss << std::scientific << std::setprecision(digits - 1) << v;
  } else {
    oss << std::fixed
        << std::setprecision(std::abs(v) >= 100 ? 1 : digits - 1) << v;
  }
  return oss.str();
}

std::string pad_right(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return s + std::string(width - s.size(), ' ');
}

std::string pad_left(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return std::string(width - s.size(), ' ') + s;
}

}  // namespace pipesched
