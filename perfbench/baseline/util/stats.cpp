#include "util/stats.hpp"

#include <cstdio>

namespace cagvt {

std::string format_fixed(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  return buf;
}

std::string format_si(double value) {
  const char* suffix = "";
  double v = value;
  if (v >= 1e9) {
    v /= 1e9;
    suffix = "G";
  } else if (v >= 1e6) {
    v /= 1e6;
    suffix = "M";
  } else if (v >= 1e3) {
    v /= 1e3;
    suffix = "K";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.2f%s", v, suffix);
  return buf;
}

}  // namespace cagvt
