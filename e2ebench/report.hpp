// Output and statistics helpers of the end-to-end benchmark: a flat
// insertion-ordered JSON writer and exact percentiles over raw samples
// (no histogram buckets anywhere).
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

inline std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  (void)ec;
  return std::string(buf, end);
}

inline std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Insertion-ordered flat JSON object.
class Json {
 public:
  Json& raw(const std::string& k, const std::string& v) {
    items_.emplace_back(k, v);
    return *this;
  }
  Json& n(const std::string& k, double v) { return raw(k, num(v)); }
  Json& s(const std::string& k, const std::string& v) { return raw(k, quote(v)); }
  Json& b(const std::string& k, bool v) { return raw(k, v ? "true" : "false"); }
  [[nodiscard]] std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (i) out += ", ";
      out += quote(items_[i].first) + ": " + items_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> items_;
};

/// Exact nearest-rank quantile of raw samples.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Samples strictly beyond the nearest-rank p99 position.
inline std::size_t beyond_p99(std::size_t n) {
  return n - static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(n)));
}

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace e2e
