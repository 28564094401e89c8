// Shared helpers for the experiment binaries: fixed-width table printing and
// latency CDF summaries. Every bench prints its parameters first so runs are
// self-describing (there is no separate config file).

#ifndef PIER_BENCH_BENCH_COMMON_H_
#define PIER_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "runtime/vri.h"

namespace pier {
namespace bench {

inline void Title(const std::string& s) {
  std::printf("\n=== %s ===\n", s.c_str());
}

/// Unwrap a Result or die: a bench that silently measures a query that never
/// ran would print fabricated zeros, so failures must be loud.
template <typename T>
T& Check(Result<T>& r, const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what,
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return *r;
}

inline void Note(const std::string& s) { std::printf("%s\n", s.c_str()); }

/// Fixed-width row printer: Row({"a", "b"}) with widths {12, 8}.
inline void Row(const std::vector<std::string>& cells,
                const std::vector<int>& widths) {
  for (size_t i = 0; i < cells.size(); ++i) {
    int w = i < widths.size() ? widths[i] : 12;
    std::printf("%-*s", w, cells[i].c_str());
  }
  std::printf("\n");
}

inline std::string Ms(TimeUs t) {
  if (t < 0) return "-";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f",
                static_cast<double>(t) / kMillisecond);
  return buf;
}

inline std::string Fmt(double v, int digits = 1) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

/// First-result-latency CDF over a query set. Latencies < 0 mean "no answer
/// before the deadline"; they count in the denominator, so the CDF plateaus
/// below 100% exactly as in the paper's Figure 1.
struct LatencyCdf {
  std::vector<TimeUs> latencies;  // -1 = unanswered
  void Add(TimeUs t) { latencies.push_back(t); }

  double AnsweredFraction() const {
    if (latencies.empty()) return 0;
    size_t n = 0;
    for (TimeUs t : latencies) n += (t >= 0);
    return static_cast<double>(n) / latencies.size();
  }

  /// Fraction of queries answered within `t`.
  double At(TimeUs t) const {
    if (latencies.empty()) return 0;
    size_t n = 0;
    for (TimeUs x : latencies) n += (x >= 0 && x <= t);
    return static_cast<double>(n) / latencies.size();
  }

  /// Latency at which `pct` percent of queries are answered (-1 if never).
  TimeUs Percentile(double pct) const {
    std::vector<TimeUs> answered;
    for (TimeUs t : latencies) {
      if (t >= 0) answered.push_back(t);
    }
    std::sort(answered.begin(), answered.end());
    size_t need = static_cast<size_t>(pct / 100.0 * latencies.size());
    if (need == 0) need = 1;
    if (need > answered.size()) return -1;
    return answered[need - 1];
  }
};

}  // namespace bench
}  // namespace pier

#endif  // PIER_BENCH_BENCH_COMMON_H_
