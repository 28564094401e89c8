// First-class observability: one metrics registry per node.
//
// PIER's pitch is that a query processor running ON the network should be
// used to introspect the network — yet for six PRs every subsystem kept its
// own ad-hoc Stats struct that only benches could read. The MetricsRegistry
// unifies them under one `pier_*` namespace with three export surfaces:
//
//   (a) a Prometheus-text scrape endpoint per node (obs/scrape.h), riding
//       the VRI's framed TCP channel so it works identically in simulation
//       and on the physical runtime;
//   (b) a periodic republish as the catalog-declared `sys.metrics` soft-state
//       table (PierClient::PublishMetrics), so the fleet's health is
//       queryable through PIER itself — the paper's introspection story;
//   (c) per-query cost accounting (qp/dataflow.h QueryMeter), aggregated at
//       the proxy and reported by PierClient::ExplainAnalyze.
//
// Design: registration (name + label set -> instrument) takes a mutex once;
// the returned Counter/Gauge/Histogram pointers are stable for the registry's
// lifetime and update with relaxed atomics, so hot paths cache the pointer
// and pay one atomic add per event — cheap enough for the answer path, and
// shard-friendly for a sharded multi-reactor runtime (ROADMAP "Deferred").
// Subsystems whose counters already live in a Stats struct export through
// callback-backed counter families instead (AddCounterFn): zero cost on
// their hot paths, read at snapshot time, one source of truth.

#ifndef PIER_OBS_METRICS_H_
#define PIER_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace pier {

/// The metrics system table (mirrors kSysStatsTable): one row per sample,
/// partitioned by metric name, origin-stamped per node.
inline constexpr char kSysMetricsTable[] = "sys.metrics";

/// Sorted key=value label pairs. Keep cardinality low: labels multiply
/// series (see src/obs/README.md for the qid-label rules).
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind : uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };

/// Monotonically increasing counter. Relaxed atomics: per-event cost is one
/// uncontended atomic add; exactness across threads is restored at load time.
class Counter {
 public:
  void Inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Instantaneous value; may go down.
class Gauge {
 public:
  void Set(double v) { bits_.store(Encode(v), std::memory_order_relaxed); }
  void Add(double d) {
    uint64_t old = bits_.load(std::memory_order_relaxed);
    while (!bits_.compare_exchange_weak(old, Encode(Decode(old) + d),
                                        std::memory_order_relaxed)) {
    }
  }
  double value() const { return Decode(bits_.load(std::memory_order_relaxed)); }

 private:
  static uint64_t Encode(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v), "double is not 64-bit");
    __builtin_memcpy(&bits, &v, sizeof(bits));
    return bits;
  }
  static double Decode(uint64_t bits) {
    double v;
    __builtin_memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::atomic<uint64_t> bits_{0};
};

/// Fixed-bucket histogram (cumulative buckets at render time, like the
/// Prometheus exposition format expects). Bounds are upper-inclusive; the
/// implicit +Inf bucket catches the rest.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; index bounds_.size() is +Inf.
  std::vector<uint64_t> bucket_counts() const;
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;

 private:
  std::vector<double> bounds_;                    // ascending
  std::vector<std::atomic<uint64_t>> buckets_;    // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_bits_{0};             // double, CAS-accumulated
};

/// One rendered sample: what the endpoint, sys.metrics and tests consume.
struct MetricSample {
  std::string name;
  MetricLabels labels;
  MetricKind kind = MetricKind::kCounter;
  double value = 0;  // counter/gauge value; histograms use the fields below
  // Histogram expansion (empty for counters/gauges).
  std::vector<std::pair<double, uint64_t>> buckets;  // (upper bound, count)
  uint64_t count = 0;
  double sum = 0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- Registration ----------------------------------------------------------
  // Same (name, labels) returns the same instrument; a name re-registered as
  // a different kind returns the existing family's sink for matching kinds
  // and a process-wide no-op instrument otherwise (never null, never UB —
  // a miswired metric must not take down a node).

  Counter* GetCounter(const std::string& name, const MetricLabels& labels = {},
                      const std::string& help = "");
  Gauge* GetGauge(const std::string& name, const MetricLabels& labels = {},
                  const std::string& help = "");
  Histogram* GetHistogram(const std::string& name, std::vector<double> bounds,
                          const MetricLabels& labels = {},
                          const std::string& help = "");

  /// Callback-backed counter families: the value is read at snapshot time
  /// from code that already keeps the counter (the existing Stats structs).
  /// The callback must be monotonic.
  using ValueFn = std::function<double()>;
  void AddCounterFn(const std::string& name, const MetricLabels& labels,
                    ValueFn fn, const std::string& help = "");

  /// Drop one series (e.g. a finished query's qid-labeled counters). The
  /// instrument's storage is retired, not freed: pointers handed out earlier
  /// stay valid (writes land in a dead sink). Returns false if absent.
  bool Remove(const std::string& name, const MetricLabels& labels);

  // --- Export ----------------------------------------------------------------

  /// Consistent point-in-time read of every live series. Safe against
  /// concurrent updates (atomics) and concurrent registration (mutex).
  std::vector<MetricSample> Snapshot() const;

  /// Prometheus text exposition format (# HELP / # TYPE + samples).
  std::string RenderText() const;

  // --- Cardinality control ---------------------------------------------------

  /// Hard cap on series per family; past it new label sets collapse into a
  /// shared overflow sink and are counted in dropped_series(). Guards the
  /// qid-labeled families against unbounded growth (README has the rules).
  void set_max_series_per_family(size_t n) {
    MutexLock lock(mu_);
    max_series_per_family_ = n;
  }
  uint64_t dropped_series() const {
    return dropped_series_.load(std::memory_order_relaxed);
  }

  size_t num_families() const;
  size_t num_series(const std::string& name) const;

 private:
  struct Series {
    MetricLabels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    ValueFn fn;          // callback-backed series use this instead
    bool retired = false;
  };
  struct Family {
    MetricKind kind = MetricKind::kCounter;
    std::string help;
    /// deque: growth never moves existing Series (stable instrument ptrs).
    /// Retired series keep their storage for those pointers' sake.
    std::deque<Series> series;
    /// Series not retired: the count the per-family cap applies to.
    size_t live = 0;
  };

  Series* FindOrCreate(const std::string& name, MetricKind kind,
                       const MetricLabels& labels, const std::string& help,
                       bool* created) PIER_REQUIRES(mu_);

  mutable Mutex mu_;
  std::map<std::string, Family> families_ PIER_GUARDED_BY(mu_);
  size_t max_series_per_family_ PIER_GUARDED_BY(mu_) = 1024;
  std::atomic<uint64_t> dropped_series_{0};
  /// Overflow / kind-mismatch sinks: writes go somewhere harmless.
  Counter sink_counter_;
  Gauge sink_gauge_;
};

/// Render one label set as {k="v",...} with Prometheus escaping ("" for none).
std::string RenderLabels(const MetricLabels& labels);

}  // namespace pier

#endif  // PIER_OBS_METRICS_H_
