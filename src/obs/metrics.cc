#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace pier {

namespace {

// Prometheus label values escape backslash, double-quote and newline.
std::string EscapeLabelValue(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string FormatDouble(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (v == static_cast<double>(static_cast<int64_t>(v)) &&
      std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(static_cast<int64_t>(v)));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

MetricLabels Canonical(MetricLabels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

const char* KindName(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "untyped";
}

}  // namespace

std::string RenderLabels(const MetricLabels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k;
    out += "=\"";
    out += EscapeLabelValue(v);
    out += "\"";
  }
  out += "}";
  return out;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  std::sort(bounds_.begin(), bounds_.end());
}

void Histogram::Observe(double v) {
  size_t i = std::lower_bound(bounds_.begin(), bounds_.end(), v) -
             bounds_.begin();
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  uint64_t old = sum_bits_.load(std::memory_order_relaxed);
  double cur;
  uint64_t next;
  do {
    __builtin_memcpy(&cur, &old, sizeof(cur));
    cur += v;
    __builtin_memcpy(&next, &cur, sizeof(next));
  } while (!sum_bits_.compare_exchange_weak(old, next,
                                            std::memory_order_relaxed));
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::vector<uint64_t> out(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::sum() const {
  uint64_t bits = sum_bits_.load(std::memory_order_relaxed);
  double v;
  __builtin_memcpy(&v, &bits, sizeof(v));
  return v;
}

MetricsRegistry::Series* MetricsRegistry::FindOrCreate(
    const std::string& name, MetricKind kind, const MetricLabels& labels,
    const std::string& help, bool* created) {
  *created = false;
  MetricLabels key = Canonical(labels);
  auto [it, fresh] = families_.try_emplace(name);
  Family& fam = it->second;
  if (fresh) {
    fam.kind = kind;
    fam.help = help;
  } else if (fam.kind != kind) {
    return nullptr;  // kind mismatch: caller hands out a sink
  }
  for (Series& s : fam.series) {
    if (!s.retired && s.labels == key) return &s;
  }
  if (fam.live >= max_series_per_family_) {
    dropped_series_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  fam.series.emplace_back();
  fam.live++;
  Series& s = fam.series.back();
  s.labels = std::move(key);
  *created = true;
  return &s;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const MetricLabels& labels,
                                     const std::string& help) {
  MutexLock lock(mu_);
  bool created = false;
  Series* s = FindOrCreate(name, MetricKind::kCounter, labels, help, &created);
  if (s == nullptr) return &sink_counter_;
  if (created) s->counter = std::make_unique<Counter>();
  if (!s->counter) return &sink_counter_;  // name exists as a callback series
  return s->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const MetricLabels& labels,
                                 const std::string& help) {
  MutexLock lock(mu_);
  bool created = false;
  Series* s = FindOrCreate(name, MetricKind::kGauge, labels, help, &created);
  if (s == nullptr) return &sink_gauge_;
  if (created) s->gauge = std::make_unique<Gauge>();
  if (!s->gauge) return &sink_gauge_;
  return s->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds,
                                         const MetricLabels& labels,
                                         const std::string& help) {
  static Histogram sink_histogram({});  // shared no-op target
  MutexLock lock(mu_);
  bool created = false;
  Series* s =
      FindOrCreate(name, MetricKind::kHistogram, labels, help, &created);
  if (s == nullptr) return &sink_histogram;
  if (created) s->histogram = std::make_unique<Histogram>(std::move(bounds));
  if (!s->histogram) return &sink_histogram;
  return s->histogram.get();
}

void MetricsRegistry::AddCounterFn(const std::string& name,
                                   const MetricLabels& labels, ValueFn fn,
                                   const std::string& help) {
  MutexLock lock(mu_);
  bool created = false;
  Series* s = FindOrCreate(name, MetricKind::kCounter, labels, help, &created);
  if (s != nullptr) s->fn = std::move(fn);
}

bool MetricsRegistry::Remove(const std::string& name,
                             const MetricLabels& labels) {
  MutexLock lock(mu_);
  auto it = families_.find(name);
  if (it == families_.end()) return false;
  MetricLabels key = Canonical(labels);
  for (Series& s : it->second.series) {
    if (!s.retired && s.labels == key) {
      s.retired = true;
      s.fn = nullptr;
      it->second.live--;
      return true;
    }
  }
  return false;
}

std::vector<MetricSample> MetricsRegistry::Snapshot() const {
  std::vector<MetricSample> out;
  MutexLock lock(mu_);
  if (dropped_series_.load(std::memory_order_relaxed) > 0) {
    MetricSample drop;
    drop.name = "pier_metrics_dropped_series_total";
    drop.kind = MetricKind::kCounter;
    drop.value =
        static_cast<double>(dropped_series_.load(std::memory_order_relaxed));
    out.push_back(std::move(drop));
  }
  for (const auto& [name, fam] : families_) {
    for (const Series& s : fam.series) {
      if (s.retired) continue;
      MetricSample sample;
      sample.name = name;
      sample.labels = s.labels;
      sample.kind = fam.kind;
      if (s.fn) {
        sample.value = s.fn();
      } else if (s.counter) {
        sample.value = static_cast<double>(s.counter->value());
      } else if (s.gauge) {
        sample.value = s.gauge->value();
      } else if (s.histogram) {
        // Read count first: a concurrent Observe between the bucket loads
        // can only make buckets >= count, never lose an observed event.
        sample.count = s.histogram->count();
        sample.sum = s.histogram->sum();
        const auto& bounds = s.histogram->bounds();
        std::vector<uint64_t> counts = s.histogram->bucket_counts();
        uint64_t cum = 0;
        for (size_t i = 0; i < bounds.size(); ++i) {
          cum += counts[i];
          sample.buckets.emplace_back(bounds[i], cum);
        }
        cum += counts[bounds.size()];
        sample.buckets.emplace_back(
            std::numeric_limits<double>::infinity(), cum);
        sample.value = static_cast<double>(sample.count);
      }
      out.push_back(std::move(sample));
    }
  }
  return out;
}

std::string MetricsRegistry::RenderText() const {
  std::vector<MetricSample> samples = Snapshot();
  std::string out;
  out.reserve(samples.size() * 64);
  std::string last_family;
  // Snapshot() iterates a std::map, so samples arrive grouped by family
  // (the synthetic dropped-series counter leads and is its own family).
  MutexLock lock(mu_);
  for (const MetricSample& s : samples) {
    if (s.name != last_family) {
      last_family = s.name;
      auto it = families_.find(s.name);
      const std::string* help =
          it != families_.end() && !it->second.help.empty() ? &it->second.help
                                                            : nullptr;
      if (help != nullptr) {
        out += "# HELP ";
        out += s.name;
        out += " ";
        out += *help;
        out += "\n";
      }
      out += "# TYPE ";
      out += s.name;
      out += " ";
      out += KindName(s.kind);
      out += "\n";
    }
    if (s.kind == MetricKind::kHistogram) {
      for (const auto& [le, cum] : s.buckets) {
        MetricLabels bl = s.labels;
        bl.emplace_back("le", FormatDouble(le));
        out += s.name;
        out += "_bucket";
        out += RenderLabels(bl);
        out += " ";
        out += FormatDouble(static_cast<double>(cum));
        out += "\n";
      }
      out += s.name;
      out += "_sum";
      out += RenderLabels(s.labels);
      out += " ";
      out += FormatDouble(s.sum);
      out += "\n";
      out += s.name;
      out += "_count";
      out += RenderLabels(s.labels);
      out += " ";
      out += FormatDouble(static_cast<double>(s.count));
      out += "\n";
    } else {
      out += s.name;
      out += RenderLabels(s.labels);
      out += " ";
      out += FormatDouble(s.value);
      out += "\n";
    }
  }
  return out;
}

size_t MetricsRegistry::num_families() const {
  MutexLock lock(mu_);
  return families_.size();
}

size_t MetricsRegistry::num_series(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = families_.find(name);
  return it == families_.end() ? 0 : it->second.live;
}

}  // namespace pier
