// In-memory span recorder for pier_bench.
//
// Spans sit around the benchmark's own calls into PIER's layers (publish,
// compile, submit, RunFor, the bench's answer callbacks, replays). Each span
// records its name, wall-clock start and end, its parent (the span open when
// it began — the program is single-threaded, so a stack is exact) and the
// query id it belongs to, if any. Nothing is written until the run ends.
//
// With tracing off, a Scope costs one branch: no clock read, no allocation.

#ifndef PIER_BENCHMARK_TRACE_H_
#define PIER_BENCHMARK_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace pier {
namespace bench {

inline int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
    uint64_t qid = 0;
    uint64_t items = 0;  // work units the span covered (e.g. tuples published)
  };

  /// Self time and counts of every span with one name, within one phase
  /// (the top-level span the name ran under).
  struct Summary {
    int64_t self_ns = 0;
    uint64_t spans = 0;
    uint64_t items = 0;
  };

  explicit Tracer(bool on) : on_(on), origin_ns_(WallNs()) {}
  Tracer(const Tracer&) = delete;  // scopes and callbacks hold its address
  Tracer& operator=(const Tracer&) = delete;

  bool on() const { return on_; }

  /// RAII span. Begin/End pair up on destruction; SetQid/AddItems annotate
  /// the open span (no-ops with tracing off).
  class Scope {
   public:
    Scope(Tracer* t, const char* name, uint64_t qid = 0, uint64_t items = 0)
        : t_(t), idx_(t->on_ ? t->Begin(name, qid, items) : -1) {}
    ~Scope() {
      if (idx_ >= 0) t_->End(idx_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void SetQid(uint64_t qid) {
      if (idx_ >= 0) t_->spans_[idx_].qid = qid;
    }
    void AddItems(uint64_t n) {
      if (idx_ >= 0) t_->spans_[idx_].items += n;
    }

   private:
    Tracer* t_;
    int32_t idx_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// (phase, name) -> summary, where phase is the name of the outermost
  /// enclosing span. Self time is duration minus the time direct children
  /// cover (children never overlap: one thread, strictly nested).
  std::map<std::pair<std::string, std::string>, Summary> Summarize() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    std::vector<int32_t> root(spans_.size(), -1);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.parent >= 0) {
        child_ns[s.parent] += s.end_ns - s.start_ns;
        root[i] = root[s.parent] >= 0 ? root[s.parent] : s.parent;
      }
    }
    std::map<std::pair<std::string, std::string>, Summary> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::string phase = root[i] >= 0 ? spans_[root[i]].name : s.name;
      Summary& sum = out[{phase, s.name}];
      sum.self_ns += s.end_ns - s.start_ns - child_ns[i];
      sum.spans++;
      sum.items += s.items;
    }
    return out;
  }

  /// Share of top-level span `name`'s wall time that its direct children
  /// cover (the rest is the bench's own bookkeeping between calls).
  double ChildCoverage(const char* name) const {
    int64_t total = 0, covered = 0;
    std::vector<char> is_target(spans_.size(), 0);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.parent < 0 && std::string(s.name) == name) {
        is_target[i] = 1;
        total += s.end_ns - s.start_ns;
      } else if (s.parent >= 0 && is_target[s.parent]) {
        covered += s.end_ns - s.start_ns;
      }
    }
    return total > 0 ? static_cast<double>(covered) / total : 0;
  }

  /// Chrome trace-event JSON ("X" complete events, microsecond timestamps);
  /// load it in chrome://tracing or Perfetto.
  bool WriteChromeJson(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"qid\":\"%llu\",\"items\":%llu}}\n",
                   i == 0 ? "" : ",", s.name,
                   (s.start_ns - origin_ns_) / 1e3,
                   (s.end_ns - s.start_ns) / 1e3, i, s.parent,
                   static_cast<unsigned long long>(s.qid),
                   static_cast<unsigned long long>(s.items));
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  int32_t Begin(const char* name, uint64_t qid, uint64_t items) {
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.qid = qid;
    s.items = items;
    s.start_ns = WallNs();
    spans_.push_back(s);
    int32_t idx = static_cast<int32_t>(spans_.size() - 1);
    stack_.push_back(idx);
    return idx;
  }
  void End(int32_t idx) {
    spans_[idx].end_ns = WallNs();
    stack_.pop_back();
  }

  bool on_;
  int64_t origin_ns_;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

}  // namespace bench
}  // namespace pier

#endif  // PIER_BENCHMARK_TRACE_H_
