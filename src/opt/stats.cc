#include "opt/stats.h"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "util/hash.h"
#include "util/wire.h"

namespace pier {

bool IsQueryScopedNamespace(std::string_view ns) {
  if (ns.empty()) return true;
  if (ns[0] == '!') return true;  // internal ("!dissem")
  if (ns[0] != 'q') return false;
  size_t i = 1;
  while (i < ns.size() && std::isdigit(static_cast<unsigned char>(ns[i]))) ++i;
  // "q<digits>." is the ExecContext::QueryNs shape.
  return i > 1 && i < ns.size() && ns[i] == '.';
}

// ---------------------------------------------------------------------------
// KmvSketch
// ---------------------------------------------------------------------------

void KmvSketch::Add(std::string_view key) { AddHash(Mix64(Fnv1a64(key))); }

void KmvSketch::AddHash(uint64_t h) {
  auto it = std::lower_bound(mins_.begin(), mins_.end(), h);
  if (it != mins_.end() && *it == h) return;  // already present
  if (mins_.size() >= k_) {
    if (h >= mins_.back()) return;  // not among the k smallest
    mins_.pop_back();
  }
  mins_.insert(std::lower_bound(mins_.begin(), mins_.end(), h), h);
}

void KmvSketch::Merge(const KmvSketch& other) {
  for (uint64_t h : other.mins_) AddHash(h);
}

double KmvSketch::Estimate() const {
  if (mins_.size() < k_) return static_cast<double>(mins_.size());
  // kth smallest of d uniform hashes sits near k/d of the hash line.
  double kth = static_cast<double>(mins_.back());
  if (kth <= 0) return static_cast<double>(mins_.size());
  return (static_cast<double>(k_) - 1.0) * 18446744073709551616.0 / kth;
}

std::string KmvSketch::Serialize() const {
  WireWriter w;
  w.PutVarint(k_);
  w.PutVarint(mins_.size());
  for (uint64_t h : mins_) w.PutU64(h);
  return std::move(w).data();
}

Result<KmvSketch> KmvSketch::Deserialize(std::string_view wire) {
  WireReader r(wire);
  uint32_t k = 0, n = 0;
  PIER_RETURN_IF_ERROR(r.GetVarint32(&k));
  PIER_RETURN_IF_ERROR(r.GetVarint32(&n));
  if (k == 0 || n > k) return Status::Corruption("bad KMV sketch header");
  KmvSketch s(k);
  uint64_t prev = 0;
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t h = 0;
    PIER_RETURN_IF_ERROR(r.GetU64(&h));
    if (i > 0 && h <= prev) return Status::Corruption("KMV sketch not sorted");
    prev = h;
    s.mins_.push_back(h);
  }
  return s;
}

// ---------------------------------------------------------------------------
// StatsRegistry
// ---------------------------------------------------------------------------

void StatsRegistry::Observe(const std::string& table, const Tuple& t,
                            const std::vector<std::string>& key_attrs,
                            size_t bytes, TimeUs now) {
  Entry& e = local_[table];
  e.tuples++;
  e.since_publish++;
  e.byte_sum += static_cast<double>(bytes);
  if (e.first_at == 0) e.first_at = now;
  e.last_at = std::max(e.last_at, now);
  if (key_attrs.empty()) {
    e.sketch.AddHash(Mix64(t.Hash()));
  } else {
    e.sketch.Add(t.PartitionKey(key_attrs));
  }
}

bool StatsRegistry::Has(const std::string& table) const {
  if (local_.count(table) > 0) return true;
  auto it = remote_.lower_bound({table, 0});
  return it != remote_.end() && it->first.first == table;
}

void StatsRegistry::Accumulate(const Entry& e, TableStats* out,
                               KmvSketch* sketch, TimeUs* first, TimeUs* last) {
  out->tuples += e.tuples;
  out->mean_bytes += e.byte_sum;  // byte SUM while accumulating; divided later
  out->distinct += e.sketchless_distinct;
  sketch->Merge(e.sketch);
  if (e.first_at > 0 && (*first == 0 || e.first_at < *first))
    *first = e.first_at;
  *last = std::max(*last, e.last_at);
}

TableStats StatsRegistry::Snapshot(const std::string& table) const {
  return SnapshotAt(table, 0);
}

TableStats StatsRegistry::SnapshotAt(const std::string& table,
                                     TimeUs now) const {
  TableStats out;
  KmvSketch merged;
  TimeUs first = 0, last = 0;
  auto lit = local_.find(table);
  if (lit != local_.end())
    Accumulate(lit->second, &out, &merged, &first, &last);
  for (auto it = remote_.lower_bound({table, 0});
       it != remote_.end() && it->first.first == table; ++it) {
    Accumulate(it->second, &out, &merged, &first, &last);
  }
  if (out.tuples == 0) return out;
  out.mean_bytes /= static_cast<double>(out.tuples);
  out.distinct += merged.Estimate();
  if (last > first && out.tuples > 1) {
    out.rate_per_sec = static_cast<double>(out.tuples - 1) * kSecond /
                       static_cast<double>(last - first);
    // Idle decay: silence past the last observation halves the rate every
    // kRateHalfLife, so a stream that dried up converges on rate 0 instead
    // of advertising its historical average forever.
    if (now > last) {
      out.rate_per_sec *=
          std::exp2(-static_cast<double>(now - last) /
                    static_cast<double>(kRateHalfLife));
    }
  }
  return out;
}

bool StatsRegistry::TakePublishDue(const std::string& table, uint64_t every) {
  auto it = local_.find(table);
  if (it == local_.end() || it->second.since_publish < every) return false;
  it->second.since_publish = 0;
  return true;
}

Tuple StatsRegistry::ToSysTuple(const std::string& table) const {
  Tuple t(kSysStatsTable);
  auto it = local_.find(table);
  if (it == local_.end()) return t;
  const Entry& e = it->second;
  t.Append("table", Value::String(table));
  t.Append("origin", Value::Int64(static_cast<int64_t>(origin_)));
  t.Append("tuples", Value::Int64(static_cast<int64_t>(e.tuples)));
  t.Append("distinct", Value::Double(e.sketch.Estimate()));
  t.Append("mean_bytes",
           Value::Double(e.tuples > 0
                             ? e.byte_sum / static_cast<double>(e.tuples)
                             : 0.0));
  double rate = 0;
  if (e.last_at > e.first_at && e.tuples > 1) {
    rate = static_cast<double>(e.tuples - 1) * kSecond /
           static_cast<double>(e.last_at - e.first_at);
  }
  t.Append("rate", Value::Double(rate));
  t.Append("first_us", Value::Int64(e.first_at));
  t.Append("last_us", Value::Int64(e.last_at));
  t.Append("sketch", Value::Bytes(e.sketch.Serialize()));
  return t;
}

Status StatsRegistry::Fold(const Tuple& sys_row) {
  const Value* table_v = sys_row.Get("table");
  const Value* origin_v = sys_row.Get("origin");
  const Value* tuples_v = sys_row.Get("tuples");
  if (table_v == nullptr || origin_v == nullptr || tuples_v == nullptr)
    return Status::InvalidArgument("sys.stats row lacks table/origin/tuples");
  PIER_ASSIGN_OR_RETURN(std::string_view table, table_v->AsString());
  PIER_ASSIGN_OR_RETURN(int64_t origin, origin_v->AsInt64());
  PIER_ASSIGN_OR_RETURN(int64_t tuples, tuples_v->AsInt64());
  if (tuples < 0) return Status::InvalidArgument("negative tuple count");

  Entry e;
  e.tuples = static_cast<uint64_t>(tuples);
  if (const Value* v = sys_row.Get("mean_bytes")) {
    Result<double> mb = v->AsDouble();
    if (mb.ok()) e.byte_sum = *mb * static_cast<double>(e.tuples);
  }
  if (const Value* v = sys_row.Get("first_us")) {
    Result<int64_t> ts = v->AsInt64();
    if (ts.ok()) e.first_at = *ts;
  }
  if (const Value* v = sys_row.Get("last_us")) {
    Result<int64_t> ts = v->AsInt64();
    if (ts.ok()) e.last_at = *ts;
  }
  bool have_sketch = false;
  if (const Value* v = sys_row.Get("sketch")) {
    Result<std::string_view> raw = v->AsBytes();
    if (raw.ok()) {
      Result<KmvSketch> sk = KmvSketch::Deserialize(*raw);
      if (sk.ok()) {
        e.sketch = std::move(*sk);
        have_sketch = true;
      }
    }
  }
  if (!have_sketch) {
    if (const Value* v = sys_row.Get("distinct")) {
      Result<double> d = v->AsDouble();
      if (d.ok()) e.sketchless_distinct = *d;
    }
  }
  // Soft state keeps superseded rows alive until they expire, so a query
  // can return several generations from one origin. The newest wins: later
  // last_us, then (same instant) the larger count. A restarted origin's
  // fresher-but-smaller row therefore replaces its stale pre-restart one.
  std::pair<std::string, uint64_t> key{std::string(table),
                                       static_cast<uint64_t>(origin)};
  auto it = remote_.find(key);
  if (it != remote_.end()) {
    const Entry& old = it->second;
    bool newer = e.last_at > old.last_at ||
                 (e.last_at == old.last_at && e.tuples >= old.tuples);
    if (!newer) return Status::Ok();
  }
  remote_[key] = std::move(e);
  return Status::Ok();
}

Status StatsRegistry::FoldForeign(const Tuple& sys_row) {
  const Value* origin_v = sys_row.Get("origin");
  if (origin_v == nullptr)
    return Status::InvalidArgument("sys.stats row lacks origin");
  PIER_ASSIGN_OR_RETURN(int64_t origin, origin_v->AsInt64());
  if (static_cast<uint64_t>(origin) == origin_) return Status::Ok();
  return Fold(sys_row);
}

}  // namespace pier
