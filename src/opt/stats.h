// The statistics subsystem behind the cost-based optimizer.
//
// PIER itself keeps no catalog and no statistics (§4.2.1); the paper instead
// suggests introspecting the system *through queries*. This module follows
// that idea: each node accrues per-namespace statistics as tuples flow
// through its client (PierClient::Publish) and its operators (the executor's
// publish observer), and periodically republishes them as ordinary soft-state
// tuples in a `sys.stats` system table — partitioned by table name — so any
// node can assemble a cluster-wide view with a plain PIER query and fold the
// rows back into its own registry.
//
// What is tracked per table:
//   - tuple count and mean encoded tuple bytes
//   - a distinct-value estimate of the primary partition key, via a small
//     k-minimum-values (KMV) sketch (mergeable, a few hundred bytes)
//   - arrival rate (tuples per second over the observed span)
//
// Everything here is event-loop state: no locking, virtual-time friendly.

#ifndef PIER_OPT_STATS_H_
#define PIER_OPT_STATS_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "data/tuple.h"
#include "runtime/vri.h"
#include "util/status.h"

namespace pier {

/// The system table stats rows are published into (partitioned by "table").
inline constexpr const char kSysStatsTable[] = "sys.stats";

/// True for per-query rendezvous namespaces ("q<id>.join", "q<id>.agg", ...)
/// and internal namespaces ("!dissem"): transient state the registry must not
/// accrue as if it were an application table.
bool IsQueryScopedNamespace(std::string_view ns);

/// K-minimum-values distinct-count sketch: keep the k smallest 64-bit hashes
/// seen; with n >= k distinct values the k-th smallest hash estimates the
/// density of distinct hashes on the line, giving d ~= (k-1) * 2^64 / kth.
/// Below k distinct values the estimate is exact. Sketches merge by taking
/// the union's k smallest — the basis for cluster-wide distinct counts.
class KmvSketch {
 public:
  static constexpr size_t kDefaultK = 64;

  explicit KmvSketch(size_t k = kDefaultK) : k_(k == 0 ? 1 : k) {}

  void Add(std::string_view key);
  void AddHash(uint64_t h);
  void Merge(const KmvSketch& other);

  double Estimate() const;
  size_t size() const { return mins_.size(); }

  std::string Serialize() const;
  static Result<KmvSketch> Deserialize(std::string_view wire);

 private:
  size_t k_;
  /// Sorted ascending, distinct, size <= k_.
  std::vector<uint64_t> mins_;
};

/// One table's merged statistics, as the optimizer consumes them.
struct TableStats {
  uint64_t tuples = 0;
  double distinct = 0;       // primary-partition-key distinct estimate
  double mean_bytes = 0;     // mean encoded tuple size
  double rate_per_sec = 0;   // arrivals per second over the observed span

  bool valid() const { return tuples > 0; }
};

/// Per-node statistics accumulator. `Observe` records locally published
/// tuples; `Fold` ingests sys.stats rows published by OTHER registries
/// (keyed by their origin id; the newest row per origin wins); `Snapshot`
/// merges local accruals with every folded remote entry. One registry is
/// one origin — clients sharing a registry (the simulation does) publish
/// its rows under ONE origin id, so folders never double count. A caller
/// must still not fold rows derived from its own registry.
class StatsRegistry {
 public:
  /// The id stamped into this registry's sys.stats rows. Set once by
  /// whoever owns the registry (a node's address, or 0 for a shared
  /// cluster-view registry).
  void set_origin(uint64_t origin) { origin_ = origin; }
  uint64_t origin() const { return origin_; }

  /// Record one published tuple of `bytes` encoded size. `key_attrs` is the
  /// table's primary partitioning attribute list (the distinct sketch's
  /// input); when empty (local-only tables) the whole-tuple hash feeds the
  /// sketch instead.
  void Observe(const std::string& table, const Tuple& t,
               const std::vector<std::string>& key_attrs, size_t bytes,
               TimeUs now);

  bool Has(const std::string& table) const;
  TableStats Snapshot(const std::string& table) const;

  /// Snapshot with the arrival rate decayed to `now`: a table that STOPPED
  /// publishing must not keep its last rate forever (replanning would
  /// keep steering toward a plan tuned for traffic that no longer exists).
  /// The rate observed over [first, last] halves for every kRateHalfLife of
  /// silence past `last`, decaying toward zero between observations.
  /// now <= last_observation (or 0) applies no decay — identical to
  /// Snapshot.
  TableStats SnapshotAt(const std::string& table, TimeUs now) const;
  static constexpr TimeUs kRateHalfLife = 30 * kSecond;

  /// True once every `every` observations of `table` since the last call
  /// that returned true — the client's republish pacing. Resets the counter.
  bool TakePublishDue(const std::string& table, uint64_t every);

  /// Render the local accruals for `table` as a sys.stats tuple (columns:
  /// table, origin, tuples, distinct, mean_bytes, rate, first_us, last_us,
  /// sketch). Returns a tuple with zero columns if nothing was observed.
  Tuple ToSysTuple(const std::string& table) const;

  /// Ingest a sys.stats row published by another registry. Per (table,
  /// origin) the newest row wins (by last_us, then tuple count), so a
  /// restarted origin's smaller-but-fresher counts replace stale ones.
  Status Fold(const Tuple& sys_row);

  /// Fold, but silently skip rows stamped with this registry's own origin —
  /// the background sys.stats refresh streams EVERY published row back,
  /// including the ones this registry produced, and folding those would
  /// double count its local accruals.
  Status FoldForeign(const Tuple& sys_row);

 private:
  struct Entry {
    uint64_t tuples = 0;
    double byte_sum = 0;
    KmvSketch sketch;
    /// Remote rows whose sketch column was missing/corrupt still contribute
    /// their scalar estimate (not mergeable, simply summed).
    double sketchless_distinct = 0;
    TimeUs first_at = 0;
    TimeUs last_at = 0;
    uint64_t since_publish = 0;
  };

  static void Accumulate(const Entry& e, TableStats* out, KmvSketch* sketch,
                         TimeUs* first, TimeUs* last);

  uint64_t origin_ = 0;
  std::map<std::string, Entry> local_;
  std::map<std::pair<std::string, uint64_t>, Entry> remote_;
};

}  // namespace pier

#endif  // PIER_OPT_STATS_H_
