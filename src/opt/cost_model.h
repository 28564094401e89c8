// The network-aware cost model for distributed physical plans.
//
// Units (documented in detail in src/opt/README.md):
//   - messages: point-to-point network sends. A DHT operation that routes
//     over the overlay counts one message per expected hop, log2(N).
//   - bytes:    payload bytes actually transmitted, i.e. payload size
//     multiplied by the hops it travels.
// The two are collapsed into one scalar by Total(): bytes plus a fixed
// per-message overhead (headers, syscalls, congestion-window pressure).
//
// The model estimates the PIER-specific strategy trade-offs of §3.3.4:
// rehash both sides vs Fetch Matches per-probe lookups vs a Bloom semi-join
// prefilter, and flat two-phase vs hierarchical (tree) aggregation.

#ifndef PIER_OPT_COST_MODEL_H_
#define PIER_OPT_COST_MODEL_H_

#include <string>

#include "opt/stats.h"

namespace pier {

struct Cost {
  double messages = 0;
  double bytes = 0;

  Cost& operator+=(const Cost& o) {
    messages += o.messages;
    bytes += o.bytes;
    return *this;
  }
  friend Cost operator+(Cost a, const Cost& b) { return a += b; }

  std::string ToString() const;  // "123 msgs / 4.5 KB"
};

struct CostParams {
  /// Network size N. One node cannot know this exactly (there is no global
  /// membership view); the runtime that boots the nodes injects its best
  /// estimate (the simulation knows it exactly).
  double nodes = 64;
  /// Scalarization weight: fixed cost of one message, in byte-equivalents.
  double per_message_bytes = 100;
  /// Bytes shipped per DHT lookup request (namespace + key + header).
  double key_bytes = 16;
  /// Effective publish/rehash batch size: how many same-owner puts share
  /// one wire frame (the DHT store frame / batch dataflow). 1 = unbatched
  /// pricing. The per-message overhead amortizes by this factor; payload
  /// bytes are unaffected. PierClient::SetPublishBatching keeps it in sync
  /// with the client's actual batching configuration.
  double put_batch = 1;
  /// Bloom rewrite geometry: filter bits and residual false-positive rate.
  double bloom_bits = 4096;
  double bloom_fp = 0.02;
  /// Below this many observed tuples, statistics are considered noise and
  /// the optimizer keeps the compiler's default physical choices.
  uint64_t min_sample_tuples = 64;
  /// Assumed selectivity of a predicate the model knows nothing about.
  double default_selectivity = 0.33;
};

class CostModel {
 public:
  CostModel() : CostModel(CostParams{}) {}
  explicit CostModel(CostParams p) : p_(p) {}

  const CostParams& params() const { return p_; }

  /// Expected overlay routing hops for one DHT operation: log2(N).
  double Hops() const;

  /// Scalar rank of a cost: bytes + messages * per_message_bytes.
  double Total(const Cost& c) const {
    return c.bytes + c.messages * p_.per_message_bytes;
  }

  // --- Building blocks -------------------------------------------------------

  /// Publish `n` items of `item_bytes` each into the DHT (route + store).
  Cost DhtPut(double n, double item_bytes) const;
  /// `n` DHT lookups, each returning `reply_bytes` (request routes over the
  /// overlay; the reply comes back direct).
  Cost DhtGet(double n, double reply_bytes) const;

  // --- Join strategies (§3.3.4 / §2.1.1) -------------------------------------

  /// Ship both sides into a rendezvous namespace keyed on the join attribute.
  Cost RehashJoin(const TableStats& l, const TableStats& r) const;
  /// One DHT get per outer tuple against the inner's primary index; each
  /// probe returns the inner tuples sharing that key (tuples/distinct).
  Cost FetchMatchesJoin(const TableStats& outer, const TableStats& inner) const;
  /// Build a Bloom filter over `builder`'s join keys, prune `probed` before
  /// rehashing both. Pass-through fraction is the key-containment estimate
  /// min(1, builder.distinct / probed.distinct) plus the false-positive rate.
  Cost BloomJoin(const TableStats& probed, const TableStats& builder) const;

  // --- Aggregation strategies ------------------------------------------------

  /// Two-phase rehash: only nodes that hold data send, one put per local
  /// group, each traveling log N hops.
  Cost FlatAgg(const TableStats& in, double groups) const;
  /// Aggregation tree: every node in the tree participates (2 messages per
  /// node: tree upkeep + one combined report), but payloads travel one edge.
  Cost HierAgg(const TableStats& in, double groups) const;

 private:
  CostParams p_;
};

}  // namespace pier

#endif  // PIER_OPT_COST_MODEL_H_
