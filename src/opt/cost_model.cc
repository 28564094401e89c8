#include "opt/cost_model.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace pier {

std::string Cost::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.0f msgs / %.1f KB", messages,
                bytes / 1024.0);
  return buf;
}

double CostModel::Hops() const {
  return std::log2(std::max(2.0, p_.nodes));
}

Cost CostModel::DhtPut(double n, double item_bytes) const {
  double h = Hops();
  // Batched puts: `put_batch` same-owner items share one frame per hop, so
  // the message count (and with it the fixed per-message overhead in
  // Total()) amortizes; the payload bytes travel every hop either way.
  double frames = n / std::max(1.0, p_.put_batch);
  return Cost{frames * h, n * item_bytes * h};
}

Cost CostModel::DhtGet(double n, double reply_bytes) const {
  double h = Hops();
  // Request routes over the overlay; the reply is one direct message.
  return Cost{n * (h + 1), n * (p_.key_bytes * h + reply_bytes)};
}

Cost CostModel::RehashJoin(const TableStats& l, const TableStats& r) const {
  return DhtPut(static_cast<double>(l.tuples), l.mean_bytes) +
         DhtPut(static_cast<double>(r.tuples), r.mean_bytes);
}

Cost CostModel::FetchMatchesJoin(const TableStats& outer,
                                 const TableStats& inner) const {
  double matches_per_probe =
      static_cast<double>(inner.tuples) / std::max(1.0, inner.distinct);
  return DhtGet(static_cast<double>(outer.tuples),
                matches_per_probe * inner.mean_bytes);
}

Cost CostModel::BloomJoin(const TableStats& probed,
                          const TableStats& builder) const {
  double filter_bytes = p_.bloom_bits / 8.0;
  double build_nodes =
      std::min(p_.nodes, static_cast<double>(builder.tuples));
  double probe_nodes = std::min(p_.nodes, static_cast<double>(probed.tuples));
  double containment =
      std::min(1.0, builder.distinct / std::max(1.0, probed.distinct));
  double pass = std::min(1.0, containment + p_.bloom_fp);
  // Builder side ships in full; every contributing node puts its filter to
  // the owner, which merges them (one message per contributor, as a warm
  // put costs); every probing node fetches the merged filter; survivors of
  // the probe rehash.
  Cost c = DhtPut(static_cast<double>(builder.tuples), builder.mean_bytes);
  c += Cost{build_nodes, build_nodes * filter_bytes};
  c += DhtGet(probe_nodes, filter_bytes);
  c += DhtPut(static_cast<double>(probed.tuples) * pass, probed.mean_bytes);
  return c;
}

Cost CostModel::FlatAgg(const TableStats& in, double groups) const {
  double active = std::min(p_.nodes, static_cast<double>(in.tuples));
  if (active <= 0) return Cost{};
  double groups_per_node =
      std::min(groups, static_cast<double>(in.tuples) / active);
  return DhtPut(active * groups_per_node, in.mean_bytes);
}

Cost CostModel::HierAgg(const TableStats& in, double groups) const {
  double active = std::min(p_.nodes, static_cast<double>(in.tuples));
  double groups_per_node =
      active > 0 ? std::min(groups, static_cast<double>(in.tuples) / active)
                 : 0.0;
  // Leaves report their partials; interior nodes forward combined state.
  return Cost{2 * p_.nodes,
              (active * groups_per_node + p_.nodes) * in.mean_bytes};
}

}  // namespace pier
