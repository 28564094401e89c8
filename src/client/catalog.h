// The client-side system catalog PIER itself deliberately lacks (§4.2.1).
//
// The paper's applications "bake in" index metadata at every publish and
// compile site; PIQL-style bounded client APIs argue for declaring it once
// instead. A TableSpec records, per table, how tuples are indexed — the
// primary (partitioning) attributes, any secondary indexes (§3.3.3's
// (index-key, tupleID) tables), any PHT range indexes, and whether the table
// is in-situ (local soft state, never shipped). PierClient::Publish reads
// the spec and fans one application tuple out to every declared index; the
// SQL compiler's TableHint map is derived from the same specs, so the
// partitioning metadata can no longer drift between publishers and queries.
//
// The catalog is client-side state shared by an application's clients; it is
// NOT disseminated — PIER's core remains catalog-free, exactly as in §3.3.2.

#ifndef PIER_CLIENT_CATALOG_H_
#define PIER_CLIENT_CATALOG_H_

#include <map>
#include <string>
#include <vector>

#include "qp/sql.h"
#include "runtime/vri.h"
#include "util/status.h"

namespace pier {

/// A secondary index: entries (attr value, base-table locator) are published
/// into `table`, partitioned by `attr` (§3.3.3).
struct SecondaryIndexSpec {
  std::string attr;
  std::string table;  // defaults to "<base>_by_<attr>"

  bool operator==(const SecondaryIndexSpec& o) const {
    return attr == o.attr && table == o.table;
  }
};

/// A PHT range index over an integer attribute (§3.3.3).
struct RangeIndexSpec {
  std::string attr;
  std::string table;  // defaults to "<base>_rng_<attr>"
  int key_bits = 32;

  bool operator==(const RangeIndexSpec& o) const {
    return attr == o.attr && table == o.table && key_bits == o.key_bits;
  }
};

/// Everything the system needs to know about one application table,
/// declared once instead of restated at every publish / compile call.
struct TableSpec {
  std::string name;
  /// Primary index: the DHT partitioning attributes. Empty only for
  /// local-only tables.
  std::vector<std::string> partition_attrs;
  std::vector<SecondaryIndexSpec> secondary_indexes;
  std::vector<RangeIndexSpec> range_indexes;
  /// In-situ table (§2.1.2): tuples stay on the publishing node's local
  /// soft-state store and are reached by broadcast-disseminated scans.
  bool local_only = false;
  /// Default publish lifetime; 0 uses the query processor's default.
  TimeUs default_lifetime = 0;
  /// Copies per published object (k-way successor-set replication): the
  /// owner plus replicas-1 of its successors. 0 = the DHT's configured
  /// default. Validated against the overlay's successor capacity at publish
  /// time. Applies to the primary index AND every secondary-index entry.
  int replicas = 0;

  TableSpec() = default;
  explicit TableSpec(std::string table_name) : name(std::move(table_name)) {}

  // Fluent builders so registration reads as one declaration.
  TableSpec& PartitionBy(std::vector<std::string> attrs) {
    partition_attrs = std::move(attrs);
    return *this;
  }
  TableSpec& SecondaryIndex(const std::string& attr,
                            const std::string& index_table = "") {
    secondary_indexes.push_back(SecondaryIndexSpec{
        attr, index_table.empty() ? name + "_by_" + attr : index_table});
    return *this;
  }
  TableSpec& RangeIndex(const std::string& attr, int key_bits = 32,
                        const std::string& index_table = "") {
    range_indexes.push_back(RangeIndexSpec{
        attr, index_table.empty() ? name + "_rng_" + attr : index_table,
        key_bits});
    return *this;
  }
  TableSpec& LocalOnly() {
    local_only = true;
    return *this;
  }
  TableSpec& Lifetime(TimeUs lifetime) {
    default_lifetime = lifetime;
    return *this;
  }
  TableSpec& Replicas(int k) {
    replicas = k;
    return *this;
  }

  const SecondaryIndexSpec* FindSecondaryIndex(const std::string& attr) const;

  bool operator==(const TableSpec& o) const {
    return name == o.name && partition_attrs == o.partition_attrs &&
           secondary_indexes == o.secondary_indexes &&
           range_indexes == o.range_indexes && local_only == o.local_only &&
           default_lifetime == o.default_lifetime && replicas == o.replicas;
  }
};

/// The table registry shared by an application's PierClients.
class Catalog {
 public:
  /// Register a table. Re-registering an identical spec is a no-op (apps can
  /// declare tables idempotently); a conflicting spec for the same name is an
  /// error — that is the metadata drift this class exists to prevent.
  Status Register(TableSpec spec);

  const TableSpec* Find(const std::string& name) const;

  /// True if `name` is a scannable relation: a registered table or one of
  /// its secondary-index tables (whose entries are ordinary tuples). PHT
  /// range tables are NOT scannable — their namespace holds trie nodes.
  bool KnowsRelation(const std::string& name) const;

  /// True if `name` is a declared PHT range-index table.
  bool KnowsRangeTable(const std::string& name) const;

  /// True if `name` is known in any role (relation or range index).
  bool Knows(const std::string& name) const {
    return KnowsRelation(name) || KnowsRangeTable(name);
  }

  /// The SQL compiler's per-table partitioning hints, derived from the specs
  /// (this replaces hand-maintained SqlOptions::tables maps).
  std::map<std::string, TableHint> TableHints() const;

  size_t size() const { return tables_.size(); }

 private:
  std::map<std::string, TableSpec> tables_;
};

}  // namespace pier

#endif  // PIER_CLIENT_CATALOG_H_
