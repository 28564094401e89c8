#include "client/catalog.h"

namespace pier {

const SecondaryIndexSpec* TableSpec::FindSecondaryIndex(
    const std::string& attr) const {
  for (const SecondaryIndexSpec& idx : secondary_indexes) {
    if (idx.attr == attr) return &idx;
  }
  return nullptr;
}

Status Catalog::Register(TableSpec spec) {
  if (spec.name.empty())
    return Status::InvalidArgument("table spec needs a name");
  if (!spec.local_only && spec.partition_attrs.empty())
    return Status::InvalidArgument("table '" + spec.name +
                                   "' needs partition attrs (or LocalOnly)");
  if (spec.local_only &&
      (!spec.secondary_indexes.empty() || !spec.range_indexes.empty()))
    return Status::InvalidArgument(
        "table '" + spec.name +
        "' is local-only; its tuples never reach the DHT, so declared "
        "secondary/range indexes could never be populated");
  auto it = tables_.find(spec.name);
  if (it != tables_.end()) {
    if (it->second == spec) return Status::Ok();  // idempotent re-registration
    return Status::AlreadyExists("table '" + spec.name +
                                 "' already registered with a different spec");
  }
  tables_.emplace(spec.name, std::move(spec));
  return Status::Ok();
}

const TableSpec* Catalog::Find(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

bool Catalog::KnowsRelation(const std::string& name) const {
  if (tables_.count(name) > 0) return true;
  for (const auto& [base, spec] : tables_) {
    for (const SecondaryIndexSpec& idx : spec.secondary_indexes) {
      if (idx.table == name) return true;
    }
  }
  return false;
}

bool Catalog::KnowsRangeTable(const std::string& name) const {
  for (const auto& [base, spec] : tables_) {
    for (const RangeIndexSpec& idx : spec.range_indexes) {
      if (idx.table == name) return true;
    }
  }
  return false;
}

std::map<std::string, TableHint> Catalog::TableHints() const {
  std::map<std::string, TableHint> hints;
  for (const auto& [name, spec] : tables_) {
    hints[name].partition_attrs = spec.partition_attrs;
    // Secondary index tables are themselves queryable relations partitioned
    // by the indexed attribute; exposing their hints lets SQL equality
    // lookups on them use targeted dissemination.
    for (const SecondaryIndexSpec& idx : spec.secondary_indexes) {
      hints[idx.table].partition_attrs = {idx.attr};
    }
  }
  return hints;
}

}  // namespace pier
