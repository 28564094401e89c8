#include "data/tuple.h"

#include "util/hash.h"

namespace pier {

const Value* Tuple::Get(std::string_view name) const {
  for (const Column& c : cols_) {
    if (c.name == name) return &c.value;
  }
  return nullptr;
}

Tuple Tuple::Project(const std::vector<std::string>& names) const {
  Tuple out(table_);
  for (const std::string& n : names) {
    const Value* v = Get(n);
    if (v != nullptr) out.Append(n, *v);
  }
  return out;
}

std::string Tuple::PartitionKey(const std::vector<std::string>& attrs) const {
  std::string key;
  for (const std::string& a : attrs) {
    const Value* v = Get(a);
    key += v != nullptr ? v->CanonicalString() : std::string("N");
    key.push_back('|');
  }
  return key;
}

uint64_t Tuple::Hash() const {
  uint64_t h = Fnv1a64(table_);
  for (const Column& c : cols_) {
    h = HashCombine(h, Fnv1a64(c.name));
    h = HashCombine(h, c.value.Hash());
  }
  return h;
}

std::string Tuple::ToString() const {
  std::string s = table_ + "(";
  for (size_t i = 0; i < cols_.size(); ++i) {
    if (i > 0) s += ", ";
    s += cols_[i].name + "=" + cols_[i].value.ToString();
  }
  s += ")";
  return s;
}

void Tuple::EncodeTo(WireWriter* w) const {
  w->PutBytes(table_);
  w->PutVarint(cols_.size());
  for (const Column& c : cols_) {
    w->PutBytes(c.name);
    c.value.EncodeTo(w);
  }
}

std::string Tuple::Encode() const {
  WireWriter w;
  EncodeTo(&w);
  return std::move(w).data();
}

Result<Tuple> Tuple::DecodeFrom(WireReader* r) {
  Tuple t;
  std::string table;
  PIER_RETURN_IF_ERROR(r->GetBytes(&table));
  t.set_table(std::move(table));
  uint64_t n;
  PIER_RETURN_IF_ERROR(r->GetVarint(&n));
  if (n > 1 << 20) return Status::Corruption("absurd column count");
  for (uint64_t i = 0; i < n; ++i) {
    std::string name;
    PIER_RETURN_IF_ERROR(r->GetBytes(&name));
    PIER_ASSIGN_OR_RETURN(Value v, Value::DecodeFrom(r));
    t.Append(std::move(name), std::move(v));
  }
  return t;
}

Result<Tuple> Tuple::Decode(std::string_view wire) {
  WireReader r(wire);
  PIER_ASSIGN_OR_RETURN(Tuple t, DecodeFrom(&r));
  if (!r.AtEnd()) return Status::Corruption("trailing bytes after tuple");
  return t;
}

}  // namespace pier
