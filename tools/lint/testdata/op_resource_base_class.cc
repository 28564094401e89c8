// pier-lint-test: pretend-path=src/qp/dataflow.cc
// Fixture: the base Operator itself is where resources are acquired and
// released, so direct calls outside src/qp/op_*.cc lint clean. (Fixtures are
// linted, never compiled.)

#include "qp/dataflow.h"

namespace pier {

void Operator::Subscribe(const std::string& ns, Dht::NewDataHandler handler) {
  res().subs.push_back(cx_->dht->OnNewData(ns, std::move(handler)));
}

void Operator::Close() {
  for (const auto& [handle, token] : res_->timers) cx_->vri->CancelEvent(token);
  for (uint64_t sub : res_->subs) cx_->dht->CancelNewData(sub);
  for (const std::string& ns : res_->upcalls) cx_->dht->UnregisterUpcall(ns);
}

}  // namespace pier
