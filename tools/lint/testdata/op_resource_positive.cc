// pier-lint-test: pretend-path=src/qp/op_fixture.cc
// Fixture: an operator file acquiring event-loop and DHT resources, or
// reaching the network, directly instead of through the base Operator's
// helpers — every such call is a finding, whatever happens to the token.
// (Fixtures are linted, never compiled.)

#include "qp/dataflow.h"

namespace pier {

class HandRolledOp : public Operator {
 public:
  void OnOpen() override {
    timer_ = cx_->vri->ScheduleEvent(0, [this]() { Scan(); });  // expect: op-resource
    sub_ = cx_->dht->OnNewData(ns_, [this](const ObjectName&,  // expect: op-resource
                                           std::string_view) { Scan(); });
    batch_sub_ = cx_->dht->OnNewDataBatch(  // expect: op-resource
        ns_, [this](const std::vector<Dht::NewDataEvent>&) { Scan(); });
    cx_->dht->RegisterUpcall(ns_, [this](const RouteInfo&, std::string*) {  // expect: op-resource
      return UpcallAction::kContinue;
    });
  }

  void Teardown() {
    cx_->vri->CancelEvent(timer_);  // expect: op-resource
    cx_->dht->CancelNewData(sub_);  // expect: op-resource
    cx_->dht->UnregisterUpcall(ns_);  // expect: op-resource
  }

  // Network calls around the base's Put/Send/Get: traffic the query's cost
  // ledger never sees.
  void Ship(std::vector<DhtPutItem> items, std::string value,
            Dht::GetCallback cb) {
    cx_->dht->Send(ns_, "k", "s", value, 0);  // expect: op-resource
    cx_->dht->SendToId(Id(), ns_, "k", "s", value, 0);  // expect: op-resource
    cx_->dht->Get(ns_, "k", std::move(cb));  // expect: op-resource
    cx_->dht->Put(ns_, "k", "s", std::move(value), 0);  // expect: op-resource
    cx_->dht->PutBatch(std::move(items));  // expect: op-resource
    cx_->dht->Renew(ns_, "k", "s", 0, nullptr);  // expect: op-resource
  }

 private:
  void Scan();
  std::string ns_;
  uint64_t timer_ = 0;
  uint64_t sub_ = 0;
  uint64_t batch_sub_ = 0;
};

}  // namespace pier
