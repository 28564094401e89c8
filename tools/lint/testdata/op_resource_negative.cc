// pier-lint-test: pretend-path=src/qp/op_fixture.cc
// Fixture: an operator file that leaves every resource and network call to
// the base Operator — must lint clean. Mentions in comments and strings,
// and identifiers that merely contain a banned name, do not count.
// (Fixtures are linted, never compiled.)

#include "qp/dataflow.h"

namespace pier {

class WellBehavedOp : public Operator {
 public:
  void OnOpen() override {
    // Not cx_->vri->ScheduleEvent(...): Close could not cancel it.
    timer_ = After(hold_, [this]() { Fire(); });
    Subscribe(ns_, [this](const ObjectName&, std::string_view) { Fire(); });
    Intercept(ns_, [this](const RouteInfo&, std::string*) {
      return UpcallAction::kContinue;
    });
    CatchUp(ns_, 0, [this](const std::vector<FeedItem>&) { Fire(); });
    Get(ns_, "k", [this](const Status&, std::vector<DhtItem>) { Fire(); });
    Send(ns_, "k", "v");
    Put(std::vector<DhtPutItem>());
    // The local store is no network call.
    if (cx_->dht->objects()->Get(ns_, "k").empty()) Fire();
    CancelTimer(timer_);
    Log("the base calls OnNewDataBatch( and CancelNewData( for us");
    NoteScheduleEventCount(1);
  }

 private:
  void Fire();
  void NoteScheduleEventCount(int n);
  std::string ns_;
  long hold_ = 0;
  uint64_t timer_ = 0;
};

}  // namespace pier
