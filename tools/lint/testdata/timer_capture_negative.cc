// Fixture: self-capturing scheduled closures done SAFELY — every shape here
// must lint clean. No `// expect:` markers: any diagnostic fails the
// selftest. (Fixtures are linted, never compiled.)

#include "runtime/event_loop.h"

namespace pier {

class LeaseKeeper {
 public:
  // Token stored in a member: teardown can cancel it.
  void ArmRefresh() {
    refresh_timer_ = vri_->ScheduleEvent(kLeaseStep, [this]() { Refresh(); });
  }

  // Token pushed into a container that the destructor drains.
  void ArmFlush() {
    timers_.push_back(loop_->ScheduleAfter(kLeaseStep, [this]() { Flush(); }));
  }

  // Token returned to the caller, who owns cancellation.
  unsigned long ArmAt(long when) {
    return loop_->ScheduleAt(when, [this]() { Expire(); });
  }

  // Value-only captures cannot dangle `this`; discarding the token is fine.
  void ArmPing(long qid) {
    vri_->ScheduleEvent(kLeaseStep, [qid]() { NotePing(qid); });
  }

  // A named closure is followed only when it captures `this`: one holding
  // values is as harmless as the values themselves.
  void ArmNamedPing(long qid) {
    auto ping = [qid]() { NotePing(qid); };
    vri_->ScheduleEvent(kLeaseStep, [ping]() { ping(); });
  }

  // A named `this` closure behind a stored token is cancellable.
  void ArmNamedRefresh() {
    auto refresh = [this]() { Refresh(); };
    refresh_timer_ = vri_->ScheduleEvent(kLeaseStep, [refresh]() { refresh(); });
  }

  // The declaring block closed before the call: a later capture of the
  // same name refers to something else.
  void ArmAfterScope(long qid) {
    {
      auto check = [this]() { Refresh(); };
      check();
    }
    long check = qid;
    vri_->ScheduleEvent(kLeaseStep, [check]() { NotePing(check); });
  }

  // `this` handed to a non-scheduling API is out of scope for this rule
  // (transport callbacks are invoked synchronously-or-cancelled by the
  // router, not parked on the loop).
  void Probe() {
    router_->SendFramed(peer_, "ping", [this](int status) { Note(status); });
  }

 private:
  void Refresh();
  void Flush();
  void Expire();
  void Note(int status);
  static void NotePing(long qid);

  Vri* vri_ = nullptr;
  EventLoop* loop_ = nullptr;
  Router* router_ = nullptr;
  Peer peer_;
  unsigned long refresh_timer_ = 0;
  std::vector<unsigned long> timers_;
  static constexpr long kLeaseStep = 1000;
};

}  // namespace pier
