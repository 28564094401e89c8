// Fixture: every way a scheduled closure can dangle. Each offending line
// carries an `// expect:` marker; the selftest fails if pier-lint misses one
// OR reports one that is not marked. (Fixtures are linted, never compiled.)

#include "runtime/event_loop.h"

namespace pier {

class LeaseKeeper {
 public:
  // Classic PR-3 shape: `this` captured, token dropped on the floor. When
  // the keeper is destroyed before the timer fires, the closure fires into
  // freed memory (physical runtime) or pins the object (simulation).
  void ArmRefresh() {
    vri_->ScheduleEvent(kLeaseStep, [this]() { Refresh(); });  // expect: timer-capture
  }

  // Capture-default `=` copies `this` implicitly; just as dangerous and
  // easier to miss in review.
  void ArmExpiry() {
    loop_->ScheduleAfter(kLeaseStep, [=]() { Expire(id_); });  // expect: timer-capture
  }

  // Capture-default `&` additionally dangles the locals.
  void ArmAt(long when) {
    long generation = gen_;
    loop_->ScheduleAt(when, [&]() { Bump(generation); });  // expect: timer-capture
  }

  // One named closure in between: the scheduled lambda captures only
  // `resolve`, but `resolve` captures `this`, so the timer still reaches
  // the object and nothing can cancel it.
  void ArmProbeTimeout(long qid) {
    auto resolve = [this, qid](int verdict) { Resolve(qid, verdict); };
    vri_->ScheduleEvent(kLeaseStep / 2,  // expect: timer-capture
                        [resolve]() { resolve(0); });
    prober_(qid, resolve);
  }

 private:
  void Refresh();
  void Expire(long id);
  void Bump(long g);
  void Resolve(long qid, int verdict);

  Vri* vri_ = nullptr;
  EventLoop* loop_ = nullptr;
  long id_ = 0;
  long gen_ = 0;
  Prober prober_;
  static constexpr long kLeaseStep = 1000;
};

}  // namespace pier
