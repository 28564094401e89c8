// The Main Scheduler (§3.1.2): a single-threaded priority queue of events.
//
// Both runtime environments are built on this loop. In simulation the loop's
// clock is virtual and jumps from event to event; in the Physical Runtime the
// loop is driven by the wall clock and an I/O thread posts network events
// into it. Ties in event time are broken by insertion sequence, which is what
// makes simulations deterministic.
//
// Layout: closures live in a recycled slot table; the heap orders only
// 24-byte {when, seq, slot, gen} keys. Every reuse of a slot bumps its
// generation, so a key or token whose generation no longer matches is stale.
//
// Token contract: ScheduleAt returns a nonzero token (callers may use 0 as
// "no event") naming exactly one scheduled event.
//   * Cancel(token) before the event runs destroys its closure immediately
//     and the event never fires.
//   * Cancel(token) after the event ran (including from inside its own
//     callback) or after an earlier Cancel is a no-op and leaves nothing
//     behind; a stale token never cancels a later event that reuses its slot.
//   * pending() is the exact number of scheduled, uncancelled events.

#ifndef PIER_RUNTIME_EVENT_LOOP_H_
#define PIER_RUNTIME_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "runtime/vri.h"

namespace pier {

class EventLoop {
 public:
  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Schedule `fn` at absolute time `when` (clamped to >= now). Returns a
  /// cancellation token.
  uint64_t ScheduleAt(TimeUs when, std::function<void()> fn);

  /// Schedule `fn` after `delay` from now.
  uint64_t ScheduleAfter(TimeUs delay, std::function<void()> fn) {
    return ScheduleAt(now_ + (delay < 0 ? 0 : delay), std::move(fn));
  }

  /// Cancel a pending event; a no-op if it already ran or was cancelled.
  void Cancel(uint64_t token);

  TimeUs now() const { return now_; }

  bool empty() const { return live_ == 0; }
  size_t pending() const { return live_; }
  uint64_t events_executed() const { return events_executed_; }

  /// Time of the earliest pending event, or -1 if none.
  TimeUs NextEventTime();

  /// Run the earliest event, advancing the clock to it. False if none pending.
  bool RunOne();

  /// Run all events with time <= t, then advance the clock to exactly t.
  /// Returns the number of events executed.
  size_t RunUntil(TimeUs t);

  /// Run events until the queue drains or `max_events` executed.
  size_t RunUntilIdle(uint64_t max_events = UINT64_MAX);

 private:
  struct Key {
    TimeUs when;
    uint64_t seq;
    uint32_t slot;
    uint32_t gen;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };
  struct Slot {
    std::function<void()> fn;
    uint32_t gen = 0;  // odd while the slot holds a pending event
  };

  bool Live(const Key& k) const { return slots_[k.slot].gen == k.gen; }
  /// Pops cancelled keys off the top; true if a live event remains.
  bool DropStale();
  /// Pops the top key (which must be live) and runs its event.
  void PopAndRun();
  /// Frees `slot` for reuse and hands back its closure.
  std::function<void()> Release(uint32_t slot);

  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  size_t live_ = 0;
  TimeUs now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t events_executed_ = 0;
};

}  // namespace pier

#endif  // PIER_RUNTIME_EVENT_LOOP_H_
