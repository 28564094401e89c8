#include "runtime/event_loop.h"

#include <algorithm>
#include <utility>

namespace pier {

namespace {
// Cancelled keys stay in the heap until they surface; once they outnumber
// live ones by this much the heap is rebuilt without them, so its size stays
// within 2 * pending() + kStaleSlack.
constexpr size_t kStaleSlack = 1024;
}  // namespace

uint64_t EventLoop::ScheduleAt(TimeUs when, std::function<void()> fn) {
  if (when < now_) when = now_;
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  ++s.gen;
  ++live_;
  heap_.push_back(Key{when, next_seq_++, slot, s.gen});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return (uint64_t{s.gen} << 32) | slot;
}

std::function<void()> EventLoop::Release(uint32_t slot) {
  Slot& s = slots_[slot];
  ++s.gen;
  --live_;
  free_slots_.push_back(slot);
  return std::exchange(s.fn, nullptr);
}

void EventLoop::Cancel(uint64_t token) {
  const auto slot = static_cast<uint32_t>(token);
  const auto gen = static_cast<uint32_t>(token >> 32);
  if ((gen & 1) == 0 || slot >= slots_.size() || slots_[slot].gen != gen)
    return;
  // The closure dies at the end of this scope, after the bookkeeping, so a
  // destructor that re-enters the loop sees a consistent table.
  std::function<void()> dead = Release(slot);
  if (heap_.size() > 2 * live_ + kStaleSlack) {
    heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                               [this](const Key& k) { return !Live(k); }),
                heap_.end());
    std::make_heap(heap_.begin(), heap_.end(), Later{});
  }
}

bool EventLoop::DropStale() {
  while (!heap_.empty() && !Live(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
  return !heap_.empty();
}

void EventLoop::PopAndRun() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key k = heap_.back();
  heap_.pop_back();
  std::function<void()> fn = Release(k.slot);
  if (k.when > now_) now_ = k.when;
  ++events_executed_;
  fn();
}

TimeUs EventLoop::NextEventTime() {
  return DropStale() ? heap_.front().when : -1;
}

bool EventLoop::RunOne() {
  if (!DropStale()) return false;
  PopAndRun();
  return true;
}

size_t EventLoop::RunUntil(TimeUs t) {
  size_t n = 0;
  while (DropStale() && heap_.front().when <= t) {
    PopAndRun();
    ++n;
  }
  if (t > now_) now_ = t;
  return n;
}

size_t EventLoop::RunUntilIdle(uint64_t max_events) {
  size_t n = 0;
  while (n < max_events && RunOne()) ++n;
  return n;
}

}  // namespace pier
