#include "net/event_loop.hpp"

#include <stdexcept>

#include "util/assert.hpp"

namespace mahimahi::net {
namespace {

constexpr std::size_t kHeapArity = 4;

}  // namespace

void EventLoop::publish_event(Microseconds at, std::uint32_t slot) {
  // A fresh sequence number is larger than every pending one, so an entry
  // due now belongs at the lane's tail.
  const HeapEntry entry{at, next_seq_++, slot, slot_at(slot).generation};
  (at == now_ ? lane_ : inbox_).push_back(entry);
  ++live_count_;
}

EventLoop::EventId EventLoop::post_timer(Timer& timer) {
  const std::uint32_t slot = acquire_slot();
  Slot& s = slot_at(slot);
  s.action.emplace([&timer] { timer.on_posted(); });
  inbox_.push_back(HeapEntry{timer.deadline_, timer.seq_, slot, s.generation});
  ++live_count_;
  return make_id(slot, s.generation);
}

void EventLoop::drain_inbox() {
  for (const HeapEntry& entry : inbox_) {
    if (slot_at(entry.slot).generation != entry.generation) {
      release_slot(entry.slot);  // cancelled before ever entering the heap
      continue;
    }
    heap_.push_back(entry);
    sift_up(heap_.size() - 1);
  }
  inbox_.clear();
}

void EventLoop::check_delay(Microseconds delay) {
  MAHI_ASSERT_MSG(delay >= 0, "negative delay: " << delay);
}

EventLoop::EventId EventLoop::schedule_at(Microseconds at, Action action) {
  MAHI_ASSERT_MSG(static_cast<bool>(action), "null action");
  MAHI_ASSERT_MSG(at >= now_, "scheduling into the past: " << at << " < " << now_);
  const std::uint32_t slot = acquire_slot();
  Slot& s = slot_at(slot);
  s.action = std::move(action);  // noexcept: fill before publishing
  publish_event(at, slot);
  return make_id(slot, s.generation);
}

EventLoop::EventId EventLoop::schedule_in(Microseconds delay, Action action) {
  check_delay(delay);
  return schedule_at(now_ + delay, std::move(action));
}

void EventLoop::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id >> 32);
  const auto generation = static_cast<std::uint32_t>(id);
  if (slot >= slot_count_) {
    return;  // never existed
  }
  Slot& s = slot_at(slot);
  if (s.generation != generation) {
    return;  // already ran, already cancelled, or the slot was reused
  }
  // Tombstone: the heap entry stays until it surfaces (its generation no
  // longer matches), but the callback and whatever it captured are
  // released right now. The slot rejoins the free list only when the dead
  // entry pops, so it cannot be reused while the entry is in the heap.
  bump_generation(s);
  s.action.reset();
  --live_count_;
}

std::uint32_t EventLoop::acquire_slot() {
  if (free_head_ != kNoFreeSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slot_at(slot).next_free;
    bump_generation(slot_at(slot));
    return slot;
  }
  MAHI_ASSERT_MSG(slot_count_ < kNoFreeSlot, "slot arena exhausted");
  if (slot_count_ == slot_chunks_.size() * kSlotChunkSize) {
    // for_overwrite: default-init only — no 47 KB zero-fill per chunk
    // (Slot's members have initializers; the inline buffer needs none).
    slot_chunks_.push_back(std::make_unique_for_overwrite<Slot[]>(kSlotChunkSize));
  }
  const auto slot = static_cast<std::uint32_t>(slot_count_++);
  bump_generation(slot_at(slot));
  return slot;
}

void EventLoop::release_slot(std::uint32_t slot) {
  Slot& s = slot_at(slot);
  s.next_free = free_head_;
  free_head_ = slot;
}

void EventLoop::sift_up(std::size_t index) {
  const HeapEntry entry = heap_[index];
  while (index > 0) {
    const std::size_t parent = (index - 1) / kHeapArity;
    if (!earlier(entry, heap_[parent])) {
      break;
    }
    heap_[index] = heap_[parent];
    index = parent;
  }
  heap_[index] = entry;
}

void EventLoop::pop_top() {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) {
    return;
  }
  // Hole-based delete-min: walk the hole to a leaf promoting the smallest
  // child (no compare against `last` per level), then place `last` and
  // restore upward — `last` came from the bottom, so the up-pass almost
  // always stops immediately.
  std::size_t hole = 0;
  while (true) {
    const std::size_t first_child = hole * kHeapArity + 1;
    if (first_child >= n) {
      break;
    }
    std::size_t best = first_child;
    const std::size_t end_child = std::min(first_child + kHeapArity, n);
    for (std::size_t child = first_child + 1; child < end_child; ++child) {
      if (earlier(heap_[child], heap_[best])) {
        best = child;
      }
    }
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = last;
  sift_up(hole);
}

void EventLoop::drop_dead_top() {
  while (!heap_.empty()) {
    const HeapEntry& top = heap_.front();
    if (slot_at(top.slot).generation == top.generation) {
      return;  // live
    }
    const std::uint32_t slot = top.slot;
    pop_top();
    release_slot(slot);
  }
}

void EventLoop::drop_dead_lane_front() {
  while (lane_head_ < lane_.size()) {
    const HeapEntry& front = lane_[lane_head_];
    if (slot_at(front.slot).generation == front.generation) {
      return;  // live
    }
    release_slot(front.slot);
    ++lane_head_;
  }
  lane_.clear();
  lane_head_ = 0;
}

const EventLoop::HeapEntry* EventLoop::next_live() {
  if (!inbox_.empty()) {
    drain_inbox();
  }
  drop_dead_top();
  drop_dead_lane_front();
  if (lane_head_ == lane_.size()) {
    return heap_.empty() ? nullptr : &heap_.front();
  }
  // A heap entry at now_ scheduled before the lane's front (or a timer's
  // keyed entry) runs first; everything else in the heap is later.
  const HeapEntry& front = lane_[lane_head_];
  if (!heap_.empty() && earlier(heap_.front(), front)) {
    return &heap_.front();
  }
  return &front;
}

void EventLoop::dispatch(const HeapEntry* next) {
  const HeapEntry entry = *next;
  if (next == heap_.data()) {
    pop_top();
  } else if (++lane_head_ == lane_.size()) {
    lane_.clear();
    lane_head_ = 0;
  }
  MAHI_ASSERT(entry.at == now_ || lane_head_ == lane_.size());
  Slot& s = slot_at(entry.slot);  // stable across arena growth
  // Invalidate the id before dispatch: a cancel of this event from
  // inside its own callback (or anything the callback triggers) is a
  // no-op, exactly as if the event had already finished.
  bump_generation(s);
  --live_count_;
  now_ = entry.at;
  // Invoke in place — no callback move. The action may schedule events
  // (the chunked arena never relocates this slot) or cancel anything.
  try {
    s.action();
  } catch (...) {
    s.action.reset();
    release_slot(entry.slot);
    throw;
  }
  s.action.reset();
  release_slot(entry.slot);
}

bool EventLoop::pop_one() {
  const HeapEntry* next = next_live();
  if (next == nullptr) {
    return false;
  }
  dispatch(next);
  return true;
}

void EventLoop::check_limit(std::size_t executed) const {
  if (executed > event_limit_) {
    throw std::runtime_error{"EventLoop exceeded event limit (runaway simulation?)"};
  }
}

std::size_t EventLoop::run() {
  std::size_t executed = 0;
  while (pop_one()) {
    check_limit(++executed);
  }
  return executed;
}

std::size_t EventLoop::run_until(Microseconds deadline) {
  MAHI_ASSERT(deadline >= now_);
  std::size_t executed = 0;
  // next_live() drops tombstones first, so the deadline check sees a live
  // event. Lane entries are due now, so they always run.
  for (const HeapEntry* next = next_live();
       next != nullptr && next->at <= deadline; next = next_live()) {
    dispatch(next);
    check_limit(++executed);
  }
  now_ = deadline;
  return executed;
}

// --- Timer -------------------------------------------------------------------

Timer::Timer(EventLoop& loop, Callback on_fire)
    : loop_{loop}, on_fire_{std::move(on_fire)} {
  MAHI_ASSERT_MSG(static_cast<bool>(on_fire_), "null timer callback");
}

void Timer::arm_at(Microseconds at) {
  MAHI_ASSERT_MSG(at >= loop_.now_,
                  "arming into the past: " << at << " < " << loop_.now_);
  armed_ = true;
  deadline_ = at;
  seq_ = loop_.next_seq_++;  // the number schedule_at would have taken
  if (posted_ != 0) {
    if (posted_at_ <= at) {
      return;  // the posted key is earlier; it re-posts when it surfaces
    }
    loop_.cancel(posted_);
  }
  post();
}

void Timer::arm_in(Microseconds delay) {
  EventLoop::check_delay(delay);
  arm_at(loop_.now_ + delay);
}

void Timer::disarm() {
  armed_ = false;
  if (posted_ != 0) {
    loop_.cancel(posted_);
    posted_ = 0;
  }
}

void Timer::post() {
  posted_ = loop_.post_timer(*this);
  posted_at_ = deadline_;
  posted_seq_ = seq_;
}

void Timer::on_posted() {
  posted_ = 0;
  if (posted_seq_ != seq_) {
    post();  // re-armed later since this entry was posted
    return;
  }
  armed_ = false;
  on_fire_();
}

}  // namespace mahimahi::net
