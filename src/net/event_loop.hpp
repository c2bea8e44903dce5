#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/assert.hpp"
#include "util/inline_function.hpp"
#include "util/time.hpp"

namespace mahimahi::net {

class Timer;

/// Discrete-event scheduler with a virtual clock.
///
/// Determinism: events at the same timestamp run in scheduling order
/// (monotonic sequence number tie-break), so a simulation is a pure
/// function of its inputs and seeds — the property the whole toolkit's
/// "reproducible measurement" claim rests on. Every event is dispatched
/// at its (time, sequence) key; the fast paths below change where an
/// entry waits, never its key, so they cannot reorder anything.
///
/// Hot-path design: the pending set is a flat 4-ary min-heap of 24-byte
/// POD keys ordered by (time, sequence), fed through an unsorted inbox —
/// newly scheduled events pay for heap insertion only at the next
/// dispatch, so an event cancelled before then (the dominant fate of
/// batch-armed timers) never touches the heap. An event scheduled for
/// now() skips both and joins the same-time lane, a FIFO whose entries
/// all share now() and arrive in sequence order; dispatch takes the lane's
/// front unless the heap top is earlier by (time, sequence), and the lane
/// is always empty when the clock advances. Re-armed deadlines use
/// Timer (below), which keeps one posted entry instead of a tombstone per
/// re-arm. Callbacks live in a chunked slot arena with stable addresses —
/// growth never moves a callable, and dispatch invokes in place.
/// Cancellation is lazy: cancel() bumps the slot's generation (destroying
/// the callback immediately to release captured resources) and the dead
/// entry is discarded when it surfaces. EventIds encode (slot,
/// generation), so cancelling an already-run or reused id is a safe no-op.
/// With callbacks that fit the inline buffer, a schedule/run cycle
/// performs zero heap allocations once the arena is warm.
class EventLoop {
 public:
  using EventId = std::uint64_t;

  /// Inline capacity of the callback type, sized for the largest hot-path
  /// lambda (the in-flight packet captures — see the static_asserts in
  /// fabric.cpp and element.cpp). Larger callables still work; they
  /// heap-allocate.
  static constexpr std::size_t kInlineActionBytes = 168;
  using Action = util::InlineCallback<kInlineActionBytes>;

  [[nodiscard]] Microseconds now() const { return now_; }

  /// Schedule a callable at absolute time `at` (>= now). Returns an id
  /// usable with cancel(); ids are never zero. The callable is constructed
  /// directly in its arena slot — no temporary, no move.
  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, Action> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  EventId schedule_at(Microseconds at, F&& f) {
    if constexpr (requires { static_cast<bool>(f); }) {
      // Catch empty std::functions (and null function pointers) at the
      // schedule site instead of a bad_function_call mid-run.
      MAHI_ASSERT_MSG(static_cast<bool>(f), "null action");
    }
    MAHI_ASSERT_MSG(at >= now_, "scheduling into the past: " << at << " < " << now_);
    const std::uint32_t slot = acquire_slot();
    Slot& s = slot_at(slot);
    // Fill the slot before publishing the heap entry: if the callable's
    // constructor throws, no event is visible to the dispatch loop (the
    // slot sits out until the loop is destroyed — benign, never UB).
    s.action.emplace(std::forward<F>(f));
    publish_event(at, slot);
    return make_id(slot, s.generation);
  }

  /// Schedule an already-type-erased Action (moved into the slot).
  EventId schedule_at(Microseconds at, Action action);

  /// Schedule after a relative delay (>= 0).
  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, Action> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  EventId schedule_in(Microseconds delay, F&& f) {
    check_delay(delay);
    return schedule_at(now_ + delay, std::forward<F>(f));
  }

  EventId schedule_in(Microseconds delay, Action action);

  /// Cancel a pending event. Cancelling an already-run or unknown id is a
  /// no-op (timers race with the events that would cancel them).
  void cancel(EventId id);

  /// Run until the queue is empty. Returns the number of events executed.
  std::size_t run();

  /// Run events with time <= deadline; afterwards now() == deadline.
  std::size_t run_until(Microseconds deadline);

  /// True when no runnable events remain.
  [[nodiscard]] bool idle() const { return live_count_ == 0; }

  [[nodiscard]] std::size_t pending_events() const { return live_count_; }

  /// Safety valve for tests: run() throws after this many events
  /// (default: effectively unlimited).
  void set_event_limit(std::size_t limit) { event_limit_ = limit; }

 private:
  friend class Timer;

  struct HeapEntry {
    Microseconds at;
    std::uint64_t seq;         // FIFO tie-break among same-time events
    std::uint32_t slot;        // index into the slot arena
    std::uint32_t generation;  // live iff it matches the slot's generation
  };

  /// A pending event's callback plus the generation stamp that validates
  /// ids. Invariant: slot generation == heap-entry generation exactly
  /// while the event is pending; cancel and dispatch both bump it.
  struct Slot {
    Action action;
    std::uint32_t generation{0};
    std::uint32_t next_free{kNoFreeSlot};
  };

  static constexpr std::uint32_t kNoFreeSlot = 0xFFFF'FFFF;
  static constexpr std::size_t kSlotChunkShift = 8;  // 256 slots per chunk
  static constexpr std::size_t kSlotChunkSize = std::size_t{1} << kSlotChunkShift;

  static constexpr bool earlier(const HeapEntry& a, const HeapEntry& b) {
    // Lexicographic (at, seq) as one 128-bit compare — branchless, which
    // matters in the sift loops where the outcome is data-dependent.
    // `at` is never negative (schedule_at asserts at >= now_ >= 0).
    using Key = unsigned __int128;
    return ((Key{static_cast<std::uint64_t>(a.at)} << 64) | a.seq) <
           ((Key{static_cast<std::uint64_t>(b.at)} << 64) | b.seq);
  }
  static constexpr EventId make_id(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(slot) << 32) | generation;
  }
  static void bump_generation(Slot& slot) {
    if (++slot.generation == 0) {
      ++slot.generation;  // generation 0 is reserved so ids are never zero
    }
  }

  [[nodiscard]] Slot& slot_at(std::uint32_t index) {
    return slot_chunks_[index >> kSlotChunkShift][index & (kSlotChunkSize - 1)];
  }

  /// Record the entry for an acquired slot whose action is already in
  /// place, making the event live. An entry due now joins the same-time
  /// lane; later ones land in the unsorted inbox and only pay for heap
  /// insertion at the next dispatch — an event cancelled before then
  /// never touches the heap at all (the dominant fate of batch-armed
  /// timers).
  void publish_event(Microseconds at, std::uint32_t slot);
  /// Post `timer`'s entry at its stored (deadline, sequence) key. Keyed
  /// entries always go through the inbox and heap: their sequence number
  /// was reserved earlier, so they may not join the lane's tail.
  EventId post_timer(Timer& timer);
  /// Move inbox entries into the heap, skipping (and releasing) ones
  /// already cancelled.
  void drain_inbox();
  static void check_delay(Microseconds delay);
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void sift_up(std::size_t index);
  void pop_top();
  /// Discard tombstoned entries at the heap top; afterwards the top (if
  /// any) is a live event.
  void drop_dead_top();
  /// The same for the lane's front.
  void drop_dead_lane_front();
  /// The earliest live event by (time, sequence) — the lane's front or
  /// the heap top — or nullptr when none remains.
  const HeapEntry* next_live();
  /// Remove `next` (from next_live()) and run it.
  void dispatch(const HeapEntry* next);
  bool pop_one();
  void check_limit(std::size_t executed) const;

  Microseconds now_{0};
  std::uint64_t next_seq_{1};
  std::size_t live_count_{0};
  std::size_t event_limit_{~0ULL};
  std::vector<HeapEntry> heap_;   // 4-ary min-heap on (at, seq)
  std::vector<HeapEntry> inbox_;  // scheduled since the last dispatch
  /// Same-time lane: entries at now_ in sequence order, front at
  /// lane_head_. Cleared whenever it drains, so it never spans two times.
  std::vector<HeapEntry> lane_;
  std::size_t lane_head_{0};
  /// Chunked arena: addresses are stable across growth, so callbacks are
  /// never moved by other events being scheduled (dispatch relies on this).
  std::vector<std::unique_ptr<Slot[]>> slot_chunks_;
  std::size_t slot_count_{0};
  std::uint32_t free_head_{kNoFreeSlot};
};

/// A keyed deadline timer: arm, re-arm and disarm a single callback on an
/// EventLoop at the cost of a field update per re-arm.
///
/// Each arm reserves the sequence number that cancel-plus-schedule_at
/// would have used and records the (deadline, sequence) key, so the
/// callback fires exactly when — and in exactly the order — the
/// cancel-and-reschedule pattern would fire it. The timer keeps one posted
/// entry in the loop: a re-arm to a later key leaves that entry in place,
/// and when it surfaces early it re-posts itself at the stored key without
/// running the callback. Only a deadline that moves earlier, or disarm(),
/// cancels the posted entry. An armed timer is one pending event
/// (EventLoop::pending_events()); a disarmed one is none.
///
/// The timer must not outlive its loop; destroying it disarms it.
class Timer {
 public:
  using Callback = util::InlineCallback<2 * sizeof(void*)>;

  Timer(EventLoop& loop, Callback on_fire);
  ~Timer() { disarm(); }

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Fire at absolute time `at` (>= now), replacing any earlier arming.
  void arm_at(Microseconds at);
  /// Fire after `delay` (>= 0), replacing any earlier arming.
  void arm_in(Microseconds delay);
  /// Stop the timer; a no-op when it is not armed.
  void disarm();
  [[nodiscard]] bool armed() const { return armed_; }

 private:
  friend class EventLoop;

  void post();
  /// The posted entry surfaced: fire, or re-post at the stored key.
  void on_posted();

  EventLoop& loop_;
  Callback on_fire_;
  bool armed_{false};
  Microseconds deadline_{0};
  std::uint64_t seq_{0};
  EventLoop::EventId posted_{0};  // 0 when no entry is posted
  Microseconds posted_at_{0};
  std::uint64_t posted_seq_{0};
};

/// A session-scoped view of a shared loop's clock: time zero is the
/// moment the session was admitted, so code running many sessions on one
/// EventLoop (fleet::SessionMux) can audit that each load's duration was
/// measured from its own arrival, not from the fleet's epoch. Durations measured on a SessionClock equal
/// durations measured on the underlying loop — the view only shifts the
/// epoch, never the rate.
class SessionClock {
 public:
  SessionClock() = default;
  SessionClock(const EventLoop& loop, Microseconds origin)
      : loop_{&loop}, origin_{origin} {
    MAHI_ASSERT_MSG(origin >= 0, "session epoch before the loop epoch");
  }

  /// Microseconds since this session's epoch (>= 0 once the session runs).
  [[nodiscard]] Microseconds now() const { return loop_->now() - origin_; }

  /// The session's epoch on the shared loop's clock.
  [[nodiscard]] Microseconds origin() const { return origin_; }

 private:
  const EventLoop* loop_{nullptr};
  Microseconds origin_{0};
};

}  // namespace mahimahi::net
