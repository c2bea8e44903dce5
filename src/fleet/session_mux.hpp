#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/sessions.hpp"
#include "net/event_loop.hpp"
#include "record/store.hpp"

namespace mahimahi::fleet {

/// Everything one emulated user's page load produced. All times are
/// simulated.
struct SessionOutcome {
  int session_index{-1};  // fleet index, the determinism anchor
  char success{0};
  double plt_ms{0};
  /// Arrival and completion on the *fleet* clock (the shared loop's
  /// epoch): start_ms = stagger * session_index by construction, and
  /// finish_ms - start_ms equals plt_ms — SessionMux asserts it, proving
  /// the session's events never ran on another session's clock.
  double start_ms{0};
  double finish_ms{0};
  std::uint32_t objects_loaded{0};
  std::uint32_t objects_failed{0};
  std::uint32_t connections_opened{0};
  std::uint64_t bytes_downloaded{0};
  /// Resilience accounting (fault axis): retry attempts and deadline
  /// expiries the session's browser recorded, and its graceful-degradation
  /// PLT (== plt_ms for clean loads).
  std::uint32_t retries{0};
  std::uint32_t timeouts{0};
  double degraded_plt_ms{0};

  friend bool operator==(const SessionOutcome&,
                         const SessionOutcome&) = default;
};

/// Knobs of one mux (one shared world's worth of users).
struct MuxConfig {
  /// Root of the fleet's seed tree. Session i's SessionConfig seed is
  /// forked as (fleet_seed, i); the shared world's shells and fault plan
  /// fork from it too.
  std::uint64_t fleet_seed{1};
  /// Arrival spacing: session i is admitted at loop time stagger * i.
  Microseconds stagger{1'000};
  /// Template for every session: shells, host profile, browser model,
  /// congestion control. The per-session seed is filled in by the mux.
  core::SessionConfig session{};
  /// Replay server-farm knobs for the shared origin-server farm.
  replay::OriginServerSet::Options origin{};
};

/// Runs many emulated users in ONE shared world on ONE event loop — the
/// experiment engine's offered-load unit. All sessions share one
/// namespace: one fabric, one shell stack, one origin-server farm, one
/// DNS server, so concurrent users contend for servers and link
/// bandwidth. Only the browser is per-session; each is admitted at its
/// arrival time, runs a full page load, and retires.
///
/// A shared world is one indivisible simulation: it is deterministic as a
/// whole (a pure function of the store, url and config), but its sessions
/// are not individually separable. Independent single-user loads run as
/// core::ReplaySession tasks on the ParallelRunner instead.
class SessionMux {
 public:
  /// `url` is loaded once by each of `sessions` users, indexed
  /// 0..sessions-1, from `store` (shared, read-only).
  SessionMux(const record::RecordStore& store, std::string url,
             MuxConfig config, int sessions);
  ~SessionMux();

  SessionMux(const SessionMux&) = delete;
  SessionMux& operator=(const SessionMux&) = delete;

  /// Run every session to completion (one call per mux). Returns
  /// outcomes in session-index order.
  std::vector<SessionOutcome> run();

 private:
  struct Slot {
    int index{0};
    std::unique_ptr<web::Browser> browser;
    net::SessionClock clock{};
    SessionOutcome outcome{};
    bool done{false};
  };

  /// The namespace every session lives in.
  struct SharedWorld;

  void admit(Slot& slot);
  void complete(Slot& slot, web::PageLoadResult result);

  std::string url_;
  MuxConfig config_;
  net::EventLoop loop_;
  std::unique_ptr<SharedWorld> shared_;
  // Sized once at construction, so addresses stay stable: admission
  // events hold Slot&.
  std::vector<Slot> slots_;
  bool ran_{false};
};

}  // namespace mahimahi::fleet
