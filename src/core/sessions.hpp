#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/host_profile.hpp"
#include "core/parallel_runner.hpp"
#include "core/shells.hpp"
#include "corpus/live_web.hpp"
#include "fault/fault.hpp"
#include "record/store.hpp"
#include "replay/origin_servers.hpp"
#include "util/statistics.hpp"
#include "web/browser.hpp"

namespace mahimahi::core {

/// Common knobs for a measurement session.
struct SessionConfig {
  std::vector<ShellSpec> shells;  // outermost first; empty = bare shell
  HostProfile host{};
  web::BrowserConfig browser{};
  std::uint64_t seed{1};
  /// Congestion-controller registry name applied to *both* ends of every
  /// flow in the session (browser connections and replayed origin
  /// servers). Empty = leave whatever `browser.tcp` / server options say,
  /// i.e. the Reno default. Asymmetric setups configure the sides
  /// directly instead of using this knob.
  std::string congestion_control{};
  /// Mixed-fleet variant of the knob above (the ROADMAP's per-flow CC
  /// heterogeneity): when non-empty, browser connection k runs
  /// cc_fleet[k % size()] (per-connection-index, opening order) and
  /// replayed origin server j serves under cc_fleet[j % size()]
  /// (per-origin, spawn order) — e.g. {"bbr", "cubic"} alternates
  /// controllers across a shared bottleneck. Takes precedence over
  /// `congestion_control`.
  std::vector<std::string> cc_fleet;
  /// Deterministic fault injection for this session (default: none). Each
  /// load binds the spec to a plan seed forked from its load RNG, drives
  /// the link/origin/DNS injectors with it, and maps the spec's client
  /// policy onto the browser's resilience machinery.
  fault::FaultSpec fault{};
  /// Observability: when set, every layer of the load's world — link
  /// queues, TCP flows, DNS, fault injectors, browser waterfall — records
  /// into this tracer, tagged with `trace_session`. One Tracer per
  /// deterministic simulation (the caller injects a fresh one per task);
  /// null = tracing off, a pointer test on every hot path.
  obs::Tracer* tracer{nullptr};
  std::int32_t trace_session{0};
  /// Per-load virtual-time watchdog (0 = off): a load whose simulation
  /// passes this much virtual time without finishing is aborted with a
  /// typed WatchdogError instead of running the event loop dry — the
  /// experiment engine turns that into a failed report row, so one
  /// runaway cell can never hang a matrix. For a fleet cell the deadline
  /// covers the whole shared-world mux (one indivisible simulation).
  Microseconds deadline{0};
};

/// A load (or fleet) exceeded its virtual-time deadline. Typed so the
/// experiment runner can tell a deterministic runaway simulation from a
/// transient worker failure: watchdog trips are never retried.
class WatchdogError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Browser config for one session: host-scaled compute, plus the
/// session-level congestion-control override (single controller or mixed
/// fleet) when set.
web::BrowserConfig session_browser_config(const SessionConfig& config);

/// Replay origin-server options for one session: `base` with the
/// session-level congestion-control override applied to the server side
/// of every flow.
replay::OriginServerSet::Options session_origin_options(
    const SessionConfig& config, const replay::OriginServerSet::Options& base);

/// Root random stream for one load of a session: (seed, machine salt,
/// load index) — fixed before any simulation work, per the ParallelRunner
/// determinism contract.
util::Rng session_load_rng(const SessionConfig& config, int load_index);

/// One replay session's fully-materialized namespace stack — origin
/// server farm, DNS, nested shells and browser — on a *caller-owned*
/// event loop. ReplaySession::load_once builds one per load on a private
/// loop, so each load is its own connection namespace. (A fleet cell's
/// users instead share one namespace; see fleet::SessionMux.)
class ReplayWorld {
 public:
  ReplayWorld(net::EventLoop& loop, const record::RecordStore& store,
              const SessionConfig& config,
              const replay::OriginServerSet::Options& options, int load_index);
  ~ReplayWorld();

  ReplayWorld(const ReplayWorld&) = delete;
  ReplayWorld& operator=(const ReplayWorld&) = delete;

  [[nodiscard]] web::Browser& browser() { return *browser_; }
  [[nodiscard]] net::Fabric& fabric() { return *fabric_; }
  [[nodiscard]] const replay::OriginServerSet& servers() const {
    return *servers_;
  }

 private:
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<replay::OriginServerSet> servers_;
  std::unique_ptr<net::DnsServer> dns_server_;
  std::unique_ptr<web::Browser> browser_;
};

/// ReplayShell driver: loads a page from a recorded site, optionally under
/// nested delay/link/loss shells, and reports page load times. Every load
/// runs in a fresh, fully isolated namespace stack (fresh event loop,
/// fabric, servers, browser) — mirroring the paper's methodology of
/// repeated cold loads, and guaranteeing loads cannot contaminate each
/// other.
class ReplaySession {
 public:
  /// Server-farm knobs (single-server ablation, Apache prefork pool, CGI
  /// think time) are OriginServerSet options, passed through verbatim.
  using Options = replay::OriginServerSet::Options;

  ReplaySession(const record::RecordStore& store, SessionConfig config,
                Options options);
  ReplaySession(const record::RecordStore& store, SessionConfig config)
      : ReplaySession(store, std::move(config), Options{}) {}

  /// One measured load of `url` (load_index seeds the jitter stream).
  /// Const — every load builds its own event loop / fabric / servers, so
  /// concurrent loads of the same session never share mutable state.
  web::PageLoadResult load_once(const std::string& url, int load_index = 0) const;

  /// `count` loads fanned across `runner`'s threads; returns PLT samples
  /// in milliseconds, merged in load-index order. Per-load randomness is
  /// derived from (seed, load_index) alone, so the samples are
  /// bit-identical for any thread count.
  util::Samples measure(const std::string& url, int count,
                        ParallelRunner& runner) const;

  /// As above, fanned across the process-wide ParallelRunner::shared()
  /// pool (lazily spawned on first use, lives until process exit).
  util::Samples measure(const std::string& url, int count) const;

 private:
  const record::RecordStore& store_;
  SessionConfig config_;
  Options options_;
};

/// RecordShell driver: runs a browser against the (simulated) live web
/// through the recording proxy and returns the recorded site.
class RecordSession {
 public:
  RecordSession(const corpus::GeneratedSite& site, corpus::LiveWebConfig web,
                SessionConfig config);

  /// Load the site's primary URL once through the proxy; returns the
  /// store. `result_out`, if given, receives the load's metrics.
  record::RecordStore record(web::PageLoadResult* result_out = nullptr);

 private:
  const corpus::GeneratedSite& site_;
  corpus::LiveWebConfig web_;
  SessionConfig config_;
};

/// "Actual web" driver (Figure 3): the browser loads the site directly
/// from the simulated live Internet, no recording, no shells. Each load
/// re-draws network weather.
class LiveWebSession {
 public:
  /// One load's metrics plus the network weather it observed — returned
  /// by value so parallel loads never race on session state.
  struct LoadOutcome {
    web::PageLoadResult result{};
    Microseconds primary_rtt{0};
  };

  LiveWebSession(const corpus::GeneratedSite& site, corpus::LiveWebConfig web,
                 SessionConfig config);

  [[nodiscard]] LoadOutcome load_outcome(int load_index) const;

  web::PageLoadResult load_once(int load_index = 0);
  util::Samples measure(int count, ParallelRunner& runner);
  /// Uses the process-wide ParallelRunner::shared() pool.
  util::Samples measure(int count);

  /// Primary-origin RTT of the most recent load (what the paper feeds to
  /// DelayShell for the fair replay comparison).
  [[nodiscard]] Microseconds last_primary_rtt() const { return last_rtt_; }

 private:
  const corpus::GeneratedSite& site_;
  corpus::LiveWebConfig web_;
  SessionConfig config_;
  Microseconds last_rtt_{0};
};

/// Convenience: browser config scaled by a host profile's compute speed.
web::BrowserConfig scaled_browser(const web::BrowserConfig& base,
                                  const HostProfile& host);

}  // namespace mahimahi::core
