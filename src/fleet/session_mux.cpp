#include "fleet/session_mux.hpp"

#include <stdexcept>

#include "net/dns.hpp"
#include "net/element.hpp"
#include "net/fabric.hpp"
#include "util/assert.hpp"
#include "util/random.hpp"

namespace mahimahi::fleet {

namespace {

/// Safety valve forwarded to the loop (see EventLoop::set_event_limit).
constexpr std::size_t kEventLimit = 2'000'000'000;

/// Session i's seed: forked from the fleet seed by index alone — the
/// (fleet_seed, session_index) contract.
std::uint64_t derive_session_seed(std::uint64_t fleet_seed, int index) {
  util::Rng root{fleet_seed};
  return root.fork("session-" + std::to_string(index)).next();
}

}  // namespace

/// The one namespace every session of a mux lives in: one fabric, one
/// shell stack, one origin-server farm, one DNS. Browsers are per-session;
/// everything they contend for is here.
struct SessionMux::SharedWorld {
  /// The shared world's fault plan forks from the fleet seed, like its
  /// shells: faults belong to the world, not to any one user, so every
  /// session observes the same flap/crash/DNS schedule.
  static std::uint64_t fault_plan_seed(const MuxConfig& config) {
    util::Rng rng{config.fleet_seed ^ config.session.host.seed_salt};
    return rng.fork("fault-plan").next();
  }

  static replay::OriginServerSet::Options origin_options(
      const MuxConfig& config, const fault::FaultPlan& plan) {
    // Shared infrastructure — origin servers, DNS, shells, fault boxes —
    // belongs to no one session: its trace events carry session -1.
    core::SessionConfig shared_session = config.session;
    shared_session.trace_session = -1;
    replay::OriginServerSet::Options options =
        core::session_origin_options(shared_session, config.origin);
    if (plan.active()) {
      options.fault = plan;
    }
    return options;
  }

  SharedWorld(net::EventLoop& loop, const record::RecordStore& store,
              const MuxConfig& config)
      : plan{config.session.fault, fault_plan_seed(config)},
        fabric{loop},
        servers{fabric, store, origin_options(config, plan)},
        dns_server{fabric,
                   net::Address{fabric.allocate_server_ip(), net::kDnsPort},
                   servers.dns_table()} {
    dns_server.set_tracer(config.session.tracer, -1);
    if (plan.spec().dns.any()) {
      dns_server.set_fault_hook([p = plan](std::uint64_t query_index) {
        return p.dns_query_fault(query_index);
      });
    }
    // Fault elements sit innermost, before any shell — same layering as
    // ReplayWorld, so a fault spec means the same thing for a fleet cell
    // as for a single-user cell.
    if (plan.spec().flap.has_value()) {
      const auto& flap = *plan.spec().flap;
      auto box = std::make_unique<net::FlapBox>(loop, flap.period, flap.down,
                                                flap.offset);
      box->set_tracer(config.session.tracer, -1);
      fabric.chain().push_back(std::move(box));
    }
    if (plan.spec().corrupt.has_value()) {
      auto box = std::make_unique<net::CorruptBox>(
          plan.plan_seed(), plan.spec().corrupt->rate);
      box->set_tracer(config.session.tracer, -1, &loop);
      fabric.chain().push_back(std::move(box));
    }
    // The shared stack's randomness forks from the fleet seed, not from
    // any session: shells belong to the world, not to a user.
    util::Rng rng{config.fleet_seed ^ config.session.host.seed_salt};
    util::Rng shell_rng = rng.fork("shared-world-shells");
    core::apply_shells(fabric, config.session.shells, config.session.host,
                       shell_rng, config.session.tracer, -1);
  }

  fault::FaultPlan plan;
  net::Fabric fabric;
  replay::OriginServerSet servers;
  net::DnsServer dns_server;
};

SessionMux::SessionMux(const record::RecordStore& store, std::string url,
                       MuxConfig config, int sessions)
    : url_{std::move(url)}, config_{std::move(config)} {
  MAHI_ASSERT_MSG(config_.stagger >= 0, "fleet stagger must be >= 0");
  MAHI_ASSERT_MSG(sessions > 0, "a fleet needs at least one session");
  loop_.set_event_limit(kEventLimit);
  shared_ = std::make_unique<SharedWorld>(loop_, store, config_);
  slots_.resize(static_cast<std::size_t>(sessions));
  for (int i = 0; i < sessions; ++i) {
    slots_[static_cast<std::size_t>(i)].index = i;
  }
}

SessionMux::~SessionMux() = default;

void SessionMux::admit(Slot& slot) {
  slot.clock = net::SessionClock{loop_, loop_.now()};
  slot.outcome.session_index = slot.index;
  slot.outcome.start_ms = to_ms(loop_.now());

  core::SessionConfig session = config_.session;
  session.seed = derive_session_seed(config_.fleet_seed, slot.index);
  // Trace attribution: this session's events carry its fleet index
  // (shared infrastructure logs as -1; see SharedWorld).
  session.trace_session = slot.index;

  // This session is one more user of the common namespace. Its randomness
  // still forks from its own seed, so the user population is reproducible
  // independent of arrival interleaving.
  util::Rng rng = core::session_load_rng(session, 0);
  slot.browser = std::make_unique<web::Browser>(
      shared_->fabric, shared_->dns_server.address(),
      core::session_browser_config(session), rng.fork("browser"));
  slot.browser->load(url_, [this, &slot](web::PageLoadResult result) {
    complete(slot, std::move(result));
  });
}

void SessionMux::complete(Slot& slot, web::PageLoadResult result) {
  MAHI_ASSERT_MSG(!slot.done, "session completed twice");
  slot.done = true;
  // Timer-isolation audit: the load must have finished on its own session
  // clock — exactly page_load_time after this session's admission, no
  // matter how many sibling sessions shared the loop.
  MAHI_ASSERT_MSG(slot.clock.now() == result.page_load_time,
                  "session " << slot.index << " finished off its own clock");
  MAHI_ASSERT_MSG(result.started_at == slot.clock.origin(),
                  "session " << slot.index
                             << " load started off its admission time");
  SessionOutcome& o = slot.outcome;
  o.success = result.success ? 1 : 0;
  o.plt_ms = to_ms(result.page_load_time);
  o.finish_ms = to_ms(loop_.now());
  o.objects_loaded = static_cast<std::uint32_t>(result.objects_loaded);
  o.objects_failed = static_cast<std::uint32_t>(result.objects_failed);
  o.connections_opened =
      static_cast<std::uint32_t>(result.connections_opened);
  o.bytes_downloaded = result.bytes_downloaded;
  o.retries = static_cast<std::uint32_t>(result.retries);
  o.timeouts = static_cast<std::uint32_t>(result.timeouts);
  o.degraded_plt_ms = to_ms(result.degraded_page_load_time);
  // Retire the browser once the loop is past its frames: destroying it
  // inside its own completion callback would unwind into freed state.
  web::Browser* browser = slot.browser.get();
  loop_.schedule_in(0, [&slot, browser] {
    MAHI_ASSERT(slot.browser.get() == browser);
    slot.browser.reset();
  });
}

std::vector<SessionOutcome> SessionMux::run() {
  MAHI_ASSERT_MSG(!ran_, "SessionMux::run is one-shot");
  ran_ = true;
  for (Slot& slot : slots_) {
    loop_.schedule_at(config_.stagger * slot.index,
                      [this, &slot] { admit(slot); });
  }
  if (config_.session.deadline > 0) {
    // Watchdog over the whole mux: a shared-world fleet is one
    // indivisible simulation, so the deadline covers every session. An
    // unfinished fleet becomes a typed failure listing how far it got.
    loop_.run_until(config_.session.deadline);
    std::size_t done = 0;
    for (const Slot& slot : slots_) {
      done += slot.done ? 1 : 0;
    }
    if (done != slots_.size()) {
      if (config_.session.tracer != nullptr) {
        config_.session.tracer->event(
            config_.session.deadline, obs::Layer::kRunner,
            obs::EventKind::kWatchdogExpired, -1, 0, done,
            to_ms(config_.session.deadline), url_);
      }
      throw core::WatchdogError{
          "watchdog: fleet load exceeded " +
          std::to_string(config_.session.deadline / 1000) +
          " ms of virtual time (" + std::to_string(done) + "/" +
          std::to_string(slots_.size()) + " sessions complete)"};
    }
  } else {
    loop_.run();
  }

  std::vector<SessionOutcome> outcomes;
  outcomes.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    if (!slot.done) {
      throw std::runtime_error{"fleet session " + std::to_string(slot.index) +
                               " never completed (event loop drained)"};
    }
    outcomes.push_back(slot.outcome);
  }
  return outcomes;
}

}  // namespace mahimahi::fleet
