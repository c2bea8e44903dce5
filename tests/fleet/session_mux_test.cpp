// SessionMux: many users in one shared world on one event loop. The tests
// pin its contract: every session completes on its own clock, and
// sessions DO contend for the shared servers and links, deterministically.

#include "fleet/session_mux.hpp"

#include <gtest/gtest.h>

#include "corpus/site_generator.hpp"

namespace mahimahi::fleet {
namespace {

using namespace mahimahi::literals;

struct RecordedPage {
  corpus::GeneratedSite site;
  record::RecordStore store;
};

const RecordedPage& page() {
  static const RecordedPage entry = [] {
    corpus::SiteSpec spec;
    spec.name = "mux";
    spec.seed = 17;
    spec.server_count = 3;
    spec.object_count = 8;
    spec.size_scale = 0.25;
    RecordedPage built{corpus::generate_site(spec), record::RecordStore{}};
    core::SessionConfig config;
    config.seed = 9;
    core::RecordSession recorder{built.site, corpus::LiveWebConfig{}, config};
    built.store = recorder.record();
    return built;
  }();
  return entry;
}

MuxConfig quick_config() {
  MuxConfig config;
  config.fleet_seed = 5;
  config.stagger = 1'000;
  config.session.shells = {core::DelayShellSpec{5_ms}};
  return config;
}

std::vector<SessionOutcome> run_mux(int sessions, MuxConfig config) {
  SessionMux mux{page().store, page().site.primary_url(), std::move(config),
                 sessions};
  return mux.run();
}

TEST(SessionMux, RunsEverySessionToCompletion) {
  const auto outcomes = run_mux(8, quick_config());
  ASSERT_EQ(outcomes.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    const SessionOutcome& o = outcomes[static_cast<std::size_t>(i)];
    EXPECT_EQ(o.session_index, i);
    EXPECT_NE(o.success, 0);
    EXPECT_GT(o.plt_ms, 0.0);
    // Arrival honors the (stagger, index) contract...
    EXPECT_DOUBLE_EQ(o.start_ms, 1.0 * i);
    // ...and the load ran entirely on its own session clock.
    EXPECT_NEAR(o.finish_ms - o.start_ms, o.plt_ms, 1e-6);
    EXPECT_GT(o.objects_loaded, 0u);
    EXPECT_GT(o.bytes_downloaded, 0u);
  }
}

TEST(SessionMux, RunIsOneShot) {
  SessionMux mux{page().store, page().site.primary_url(), quick_config(), 1};
  mux.run();
  EXPECT_ANY_THROW(mux.run());
}

TEST(SessionMux, SharedWorldSessionsContend) {
  MuxConfig config = quick_config();
  config.stagger = 2'000;
  const auto solo = run_mux(1, config);
  const auto crowd = run_mux(10, config);
  ASSERT_EQ(crowd.size(), 10u);
  util::Samples crowd_plts;
  for (const SessionOutcome& o : crowd) {
    EXPECT_NE(o.success, 0);
    crowd_plts.add(o.plt_ms);
  }
  // Ten users fighting over one origin-server farm cannot match a lone
  // user's PLT — if they do, the "shared" world isn't shared.
  EXPECT_GT(crowd_plts.median(), solo[0].plt_ms);
  // And the contention itself is deterministic.
  const auto again = run_mux(10, config);
  EXPECT_EQ(crowd, again);
}

}  // namespace
}  // namespace mahimahi::fleet
