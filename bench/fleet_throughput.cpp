// Fleet throughput — how page-load time degrades as more emulated users
// contend in ONE shared world (src/fleet/): the same page is loaded by
// fleets of 1, 4 and 16 users on one loop, sharing one origin-server farm
// and one shell stack. p50 PLT must rise with fleet size (the offered-load
// story the experiment engine's fleet axis grids over); the run fails if
// it does not. Every figure is deterministic: a pure function of the
// seeds, the page and the session template.
//
// Output: BENCH_fleet.json.

#include <string>

#include "bench/common.hpp"
#include "corpus/site_generator.hpp"
#include "fleet/session_mux.hpp"
#include "util/assert.hpp"

using namespace mahimahi;
using namespace mahimahi::bench;

namespace {

/// A small multi-origin page (3 servers, 8 objects) so the bench measures
/// contention between users, not one giant page.
CorpusEntry recorded_page() {
  corpus::SiteSpec spec;
  spec.name = "fleet-page";
  spec.seed = 7;
  spec.server_count = 3;
  spec.object_count = 8;
  spec.size_scale = 0.25;
  CorpusEntry entry{corpus::generate_site(spec), record::RecordStore{}};
  core::SessionConfig config;
  config.seed = 11;
  core::RecordSession session{entry.site, corpus::LiveWebConfig{}, config};
  entry.store = session.record();
  return entry;
}

/// Shared-world fleet of `sessions` users on one loop; returns the p50
/// PLT (ms) across its sessions.
double fleet_p50_ms(const CorpusEntry& page, int sessions) {
  fleet::MuxConfig config;
  config.fleet_seed = 21;
  config.stagger = 10'000;
  // A 10 ms one-way delay shell keeps the transport honest: handshakes
  // and slow start actually pace the load.
  config.session.shells = {core::DelayShellSpec{10'000}};
  fleet::SessionMux mux{page.store, page.site.primary_url(), config,
                        sessions};
  util::Samples plts;
  for (const fleet::SessionOutcome& outcome : mux.run()) {
    MAHI_ASSERT_MSG(outcome.success != 0, "shared-world load failed");
    plts.add(outcome.plt_ms);
  }
  return plts.percentile(50.0);
}

}  // namespace

int main() {
  std::printf("=== fleet throughput: shared-world degradation ladder ===\n");
  const CorpusEntry page = recorded_page();

  double ladder_p50[3] = {0, 0, 0};
  const int ladder_sizes[3] = {1, 4, 16};
  for (int i = 0; i < 3; ++i) {
    ladder_p50[i] = fleet_p50_ms(page, ladder_sizes[i]);
    std::printf("shared world, %2d user(s): plt p50 %8.1f ms\n",
                ladder_sizes[i], ladder_p50[i]);
  }
  if (!(ladder_p50[2] > ladder_p50[0])) {
    // 16 users contending for 3 origin servers and one shell stack must
    // be slower than a lone user — if not, sessions are not actually
    // sharing the world and the offered-load axis measures nothing.
    std::fprintf(stderr, "FAIL: no contention degradation (p50 %0.1f ms at "
                 "16 users vs %0.1f ms solo)\n",
                 ladder_p50[2], ladder_p50[0]);
    return 1;
  }

  PerfReport report;
  for (int i = 0; i < 3; ++i) {
    report.add({"fleet_shared_plt_p50_ms/" + std::to_string(ladder_sizes[i]),
                ladder_p50[i] * 1e6, 0, 0});
  }
  report.write("BENCH_fleet.json");
  return 0;
}
