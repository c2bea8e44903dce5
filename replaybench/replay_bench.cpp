// Replay benchmark: runs one workload on the toolkit's public API and
// writes what it measured as one JSON document. run.py builds this
// binary, runs it twice per workload (a timed pass and a span pass, in
// separate processes), checks the outputs and turns the raw records into
// the benchmark's metrics.
//
//   replay_bench --workload <name> --seed <n> --seconds <s>
//                --pass timed|span --scratch <dir> --out <file>
//   replay_bench --self-test
//
// The timed pass records only what the end-to-end metrics need: per-load
// wall time, success and virtual PLT, the phase wall time, the set-up
// times and the peak RSS. The span pass runs the same load list with
// timers and counters around the calls into each layer.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "alloc_counter.hpp"
#include "core/parallel_runner.hpp"
#include "core/sessions.hpp"
#include "corpus/alexa.hpp"
#include "corpus/site_generator.hpp"
#include "experiment/matrix.hpp"
#include "experiment/runner.hpp"
#include "experiment/spec.hpp"
#include "net/event_loop.hpp"
#include "obs/analyze.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "replay/matcher.hpp"
#include "util/random.hpp"

namespace {

using namespace mahimahi;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;
namespace alloc = replaybench::alloc;

// Every pass runs on exactly three workers: on a shared four-core host a
// fourth worker competes with the host's other load and the tail latency
// stops repeating. The count is fixed, never read from the environment.
constexpr int kWorkers = 3;
// A load that dispatches this many events is a runaway; the loop throws
// and the load counts as failed (CNBC needs about 33k).
constexpr std::size_t kEventLimit = 5'000'000;
// Set-ups per timed pass; setup_s is their median. The first one runs
// before the timed phase; the others run after peak RSS has been read, so
// that peak_rss_mb covers one set-up and the timed phase.
constexpr int kSetupRepeats = 5;
// Loads of the load list that the span pass re-runs on one worker to show
// that every per-load count is independent of the worker count.
constexpr int kWorkerCheckLoads = 12;
// Loads of the load list that the span pass records an obs trace for.
constexpr int kTracedLoads = 24;

std::int64_t ns_since(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

double peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

// --- JSON output ------------------------------------------------------------

std::string quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// Flat JSON object writer: keys in insertion order, values preformatted.
class JsonObject {
 public:
  JsonObject& add(const std::string& key, const std::string& raw) {
    body_ += (body_.empty() ? "" : ", ") + quote(key) + ": " + raw;
    return *this;
  }
  JsonObject& add(const std::string& key, double value) {
    return add(key, num(value));
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

template <typename T, typename Fn>
std::string json_array(const std::vector<T>& items, Fn&& render) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "" : ",\n ") + render(items[i]);
  }
  return out + "]";
}

// --- arguments --------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  int seconds{10};
  bool span{false};
  std::string scratch;
  std::string out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  std::string pass;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stoi(value);
    } else if (key == "--pass") {
      pass = value;
    } else if (key == "--scratch") {
      args.scratch = value;
    } else if (key == "--out") {
      args.out = value;
    } else {
      throw std::invalid_argument{"unknown argument " + key};
    }
  }
  if (args.workload.empty() || args.scratch.empty() || args.out.empty() ||
      (pass != "timed" && pass != "span") || args.seconds < 1) {
    throw std::invalid_argument{
        "usage: replay_bench --workload <name> --seed <n> --seconds <s> "
        "--pass timed|span --scratch <dir> --out <file>"};
  }
  args.span = pass == "span";
  return args;
}

// --- inputs -----------------------------------------------------------------

/// The fixed work of one run: the number of loads scales with --seconds
/// at a nominal rate per workload, so a run does the same list of loads
/// every time it is given the same arguments, and is never cut by a clock.
int scaled_count(int seconds, double per_second, int minimum) {
  return std::max(minimum, static_cast<int>(std::lround(seconds * per_second)));
}

/// Draws the corpus shape: origins, objects and page weight per site.
/// Fixed, so that runs on different seeds measure the same amount of work.
constexpr std::uint64_t kShapeSeed = 2014;

/// Alexa-calibrated corpus with a fixed shape. The shape is drawn once by
/// corpus::alexa_server_counts and corpus::alexa_site_spec from kShapeSeed.
/// The seed picks every page's content, the recording weather, the replay
/// jitter and the load order; it never changes how many origins, objects
/// or bytes the corpus has.
std::vector<corpus::SiteSpec> alexa_site_specs(std::uint64_t seed, int count) {
  const util::Rng root{seed};
  util::Rng shape{kShapeSeed};
  const std::vector<int> servers = corpus::alexa_server_counts(shape, count);
  std::vector<corpus::SiteSpec> specs;
  for (int i = 0; i < count; ++i) {
    corpus::SiteSpec spec =
        corpus::alexa_site_spec(i, servers[static_cast<std::size_t>(i)], shape);
    spec.seed = root.fork(spec.name).next();
    specs.push_back(spec);
  }
  return specs;
}

/// A recorded page. The generated site is dropped once recorded; replay
/// needs only its URL and the store.
struct Site {
  corpus::SiteSpec spec;
  std::string url;
  record::RecordStore store;
};

/// Time spent in the set-up layers, summed over sites (span pass only).
struct SetupSpans {
  std::int64_t generate_ns{0};
  std::int64_t record_ns{0};
  int sites{0};
};

/// Generate and record every site on the pool, site i under recording
/// seed record_seeds[i].
std::vector<Site> record_sites(const std::vector<corpus::SiteSpec>& specs,
                               const std::vector<std::uint64_t>& record_seeds,
                               core::ParallelRunner& pool, SetupSpans* spans) {
  struct Timed {
    Site site;
    std::int64_t generate_ns{0};
    std::int64_t record_ns{0};
  };
  auto timed = pool.map(static_cast<int>(specs.size()), [&](int i) {
    Timed out;
    auto start = Clock::now();
    const corpus::GeneratedSite site =
        corpus::generate_site(specs[static_cast<std::size_t>(i)]);
    out.generate_ns = ns_since(start);
    start = Clock::now();
    core::SessionConfig config;
    config.seed = record_seeds[static_cast<std::size_t>(i)];
    core::RecordSession session{site, corpus::LiveWebConfig{}, config};
    out.site.store = session.record();
    out.record_ns = ns_since(start);
    out.site.spec = site.spec;
    out.site.url = site.primary_url();
    return out;
  });
  std::vector<Site> sites;
  for (Timed& t : timed) {
    if (spans != nullptr) {
      spans->generate_ns += t.generate_ns;
      spans->record_ns += t.record_ns;
      ++spans->sites;
    }
    sites.push_back(std::move(t.site));
  }
  return sites;
}

/// RecordStore::save followed by RecordStore::load of one site's store.
/// The save writes one fsync'd file per exchange, which is why set-up does
/// not round-trip the whole corpus. Returns ns; `exact` is whether the
/// store read back equals the one saved.
std::int64_t time_store_roundtrip(const Site& site, const fs::path& dir,
                                  bool& exact) {
  fs::remove_all(dir);
  const auto start = Clock::now();
  site.store.save(dir);
  const record::RecordStore loaded = record::RecordStore::load(dir);
  const std::int64_t ns = ns_since(start);
  exact = loaded.exchanges() == site.store.exchanges();
  fs::remove_all(dir);
  return ns;
}

// --- one page load ------------------------------------------------------------

/// What a job loads: a recorded page under one session configuration.
struct Target {
  const Site* site{nullptr};
  core::SessionConfig config;
  replay::OriginServerSet::Options origin{};
};

/// One entry of the load list: a target and the load index that seeds the
/// load's random streams.
struct Job {
  int target{0};
  int load_index{0};
};

/// One load's outcome. The fields after wall_ns stay zero unless the load
/// runs with spans.
struct LoadRecord {
  int target{0};
  int load_index{0};
  int ok{0};
  std::int64_t plt_us{0};
  std::int64_t wall_ns{0};
  std::int64_t build_ns{0};
  std::int64_t run_ns{0};
  std::uint64_t events{0};
  std::uint64_t packets{0};
  std::uint64_t allocs{0};
  std::uint64_t alloc_bytes{0};
  std::uint64_t objects{0};
  std::uint64_t connections{0};
  std::uint64_t trace_events{0};
  std::string error;

  [[nodiscard]] bool same_counts(const LoadRecord& o) const {
    return target == o.target && load_index == o.load_index && ok == o.ok &&
           plt_us == o.plt_us && events == o.events && packets == o.packets &&
           allocs == o.allocs && alloc_bytes == o.alloc_bytes &&
           objects == o.objects && connections == o.connections &&
           trace_events == o.trace_events;
  }
};

/// One page load, timed from ReplayWorld construction until the event loop
/// returns. With `spans`, the world build and the loop run are timed
/// separately and the load's events, packets and heap allocations are
/// counted. A load that throws (the event limit is the watchdog) or ends
/// without a successful result counts as failed.
LoadRecord run_load(const Site& site, const core::SessionConfig& config,
                    const replay::OriginServerSet::Options& origin,
                    const Job& job, bool spans) {
  LoadRecord rec;
  rec.target = job.target;
  rec.load_index = job.load_index;
  const alloc::Counts alloc_start = spans ? alloc::thread_counts() : alloc::Counts{};
  const auto start = Clock::now();
  try {
    net::EventLoop loop;
    loop.set_event_limit(kEventLimit);
    core::ReplayWorld world{loop, site.store, config, origin, job.load_index};
    const auto built = Clock::now();
    std::optional<web::PageLoadResult> result;
    world.browser().load(site.url,
                         [&result](web::PageLoadResult r) { result = std::move(r); });
    const auto run_start = Clock::now();
    const std::size_t events = config.deadline > 0
                                   ? loop.run_until(config.deadline)
                                   : loop.run();
    rec.wall_ns = ns_since(start);
    if (spans) {
      const alloc::Counts alloc_end = alloc::thread_counts();
      rec.build_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(built - start).count();
      rec.run_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - run_start).count();
      rec.events = events;
      rec.packets = world.fabric().delivered_packets(net::Side::kClient) +
                    world.fabric().delivered_packets(net::Side::kServer);
      rec.allocs = alloc_end.count - alloc_start.count;
      rec.alloc_bytes = alloc_end.bytes - alloc_start.bytes;
    }
    if (!result.has_value()) {
      rec.error = "load did not finish";
      return rec;
    }
    rec.ok = result->success ? 1 : 0;
    rec.plt_us = result->page_load_time;
    rec.objects = result->objects_loaded;
    rec.connections = result->connections_opened;
  } catch (const std::exception& e) {
    rec.wall_ns = ns_since(start);
    rec.error = e.what();
  }
  return rec;
}

std::string load_json(const LoadRecord& r) {
  JsonObject o;
  o.add("target", r.target).add("load", r.load_index).add("ok", r.ok)
      .add("plt_us", static_cast<double>(r.plt_us))
      .add("wall_ns", static_cast<double>(r.wall_ns))
      .add("build_ns", static_cast<double>(r.build_ns))
      .add("run_ns", static_cast<double>(r.run_ns))
      .add("events", static_cast<double>(r.events))
      .add("packets", static_cast<double>(r.packets))
      .add("allocs", static_cast<double>(r.allocs))
      .add("alloc_bytes", static_cast<double>(r.alloc_bytes))
      .add("objects", static_cast<double>(r.objects))
      .add("connections", static_cast<double>(r.connections));
  if (!r.error.empty()) {
    o.add("error", quote(r.error));
  }
  return o.str();
}

// --- obs spans ----------------------------------------------------------------

/// Per-layer costs of the observability path over a set of traced loads.
struct ObsSpans {
  std::uint64_t loads{0};
  std::uint64_t trace_events{0};
  std::int64_t derive_ns{0};
  std::int64_t export_ns{0};
  std::uint64_t export_bytes{0};
  bool csv_parses{true};

  /// Derive metrics per load, then export the loads as one cell in all
  /// three formats and parse the CSV back.
  void add_cell(const obs::TraceMeta& meta,
                const std::vector<obs::LoadTrace>& traces) {
    obs::MetricsRegistry registry;
    for (const obs::LoadTrace& trace : traces) {
      const auto start = Clock::now();
      obs::derive_metrics(trace.buffer, registry);
      derive_ns += ns_since(start);
      trace_events += trace.buffer.events.size();
      ++loads;
    }
    const auto start = Clock::now();
    const std::string chrome = obs::to_chrome_trace(meta, traces);
    const std::string har = obs::to_har(meta, traces);
    const std::string csv = obs::to_csv(meta, traces);
    export_ns += ns_since(start);
    export_bytes += chrome.size() + har.size() + csv.size();
    std::istringstream in{csv};
    const auto parsed = obs::parse_trace_csv(in);
    csv_parses = csv_parses && parsed.has_value() && !parsed->rows.empty() &&
                 parsed->cell_index == meta.cell_index;
  }

  [[nodiscard]] std::string json() const {
    return JsonObject{}
        .add("loads", static_cast<double>(loads))
        .add("trace_events", static_cast<double>(trace_events))
        .add("derive_ns", static_cast<double>(derive_ns))
        .add("export_ns", static_cast<double>(export_ns))
        .add("export_bytes", static_cast<double>(export_bytes))
        .str();
  }
};

struct LoadRun {
  LoadRecord rec;
  obs::TraceBuffer trace;
};

/// Run `jobs` on `pool`; results come back in job order at any pool size.
/// With `traced`, every load records into its own obs::Tracer.
std::vector<LoadRun> run_jobs(const std::vector<Target>& targets,
                              const std::vector<Job>& jobs,
                              core::ParallelRunner& pool, bool spans,
                              bool traced = false) {
  return pool.map(static_cast<int>(jobs.size()), [&](int i) {
    const Job& job = jobs[static_cast<std::size_t>(i)];
    const Target& target = targets[static_cast<std::size_t>(job.target)];
    LoadRun run;
    if (!traced) {
      run.rec = run_load(*target.site, target.config, target.origin, job, spans);
      return run;
    }
    obs::Tracer tracer;
    core::SessionConfig config = target.config;
    config.tracer = &tracer;
    run.rec = run_load(*target.site, config, target.origin, job, spans);
    run.trace = tracer.take();
    run.rec.trace_events = run.trace.events.size();
    return run;
  });
}

std::vector<LoadRecord> records(std::vector<LoadRun> runs) {
  std::vector<LoadRecord> out;
  out.reserve(runs.size());
  for (LoadRun& run : runs) {
    out.push_back(std::move(run.rec));
  }
  return out;
}

// --- output ---------------------------------------------------------------------

struct Output {
  JsonObject doc;
  JsonObject checks;
  JsonObject layers;
};

void write_output(const Args& args, Output& out) {
  out.doc.add("checks", out.checks.str())
      .add("layers", out.layers.str());
  std::ofstream file{args.out};
  file << out.doc.str() << "\n";
  if (!file) {
    throw std::runtime_error{"cannot write " + args.out};
  }
}

std::string check(bool ok) { return ok ? "true" : "false"; }

// --- replay workloads: table1_replay and alexa_bare -------------------------------

/// A replay workload's inputs. Targets point into `sites`, whose buffer
/// stays put when the struct is moved.
struct ReplayInputs {
  std::vector<Site> sites;
  std::vector<Target> targets;
  std::vector<Job> jobs;
};

constexpr int kAlexaSites = 100;

/// The load list, a function of the arguments alone. table1_replay loads
/// its one page; alexa_bare loads every site equally often, in an order
/// shuffled by the seed. The load index seeds each load's random streams.
std::vector<Job> make_jobs(const Args& args) {
  std::vector<Job> jobs;
  if (args.workload == "table1_replay") {
    const int count = scaled_count(args.seconds, 200.0, 100);
    for (int i = 0; i < count; ++i) {
      jobs.push_back(Job{0, i});
    }
    return jobs;
  }
  const int per_site = std::max(
      1, (scaled_count(args.seconds, 600.0, 100) + kAlexaSites - 1) / kAlexaSites);
  for (int s = 0; s < kAlexaSites; ++s) {
    for (int k = 0; k < per_site; ++k) {
      jobs.push_back(Job{s, 0});
    }
  }
  util::Rng order = util::Rng{args.seed}.fork("order");
  for (std::size_t i = jobs.size() - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(
        order.uniform_int(0, static_cast<std::int64_t>(i)));
    std::swap(jobs[i], jobs[j]);
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].load_index = static_cast<int>(i);
  }
  return jobs;
}

ReplayInputs make_replay_inputs(const Args& args, core::ParallelRunner& pool,
                                SetupSpans* spans) {
  ReplayInputs in;
  const util::Rng root{args.seed};
  core::SessionConfig config;
  config.seed = root.fork("replay").next();
  if (args.workload == "table1_replay") {
    // The CNBC row of Table 1: one page, recorded once, replayed under the
    // toolkit's reference access link on the first lab machine.
    in.sites = record_sites({corpus::cnbc_like_spec()},
                            {root.fork("record-0").next()}, pool, spans);
    config.host = core::HostProfile::machine1();
    config.shells = {core::DelayShellSpec{25'000},
                     core::LinkShellSpec::constant_rate_mbps(6, 6)};
  } else {
    // Alexa-calibrated sites, no shells.
    std::vector<std::uint64_t> record_seeds;
    for (int s = 0; s < kAlexaSites; ++s) {
      record_seeds.push_back(root.fork("record-" + std::to_string(s)).next());
    }
    in.sites = record_sites(alexa_site_specs(args.seed, kAlexaSites),
                            record_seeds, pool, spans);
  }
  for (const Site& site : in.sites) {
    in.targets.push_back(Target{&site, config});
  }
  in.jobs = make_jobs(args);
  return in;
}

/// Set-up: corpus generation, recording, and 2 x kWorkers warm-up loads
/// from the head of the list.
ReplayInputs replay_setup(const Args& args, core::ParallelRunner& pool,
                          SetupSpans* spans) {
  ReplayInputs in = make_replay_inputs(args, pool, spans);
  const std::vector<Job> warmup(in.jobs.begin(),
                                in.jobs.begin() + 2 * kWorkers);
  run_jobs(in.targets, warmup, pool, spans != nullptr);
  return in;
}

/// One-cell experiment over the workload's first page, with the
/// workload's shells: the experiment layer's cost on this workload.
experiment::ExperimentSpec replay_experiment_spec(const Args& args,
                                                  const ReplayInputs& in) {
  experiment::ExperimentSpec spec;
  spec.name = "replaybench-" + args.workload;
  spec.seed = args.seed;
  spec.loads_per_cell = 3 * kWorkers;
  spec.sites = {experiment::SiteAxis{"page", in.sites.front().spec}};
  if (args.workload == "table1_replay") {
    experiment::ShellLayerSpec delay;
    delay.kind = experiment::ShellLayerSpec::Kind::kDelay;
    delay.delay_one_way = 25'000;
    experiment::ShellLayerSpec link;
    link.kind = experiment::ShellLayerSpec::Kind::kLink;
    link.up_mbps = 6;
    link.down_mbps = 6;
    spec.shells = {experiment::ShellAxis{"cable", {delay, link}}};
  }
  experiment::validate_spec(spec);
  return spec;
}

/// Replay matcher cost: every recorded request of every store, repeated
/// until the total is long enough to time. Returns ns per find; `misses`
/// counts requests the matcher could not find. The matchers are built
/// before the clock starts: building the index is part of the world build
/// (core.world_build_us.p50), not of find.
double time_matcher(const std::vector<const Site*>& sites, std::uint64_t& misses) {
  std::vector<replay::Matcher> matchers;
  matchers.reserve(sites.size());
  for (const Site* site : sites) {
    matchers.emplace_back(site->store);
  }
  std::uint64_t finds = 0;
  const auto start = Clock::now();
  while (finds == 0 || ns_since(start) < 20'000'000) {
    for (std::size_t s = 0; s < sites.size(); ++s) {
      for (const record::RecordedExchange& exchange : sites[s]->store.exchanges()) {
        misses += matchers[s].find(exchange.request) == nullptr ? 1 : 0;
        ++finds;
      }
    }
  }
  return static_cast<double>(ns_since(start)) / static_cast<double>(finds);
}

/// Report formatting cost: the three formats a run writes.
double time_report(const experiment::Report& report, bool& written) {
  const auto start = Clock::now();
  const std::size_t bytes = report.to_json().size() + report.to_csv().size() +
                            report.to_bench_json().size();
  const double ms = ns_since(start) * 1e-6;
  written = bytes > 0 && !report.cells.empty();
  return ms;
}

/// Set-up layer spans plus one store round trip of the workload's first
/// page.
void add_setup_layers(const Args& args, const SetupSpans& setup,
                      const Site& first, Output& out) {
  bool exact = false;
  const std::int64_t store_ns =
      time_store_roundtrip(first, fs::path{args.scratch} / "store", exact);
  out.layers.add("generate_ns", static_cast<double>(setup.generate_ns))
      .add("record_ns", static_cast<double>(setup.record_ns))
      .add("sites", setup.sites)
      .add("store_roundtrip_ns", static_cast<double>(store_ns));
  out.checks.add("store_round_trip_exact", check(exact));
}

/// The load list in kBlocks consecutive blocks, each run to completion on
/// the pool before the next starts. loads_per_s is the median of the
/// blocks' rates, which keeps a burst of load from other tenants of the
/// host in one block out of the figure.
constexpr int kBlocks = 10;

struct BlockRun {
  std::vector<LoadRecord> loads;
  std::vector<double> block_s;
  std::vector<double> block_loads;
};

BlockRun run_blocks(const ReplayInputs& in, core::ParallelRunner& pool,
                    bool spans) {
  BlockRun run;
  const std::size_t n = in.jobs.size();
  for (std::size_t b = 0; b < kBlocks; ++b) {
    const std::vector<Job> block(in.jobs.begin() + static_cast<std::ptrdiff_t>(n * b / kBlocks),
                                 in.jobs.begin() + static_cast<std::ptrdiff_t>(n * (b + 1) / kBlocks));
    const auto start = Clock::now();
    std::vector<LoadRecord> loads = records(run_jobs(in.targets, block, pool, spans));
    run.block_s.push_back(ns_since(start) * 1e-9);
    run.block_loads.push_back(static_cast<double>(block.size()));
    run.loads.insert(run.loads.end(), loads.begin(), loads.end());
  }
  return run;
}

void add_blocks(const BlockRun& run, Output& out) {
  out.doc.add("block_s", json_array(run.block_s, num))
      .add("block_loads", json_array(run.block_loads, num))
      .add("loads", json_array(run.loads, load_json));
}

void run_replay_workload(const Args& args, Output& out) {
  core::ParallelRunner pool{kWorkers};
  if (!args.span) {
    std::vector<double> setup_s;
    auto start = Clock::now();
    const ReplayInputs in = replay_setup(args, pool, nullptr);
    setup_s.push_back(ns_since(start) * 1e-9);
    add_blocks(run_blocks(in, pool, false), out);
    out.doc.add("peak_rss_kb", peak_rss_kb());
    for (int k = 1; k < kSetupRepeats; ++k) {
      start = Clock::now();
      replay_setup(args, pool, nullptr);
      setup_s.push_back(ns_since(start) * 1e-9);
    }
    out.doc.add("setup_s", json_array(setup_s, num));
    return;
  }

  SetupSpans setup;
  const ReplayInputs in = replay_setup(args, pool, &setup);
  alloc::set_counting(true);
  const BlockRun run = run_blocks(in, pool, true);
  const std::vector<LoadRecord>& loads = run.loads;

  // The same first loads on one worker must count exactly the same work.
  const std::vector<Job> prefix(in.jobs.begin(),
                                in.jobs.begin() + kWorkerCheckLoads);
  core::ParallelRunner single{1};
  const std::vector<LoadRecord> serial =
      records(run_jobs(in.targets, prefix, single, true));
  bool same = true;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    same = same && serial[i].same_counts(loads[i]);
  }

  // Traced loads: the obs layers' cost on this workload. Tracing must not
  // change what a load measures.
  const std::vector<Job> traced_jobs(in.jobs.begin(),
                                     in.jobs.begin() + kTracedLoads);
  std::vector<LoadRun> traced = run_jobs(in.targets, traced_jobs, pool, true, true);
  alloc::set_counting(false);
  std::vector<obs::LoadTrace> traces;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    same = same && traced[i].rec.plt_us == loads[i].plt_us &&
           traced[i].rec.ok == loads[i].ok;
    traces.push_back(obs::LoadTrace{traced[i].rec.load_index, std::move(traced[i].trace)});
  }
  ObsSpans obs_spans;
  obs_spans.add_cell(obs::TraceMeta{"replaybench", args.workload, 0, args.seed},
                     traces);

  std::vector<const Site*> sites;
  for (const Site& site : in.sites) {
    sites.push_back(&site);
  }
  std::uint64_t misses = 0;
  const double match_ns = time_matcher(sites, misses);

  // Experiment layer over this workload's page.
  experiment::RunOptions plain;
  plain.runner = &pool;
  plain.transport_probes = false;
  const auto start = Clock::now();
  const experiment::Report report =
      experiment::run_experiment(replay_experiment_spec(args, in), plain);
  const double plain_run_s = ns_since(start) * 1e-9;
  bool written = false;
  const double report_ms = time_report(report, written);

  add_blocks(run, out);
  add_setup_layers(args, setup, in.sites.front(), out);
  out.layers.add("match_ns", match_ns)
      .add("obs", obs_spans.json())
      .add("plain_run_s", plain_run_s)
      .add("report_ms", report_ms);
  out.checks.add("counts_same_on_1_and_3_workers", check(same))
      .add("matcher_finds_every_request", check(misses == 0))
      .add("exported_csv_parses", check(obs_spans.csv_parses))
      .add("report_written", check(written));
}

// --- experiment_observed ------------------------------------------------------------

/// The smoke.mx shape with the fault axis: 2 shells x 2 queues x 2
/// controllers x 2 fault ladders = 16 cells on one recorded page.
std::string observed_spec_text(std::uint64_t seed, int loads) {
  return "name replaybench\n"
         "seed " + std::to_string(seed) + "\n"
         "loads " + std::to_string(loads) + "\n"
         "probe-seconds 6\n"
         "deadline 120s\n"
         "site nytimes\n"
         "protocol http11\n"
         "shell cable delay=10ms link=12x5\n"
         "shell lossy delay=20ms link=8x8 loss=0.005\n"
         "queue fifo infinite\n"
         "queue pie pie target=15ms tupdate=15ms\n"
         "cc reno\n"
         "cc mixed 1xbbr+2xcubic\n"
         "fault none\n"
         "fault defended crash:p=0.08 stall:p=0.04 "
         "retry:deadline=4s,max=2,base=250ms,cap=4s\n";
}

/// Wall time of each task of run_experiment, observed from outside through
/// two public hooks that run on the worker thread: transient_fault is
/// called as an attempt starts (it never injects anything here) and
/// on_progress as the task finishes.
class TaskTimes {
 public:
  struct Task {
    int cell{0};
    int load{0};
    int probe{0};
    std::int64_t wall_ns{0};
  };

  void attach(experiment::RunOptions& options) {
    options.transient_fault = [](int cell, int load, bool probe, std::uint32_t) {
      current() = Current{cell, load, probe, Clock::now(), true};
      return false;
    };
    options.on_progress = [this](int, int, int, int) {
      Current& task = current();
      if (!task.active) {
        return;
      }
      task.active = false;
      const Task done{task.cell, task.load, task.probe ? 1 : 0,
                      ns_since(task.start)};
      const std::lock_guard<std::mutex> lock{mutex_};
      tasks_.push_back(done);
    };
  }

  [[nodiscard]] std::vector<Task> sorted() const {
    std::vector<Task> tasks;
    {
      const std::lock_guard<std::mutex> lock{mutex_};
      tasks = tasks_;
    }
    std::sort(tasks.begin(), tasks.end(), [](const Task& a, const Task& b) {
      return std::tie(a.cell, a.probe, a.load) < std::tie(b.cell, b.probe, b.load);
    });
    return tasks;
  }

 private:
  struct Current {
    int cell{0};
    int load{0};
    bool probe{false};
    Clock::time_point start{};
    bool active{false};
  };
  static Current& current() {
    thread_local Current task;
    return task;
  }

  mutable std::mutex mutex_;
  std::vector<Task> tasks_;  // guarded by mutex_
};

std::string cells_json(const experiment::Report& report) {
  return json_array(report.cells, [](const experiment::CellResult& cell) {
    return JsonObject{}
        .add("cell", cell.index)
        .add("done", cell.loads_done)
        .add("failed", static_cast<double>(cell.failed_loads))
        .add("objects_failed", static_cast<double>(cell.objects_failed))
        .add("retries", static_cast<double>(cell.retries))
        .add("plt_ms", json_array(cell.plt_ms.values(), num))
        .str();
  });
}

std::string tasks_json(const std::vector<TaskTimes::Task>& tasks) {
  return json_array(tasks, [](const TaskTimes::Task& t) {
    return JsonObject{}
        .add("cell", t.cell)
        .add("load", t.load)
        .add("probe", t.probe)
        .add("wall_ns", static_cast<double>(t.wall_ns))
        .str();
  });
}

/// The workload is kTrials runs of the spec, each under its own seed.
/// A run spends most of its wall time in serial export, so the loads of
/// one run all fall inside about a second; spreading them over several
/// runs keeps the latency percentiles from resting on one second of a
/// shared host. loads_per_s is the median of the trials' rates.
constexpr int kTrials = 16;

/// Set-up: parse every trial's spec and warm up on one plain load per cell
/// of the first trial. run_experiment records its page itself, inside the
/// trial's wall time.
std::vector<experiment::ExperimentSpec> observed_setup(const Args& args,
                                                       core::ParallelRunner& pool) {
  const int loads_per_cell = scaled_count(args.seconds, 0.1, 1);
  std::vector<experiment::ExperimentSpec> specs;
  for (int t = 0; t < kTrials; ++t) {
    specs.push_back(experiment::parse_spec(observed_spec_text(
        util::Rng{args.seed}.fork("trial-" + std::to_string(t)).next(),
        loads_per_cell)));
  }
  experiment::RunOptions warmup;
  warmup.runner = &pool;
  warmup.loads_override = 1;
  warmup.transport_probes = false;
  experiment::run_experiment(specs.front(), warmup);
  return specs;
}

/// Each trial's one page, recorded as run_experiment records it. Only the
/// span pass needs these, for its own replay of every (cell, load).
std::vector<Site> record_trial_pages(
    const std::vector<experiment::ExperimentSpec>& specs,
    core::ParallelRunner& pool, SetupSpans* spans) {
  std::vector<corpus::SiteSpec> pages;
  std::vector<std::uint64_t> record_seeds;
  for (const experiment::ExperimentSpec& spec : specs) {
    const experiment::SiteAxis& axis = spec.sites.front();
    pages.push_back(axis.site);
    record_seeds.push_back(
        util::Rng{spec.seed}.fork("record-" + axis.label).next());
  }
  return record_sites(pages, record_seeds, pool, spans);
}

/// One target per cell, configured the way the engine configures a cell's
/// replay session.
std::vector<Target> cell_targets(const experiment::ExperimentSpec& spec,
                                 const Site& site,
                                 const std::vector<experiment::Cell>& cells) {
  std::vector<Target> targets;
  for (const experiment::Cell& cell : cells) {
    Target target;
    target.site = &site;
    target.config.seed = cell.cell_seed;
    target.config.shells = experiment::materialize_cell(cell).shells;
    target.config.browser.protocol = cell.protocol;
    target.config.deadline = spec.cell_deadline;
    if (cell.cc.fleet.size() == 1) {
      target.config.congestion_control = cell.cc.fleet.front();
    } else {
      target.config.cc_fleet = cell.cc.fleet;
    }
    target.config.fault = cell.fault.fault;
    target.origin.multiplexed = cell.protocol == web::AppProtocol::kMultiplexed;
    targets.push_back(std::move(target));
  }
  return targets;
}

/// The observed run: metrics on, traces exported to a directory, probes
/// on. Returns the trial's JSON record (wall time, task times, cells) and
/// its report; `csv_parses` is whether every exported CSV parses back.
std::string observed_run(const experiment::ExperimentSpec& spec,
                         core::ParallelRunner& pool, const fs::path& trace_dir,
                         experiment::Report& report, bool& csv_parses) {
  fs::remove_all(trace_dir);
  experiment::RunOptions options;
  options.runner = &pool;
  options.metrics = true;
  options.trace_dir = trace_dir.string();
  TaskTimes times;
  times.attach(options);
  const auto start = Clock::now();
  report = experiment::run_experiment(spec, options);
  const double wall_s = ns_since(start) * 1e-9;
  csv_parses = !report.cells.empty();
  for (const experiment::CellResult& cell : report.cells) {
    const auto trace = obs::parse_trace_file(
        (trace_dir / ("cell" + std::to_string(cell.index) + ".csv")).string());
    csv_parses = csv_parses && trace.has_value() && trace->cell_index == cell.index;
  }
  fs::remove_all(trace_dir);
  return JsonObject{}
      .add("wall_s", wall_s)
      .add("tasks", tasks_json(times.sorted()))
      .add("cells", cells_json(report))
      .str();
}

std::string raw_json(const std::string& text) { return text; }

void run_observed_workload(const Args& args, Output& out) {
  core::ParallelRunner pool{kWorkers};
  const fs::path trace_dir = fs::path{args.scratch} / "traces";
  std::vector<std::string> runs;
  bool csv_parses = true;
  if (!args.span) {
    std::vector<double> setup_s;
    auto start = Clock::now();
    const std::vector<experiment::ExperimentSpec> specs = observed_setup(args, pool);
    setup_s.push_back(ns_since(start) * 1e-9);
    for (const experiment::ExperimentSpec& spec : specs) {
      experiment::Report report;
      bool parses = false;
      runs.push_back(observed_run(spec, pool, trace_dir, report, parses));
      csv_parses = csv_parses && parses;
    }
    out.doc.add("peak_rss_kb", peak_rss_kb());
    for (int k = 1; k < kSetupRepeats; ++k) {
      start = Clock::now();
      observed_setup(args, pool);
      setup_s.push_back(ns_since(start) * 1e-9);
    }
    out.doc.add("setup_s", json_array(setup_s, num))
        .add("trials", json_array(runs, raw_json));
    out.checks.add("exported_csv_parses", check(csv_parses));
    return;
  }

  const std::vector<experiment::ExperimentSpec> specs = observed_setup(args, pool);
  SetupSpans setup;
  const std::vector<Site> pages = record_trial_pages(specs, pool, &setup);
  std::vector<std::string> plain_runs;
  std::vector<LoadRecord> loads;
  ObsSpans obs_spans;
  double plain_run_s = 0;
  double report_ms = 0;
  bool written = true;
  bool same_workers = true;
  bool replay_matches = true;
  core::ParallelRunner single{1};
  for (std::size_t t = 0; t < specs.size(); ++t) {
    const experiment::ExperimentSpec& spec = specs[t];
    experiment::RunOptions plain;
    plain.runner = &pool;
    auto start = Clock::now();
    const experiment::Report plain_report =
        experiment::run_experiment(spec, plain);
    const double plain_s = ns_since(start) * 1e-9;
    plain_run_s += plain_s;
    plain_runs.push_back(
        JsonObject{}.add("wall_s", plain_s).add("cells", cells_json(plain_report)).str());

    experiment::Report report;
    bool parses = false;
    runs.push_back(observed_run(spec, pool, trace_dir, report, parses));
    csv_parses = csv_parses && parses;
    bool trial_written = false;
    report_ms += time_report(report, trial_written);
    written = written && trial_written;

    // The benchmark's own replay of every (cell, load), built the way the
    // engine builds a cell's session, so that the replay layers can be
    // timed and counted per load. It must reproduce the engine's samples:
    // the PLTs of the loads that did not throw, in load order, and the
    // count of failed loads.
    const std::vector<experiment::Cell> cells = experiment::expand_matrix(spec);
    const std::vector<Target> targets = cell_targets(spec, pages[t], cells);
    std::vector<Job> jobs;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      for (int l = 0; l < spec.loads_per_cell; ++l) {
        jobs.push_back(Job{static_cast<int>(c), l});
      }
    }
    alloc::set_counting(true);
    const std::vector<LoadRecord> replayed = records(run_jobs(targets, jobs, pool, true));
    replay_matches = replay_matches && plain_report.cells.size() == cells.size();
    for (std::size_t c = 0; replay_matches && c < cells.size(); ++c) {
      std::vector<double> plts;
      std::size_t failed = 0;
      for (const LoadRecord& rec : replayed) {
        if (rec.target == static_cast<int>(c)) {
          if (rec.error.empty()) {
            plts.push_back(to_ms(rec.plt_us));
          }
          failed += rec.ok == 0 ? 1 : 0;
        }
      }
      replay_matches = plain_report.cells[c].plt_ms.values() == plts &&
                       plain_report.cells[c].failed_loads == failed;
    }
    loads.insert(loads.end(), replayed.begin(), replayed.end());

    if (t == 0) {
      // The same first loads on one worker must count exactly the same
      // work; and the obs layers' cost over a traced first load of every
      // cell.
      const std::vector<Job> prefix(jobs.begin(), jobs.begin() + kWorkerCheckLoads);
      const std::vector<LoadRecord> serial = records(run_jobs(targets, prefix, single, true));
      for (std::size_t i = 0; i < serial.size(); ++i) {
        same_workers = same_workers && serial[i].same_counts(replayed[i]);
      }
      std::vector<Job> first_loads;
      for (std::size_t c = 0; c < cells.size(); ++c) {
        first_loads.push_back(Job{static_cast<int>(c), 0});
      }
      std::vector<LoadRun> traced = run_jobs(targets, first_loads, pool, true, true);
      for (std::size_t c = 0; c < cells.size(); ++c) {
        std::vector<obs::LoadTrace> traces;
        traces.push_back(obs::LoadTrace{0, std::move(traced[c].trace)});
        obs_spans.add_cell(obs::TraceMeta{spec.name, cells[c].label(),
                                          cells[c].index, cells[c].cell_seed},
                           traces);
      }
    }
    alloc::set_counting(false);
  }

  std::vector<const Site*> sites;
  for (const Site& page : pages) {
    sites.push_back(&page);
  }
  std::uint64_t misses = 0;
  const double match_ns = time_matcher(sites, misses);

  out.doc.add("trials", json_array(runs, raw_json))
      .add("plain_trials", json_array(plain_runs, raw_json))
      .add("loads", json_array(loads, load_json));
  add_setup_layers(args, setup, pages.front(), out);
  out.layers.add("match_ns", match_ns)
      .add("obs", obs_spans.json())
      .add("plain_run_s", plain_run_s)
      .add("report_ms", report_ms);
  out.checks.add("exported_csv_parses", check(csv_parses && obs_spans.csv_parses))
      .add("counts_same_on_1_and_3_workers", check(same_workers))
      .add("replay_matches_engine", check(replay_matches))
      .add("matcher_finds_every_request", check(misses == 0))
      .add("report_written", check(written));
}

// --- self-test --------------------------------------------------------------------

int self_test() {
  int failures = 0;
  const auto expect = [&failures](bool ok, const std::string& what) {
    if (!ok) {
      std::cerr << "self-test FAILED: " << what << "\n";
      ++failures;
    }
  };
  // The corpus shape is the same for every seed; only content seeds move.
  const auto a = alexa_site_specs(1, 100);
  const auto b = alexa_site_specs(2, 100);
  bool same_shape = a.size() == 100 && b.size() == 100;
  for (std::size_t i = 0; same_shape && i < a.size(); ++i) {
    same_shape = a[i].server_count == b[i].server_count &&
                 a[i].object_count == b[i].object_count &&
                 a[i].size_scale == b[i].size_scale && a[i].seed != b[i].seed;
  }
  expect(same_shape, "corpus shape independent of the seed");
  int singles = 0;
  for (const auto& spec : a) {
    singles += spec.server_count == 1 ? 1 : 0;
  }
  expect(singles == 1, "one single-origin site per 100");

  // The load list is a function of the arguments alone, and comes back
  // through a pool of any size in the same order.
  for (const std::string workload : {"table1_replay", "alexa_bare"}) {
    Args args;
    args.workload = workload;
    args.seed = 7;
    args.seconds = 10;
    const std::vector<Job> jobs = make_jobs(args);
    const auto keys = [&jobs](core::ParallelRunner& pool) {
      return pool.map(static_cast<int>(jobs.size()), [&jobs](int i) {
        const Job& job = jobs[static_cast<std::size_t>(i)];
        return std::make_pair(job.target, job.load_index);
      });
    };
    core::ParallelRunner one{1};
    core::ParallelRunner three{kWorkers};
    const auto serial = keys(one);
    expect(!jobs.empty() && serial == keys(three) &&
               make_jobs(args).size() == jobs.size(),
           workload + ": load list identical at 1 and 3 workers");
    if (workload == "alexa_bare") {
      std::vector<int> per_site(kAlexaSites, 0);
      for (const Job& job : jobs) {
        ++per_site[static_cast<std::size_t>(job.target)];
      }
      expect(std::all_of(per_site.begin(), per_site.end(),
                         [&](int n) { return n == per_site.front(); }),
             "alexa_bare loads every site equally often");
    }
  }
  std::cout << (failures == 0 ? "self-test ok\n" : "self-test failed\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc == 2 && std::string{argv[1]} == "--self-test") {
      return self_test();
    }
    const Args args = parse_args(argc, argv);
    Output out;
    out.doc.add("workload", quote(args.workload))
        .add("seed", static_cast<double>(args.seed))
        .add("workers", kWorkers);
    fs::create_directories(args.scratch);
    if (args.workload == "table1_replay" || args.workload == "alexa_bare") {
      run_replay_workload(args, out);
    } else if (args.workload == "experiment_observed") {
      run_observed_workload(args, out);
    } else {
      throw std::invalid_argument{"unknown workload " + args.workload};
    }
    write_output(args, out);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "replay_bench: " << e.what() << "\n";
    return 1;
  }
}
