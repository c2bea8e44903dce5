#include "experiment/runner.hpp"

#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/sessions.hpp"
#include "experiment/checkpoint.hpp"
#include "fleet/session_mux.hpp"
#include "journal/journal.hpp"
#include "net/bulk_probe.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"

namespace mahimahi::experiment {
namespace {

/// Work unit: one page load of one cell, or one transport probe.
struct Task {
  std::size_t cell_pos{0};  // position in the sharded cell list
  int load_index{0};
  bool is_probe{false};
};

core::SessionConfig cell_session_config(const Cell& cell,
                                        const MaterializedCell& materialized,
                                        Microseconds deadline) {
  core::SessionConfig config;
  config.seed = cell.cell_seed;
  config.shells = materialized.shells;
  config.browser.protocol = cell.protocol;
  config.deadline = deadline;
  if (cell.cc.fleet.size() == 1) {
    config.congestion_control = cell.cc.fleet.front();
  } else {
    config.cc_fleet = cell.cc.fleet;
  }
  config.fault = cell.fault.fault;
  return config;
}

replay::OriginServerSet::Options cell_origin_options(const Cell& cell) {
  replay::OriginServerSet::Options options;
  options.multiplexed = cell.protocol == web::AppProtocol::kMultiplexed;
  return options;
}

net::MultiBulkFlowSpec cell_probe_spec(const Cell& cell,
                                       const MaterializedCell& materialized,
                                       Microseconds duration) {
  net::MultiBulkFlowSpec probe;
  probe.controllers = cell.cc.fleet;
  probe.duration = duration;
  probe.queue = cell.queue.queue;
  probe.one_way_delay = materialized.total_one_way_delay;
  probe.loss = materialized.loss;
  // The probe's random streams (loss coin, AQM drop coin) must differ per
  // cell but never per thread.
  probe.loss_seed = cell.cell_seed ^ 0x1055;
  probe.queue.pie_seed = cell.cell_seed ^ 0xC37;
  if (materialized.uplink != nullptr) {
    probe.uplink_trace = materialized.uplink;
    probe.downlink_trace = materialized.downlink;
  } else {
    // No link layer: an effectively-unshaped bottleneck so the probe
    // still reports shares (the queue axis is inert without a link).
    probe.link_mbps = 1000.0;
  }
  return probe;
}

/// Backoff before retry `attempt` (1-based: the attempt that just failed):
/// capped exponential with jitter seeded from (cell seed, load, attempt) —
/// the delays are deterministic even though they burn wall-clock, so retry
/// timing never becomes a hidden source of scheduling nondeterminism.
std::chrono::milliseconds retry_backoff(const Cell& cell, const Task& task,
                                        std::uint32_t attempt) {
  const util::Rng root{cell.cell_seed};
  const std::uint64_t bits =
      root.fork("task-retry-" + std::to_string(task.load_index) + "-" +
                (task.is_probe ? "p" : "l") + "-" + std::to_string(attempt))
          .next();
  // uniform [0.5, 1.5) from the top 53 bits
  const double jitter =
      0.5 + static_cast<double>(bits >> 11) / 9007199254740992.0;
  const std::uint32_t shift = attempt > 6 ? 6 : attempt - 1;
  const double base_ms = 100.0 * static_cast<double>(1U << shift);
  return std::chrono::milliseconds{
      static_cast<long long>(base_ms * jitter)};
}

/// The journal side-channel of one run: the open writer plus the results
/// replayed from a previous attempt, keyed by global task identity.
struct JournalState {
  std::unique_ptr<journal::Writer> writer;
  std::map<TaskKey, TaskResult> replayed;
};

JournalState open_journal(const ExperimentSpec& spec,
                          const std::vector<Cell>& matrix, int loads,
                          bool tracing, bool metrics,
                          const RunOptions& options) {
  JournalState state;
  if (options.journal_dir.empty()) {
    if (options.resume) {
      throw std::invalid_argument{
          "experiment: --resume requires a journal directory"};
    }
    return state;
  }
  std::filesystem::create_directories(options.journal_dir);
  const journal::Manifest manifest =
      build_manifest(spec, matrix, loads, options.transport_probes, tracing,
                     metrics, options.spec_fingerprint);
  std::uint64_t truncate_to = 0;
  if (options.resume) {
    const journal::Manifest existing =
        journal::read_manifest(options.journal_dir);
    const std::string mismatch = manifest.first_mismatch(existing);
    if (!mismatch.empty()) {
      throw std::invalid_argument{
          "journal: cannot resume from " + options.journal_dir +
          ": manifest field '" + mismatch + "' does not match this run "
          "(journal has '" + existing.get(mismatch) + "', this run is '" +
          manifest.get(mismatch) +
          "') — the journal belongs to a different spec, options or build; "
          "rerun without --resume to start over"};
    }
    journal::ReadResult read = journal::read_journal_file(
        journal::Writer::journal_path(options.journal_dir));
    if (read.torn_tail) {
      MAHI_WARN("journal") << "discarding torn tail after "
                           << read.records.size() << " valid record(s) in "
                           << options.journal_dir
                           << " (the record being written at the crash)";
    }
    for (const std::string& record : read.records) {
      auto decoded = decode_task_record(record);
      if (!decoded.has_value()) {
        MAHI_WARN("journal") << "skipping one undecodable record in "
                             << options.journal_dir;
        continue;
      }
      state.replayed[decoded->first] = std::move(decoded->second);
    }
    truncate_to = read.valid_bytes;
  } else {
    // Fresh run: pin this run's identity, then start the log over (a
    // leftover journal.bin from an earlier run is truncated away).
    journal::write_manifest(options.journal_dir, manifest);
  }
  state.writer =
      std::make_unique<journal::Writer>(options.journal_dir, truncate_to);
  return state;
}

}  // namespace

Report run_experiment(const ExperimentSpec& spec, const RunOptions& options) {
  if (options.shard_count < 1 || options.shard_index < 0 ||
      options.shard_index >= options.shard_count) {
    throw std::invalid_argument{
        "experiment shard must satisfy 0 <= index < count"};
  }
  core::ParallelRunner& pool =
      options.runner != nullptr ? *options.runner
                                : core::ParallelRunner::shared();
  const int loads = options.loads_override > 0 ? options.loads_override
                                               : spec.loads_per_cell;

  const std::vector<Cell> matrix = expand_matrix(spec);
  std::vector<Cell> cells;
  for (const Cell& cell : matrix) {
    if (cell.index % options.shard_count == options.shard_index) {
      cells.push_back(cell);
    }
  }

  // Metrics derive from per-cell trace buffers, so asking for metrics
  // turns tracing on internally even when no artifacts will be exported.
  const bool tracing = !options.trace_dir.empty() || options.metrics;
  JournalState journal_state =
      open_journal(spec, matrix, loads, tracing, options.metrics, options);

  // --- record each referenced site once (they are shared, read-only) ----
  // Distinct site labels in first-appearance order; recording seeds fork
  // from (spec.seed, label), so the corpus is independent of the axis
  // order and of which shard runs.
  std::vector<const SiteAxis*> distinct_sites;
  std::map<std::string, std::size_t> site_pos;
  for (const Cell& cell : cells) {
    if (site_pos.emplace(cell.site.label, distinct_sites.size()).second) {
      distinct_sites.push_back(&cell.site);
    }
  }
  struct RecordedSite {
    corpus::GeneratedSite site;
    record::RecordStore store;
  };
  const util::Rng seed_root{spec.seed};
  const std::vector<RecordedSite> recorded = [&] {
    MAHI_PROFILE("record");
    return pool.map(
        static_cast<int>(distinct_sites.size()), [&](int i) {
          const SiteAxis& axis = *distinct_sites[static_cast<std::size_t>(i)];
          RecordedSite entry{corpus::generate_site(axis.site),
                             record::RecordStore{}};
          core::SessionConfig config;
          config.seed = seed_root.fork("record-" + axis.label).next();
          core::RecordSession session{entry.site, corpus::LiveWebConfig{},
                                      config};
          entry.store = session.record();
          return entry;
        });
  }();

  // Materialize each cell once (traces are immutable and shared): the
  // fan-out below reads these concurrently but never mutates them.
  std::vector<MaterializedCell> materialized;
  materialized.reserve(cells.size());
  for (const Cell& cell : cells) {
    materialized.push_back(materialize_cell(cell));
  }

  // --- flatten the work: every load and probe is one independent task ---
  std::vector<Task> tasks;
  tasks.reserve(cells.size() * (static_cast<std::size_t>(loads) + 1));
  for (std::size_t pos = 0; pos < cells.size(); ++pos) {
    for (int load = 0; load < loads; ++load) {
      tasks.push_back(Task{pos, load, false});
    }
    if (options.transport_probes) {
      tasks.push_back(Task{pos, 0, true});
    }
  }

  // Progress accounting (observation only — counts, never results). The
  // per-cell countdown makes cells_done exact under out-of-order task
  // completion across the pool.
  const int tasks_total = static_cast<int>(tasks.size());
  const int cells_total = static_cast<int>(cells.size());
  std::atomic<int> tasks_done{0};
  std::atomic<int> cells_done{0};
  std::vector<std::atomic<int>> cell_remaining(cells.size());
  for (std::size_t pos = 0; pos < cells.size(); ++pos) {
    cell_remaining[pos].store(loads + (options.transport_probes ? 1 : 0),
                              std::memory_order_relaxed);
  }

  const int max_attempts = 1 + spec.task_retries;
  std::vector<TaskResult> outcomes = pool.map(
      static_cast<int>(tasks.size()), [&](int task_index) {
        const Task& task = tasks[static_cast<std::size_t>(task_index)];
        const Cell& cell = cells[task.cell_pos];
        const TaskKey key{cell.index, task.is_probe ? 0 : task.load_index,
                          task.is_probe};
        const auto progress = [&] {
          if (!options.on_progress) {
            return;
          }
          const int done =
              tasks_done.fetch_add(1, std::memory_order_relaxed) + 1;
          if (cell_remaining[task.cell_pos].fetch_sub(
                  1, std::memory_order_relaxed) == 1) {
            cells_done.fetch_add(1, std::memory_order_relaxed);
          }
          options.on_progress(done, tasks_total,
                              cells_done.load(std::memory_order_relaxed),
                              cells_total);
        };
        // Resume: a journaled result satisfies the task without running
        // anything — the copy lands in the same global-index slot the live
        // run would have filled, so the merge below cannot tell the
        // difference.
        const auto it = journal_state.replayed.find(key);
        if (it != journal_state.replayed.end()) {
          progress();
          return it->second;
        }
        TaskResult outcome;
        // Graceful cancellation: stop admitting work. Tasks already past
        // this check drain normally; this one reports itself skipped and
        // the merge marks the report interrupted.
        if (options.cancel != nullptr &&
            options.cancel->load(std::memory_order_relaxed)) {
          outcome.skipped = 1;
          progress();
          return outcome;
        }
        const MaterializedCell& cell_net = materialized[task.cell_pos];
        for (std::uint32_t attempt = 1;; ++attempt) {
          outcome = TaskResult{};
          outcome.attempts = attempt;
          // One Tracer per attempt (the obs determinism contract): a load
          // task is one deterministic simulation, so its buffer depends
          // only on (cell seed, load index) — never on threads, sharding
          // or which attempt finally succeeded.
          obs::Tracer tracer;
          obs::Tracer* task_tracer =
              tracing && !task.is_probe ? &tracer : nullptr;
          try {
            if (options.transient_fault &&
                options.transient_fault(cell.index, task.load_index,
                                        task.is_probe, attempt)) {
              throw std::runtime_error{
                  "transient: injected worker fault (test hook)"};
            }
            if (task.is_probe) {
              MAHI_PROFILE("probe");
              outcome.probe = net::run_multi_bulk_flow(
                  cell_probe_spec(cell, cell_net, spec.probe_duration));
              break;
            }
            MAHI_PROFILE("replay");
            const RecordedSite& entry =
                recorded[site_pos.at(cell.site.label)];
            if (cell.fleet.sessions > 1) {
              // Offered-load cell: one load = one shared-world fleet,
              // every user contending in the same namespace. The whole
              // fleet is one indivisible simulation under one task, seeded
              // from (cell_seed, load index) — deterministic at any thread
              // count, like every other task. The watchdog deadline covers
              // the whole mux.
              fleet::MuxConfig mux_config;
              mux_config.fleet_seed =
                  util::Rng{cell.cell_seed}
                      .fork("fleet-load-" + std::to_string(task.load_index))
                      .next();
              mux_config.stagger = cell.fleet.stagger;
              mux_config.session =
                  cell_session_config(cell, cell_net, spec.cell_deadline);
              // A shared-world fleet is one indivisible simulation: the
              // whole mux traces into this task's one buffer, sessions
              // told apart by their fleet index (shared infra = -1).
              mux_config.session.tracer = task_tracer;
              mux_config.origin = cell_origin_options(cell);
              fleet::SessionMux mux{entry.store, entry.site.primary_url(),
                                    mux_config, cell.fleet.sessions};
              for (const fleet::SessionOutcome& session : mux.run()) {
                outcome.plts.push_back(session.plt_ms);
                outcome.oks.push_back(session.success);
                outcome.degraded.push_back(session.degraded_plt_ms);
                outcome.failed_objects.push_back(session.objects_failed);
                outcome.retries.push_back(session.retries);
                outcome.timeouts.push_back(session.timeouts);
              }
              outcome.trace = tracer.take();
              break;
            }
            core::SessionConfig session_config =
                cell_session_config(cell, cell_net, spec.cell_deadline);
            session_config.tracer = task_tracer;
            const core::ReplaySession session{entry.store, session_config,
                                              cell_origin_options(cell)};
            const web::PageLoadResult result =
                session.load_once(entry.site.primary_url(), task.load_index);
            outcome.trace = tracer.take();
            outcome.plts.push_back(to_ms(result.page_load_time));
            outcome.oks.push_back(result.success ? 1 : 0);
            outcome.degraded.push_back(to_ms(result.degraded_page_load_time));
            outcome.failed_objects.push_back(
                static_cast<std::uint32_t>(result.objects_failed));
            outcome.retries.push_back(
                static_cast<std::uint32_t>(result.retries));
            outcome.timeouts.push_back(
                static_cast<std::uint32_t>(result.timeouts));
            break;
          } catch (const core::WatchdogError& e) {
            // A watchdog trip is deterministic — the simulation ran out of
            // virtual time, and rerunning would reproduce it bit-for-bit —
            // so it is final, never retried. The partial trace (everything
            // up to the deadline, ending in the kWatchdogExpired event) is
            // kept: it is the diagnosis.
            outcome.error = e.what();
            outcome.trace = tracer.take();
            break;
          } catch (const std::exception& e) {
            // Any other failure becomes a failed row. With task-retries
            // configured it is first retried with identical inputs, so a
            // transient worker hiccup heals into the exact bytes an
            // untroubled run produces; a deterministic failure just fails
            // the same way again and the last error stands.
            outcome.error = e.what();
            if (attempt >= static_cast<std::uint32_t>(max_attempts)) {
              break;
            }
            std::this_thread::sleep_for(retry_backoff(cell, task, attempt));
          }
        }
        // Durability point: the record is fsync'd before the task counts
        // as done — a SIGKILL after this line cannot lose the result.
        if (journal_state.writer != nullptr) {
          MAHI_PROFILE("journal");
          journal_state.writer->append(encode_task_record(key, outcome));
        }
        progress();
        return outcome;
      });

  // --- assemble, in cell order (failure logs after the merge, so even
  // diagnostics are deterministic) ---------------------------------------
  Report report;
  report.name = spec.name;
  report.seed = spec.seed;
  report.loads_per_cell = loads;
  report.total_cells = static_cast<int>(matrix.size());
  report.shard_index = options.shard_index;
  report.shard_count = options.shard_count;
  report.fault_axis = !spec.faults.empty();
  report.cells.resize(cells.size());
  for (std::size_t pos = 0; pos < cells.size(); ++pos) {
    const Cell& cell = cells[pos];
    CellResult& row = report.cells[pos];
    row.index = cell.index;
    row.site = cell.site.label;
    row.protocol =
        cell.protocol == web::AppProtocol::kMultiplexed ? "mux" : "http11";
    row.shell = cell.shell.label;
    row.queue = cell.queue.label;
    row.cc = cell.cc.label;
    row.fleet = cell.fleet.label;
    row.fleet_sessions = cell.fleet.sessions;
    row.fault = cell.fault.label;
    row.loads_expected = loads;
  }
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const Task& task = tasks[i];
    const TaskResult& outcome = outcomes[i];
    CellResult& row = report.cells[task.cell_pos];
    if (outcome.skipped != 0) {
      // Cancelled before it started: the report is partial. The journal
      // (when active) already holds every completed sibling, so --resume
      // picks up exactly here.
      report.interrupted = true;
      continue;
    }
    if (!task.is_probe) {
      ++row.loads_done;
    }
    if (!outcome.error.empty()) {
      // A torn task is one failed load (or a skipped probe) — recorded in
      // task order, which is load order, so error lists are deterministic.
      if (!task.is_probe) {
        ++row.failed_loads;
      }
      row.load_errors.push_back(
          (task.is_probe ? std::string{"probe: "}
                         : "load " + std::to_string(task.load_index) + ": ") +
          outcome.error);
      MAHI_WARN("experiment")
          << "cell " << row.index << " (" << cells[task.cell_pos].label()
          << ") task failed: " << outcome.error;
      continue;
    }
    if (task.is_probe) {
      row.probe_ran = true;
      row.queue_delay_p95_ms = outcome.probe.bottleneck.delay_p95_ms;
      row.jain_index = outcome.probe.jain_index;
      for (const auto& flow : outcome.probe.flows) {
        row.flows.push_back(FlowResult{flow.controller, flow.bytes_delivered,
                                       flow.throughput_bps, flow.share,
                                       flow.retransmissions});
      }
      continue;
    }
    for (std::size_t s = 0; s < outcome.plts.size(); ++s) {
      row.plt_ms.add(outcome.plts[s]);
      row.degraded_plt_ms.add(outcome.degraded[s]);
      row.objects_failed += outcome.failed_objects[s];
      row.retries += outcome.retries[s];
      row.timeouts += outcome.timeouts[s];
      if (outcome.oks[s] == 0) {
        ++row.failed_loads;
        MAHI_WARN("experiment")
            << "cell " << row.index << " (" << cells[task.cell_pos].label()
            << ") load " << task.load_index << " session " << s
            << " had failures";
      }
    }
  }

  // --- runner-lifecycle observability: one events.csv in the journal dir,
  // written post-merge in task (= load) order so its bytes are as
  // deterministic as the report's. These events stay OUT of the per-cell
  // trace artifacts on purpose: a resumed run replays instead of loading,
  // and injecting replay markers into cell traces would break the
  // byte-identity guarantee. (Watchdog events are different — they happen
  // inside the simulation and land in the cell's own trace.)
  if (journal_state.writer != nullptr) {
    obs::TraceBuffer events;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const Task& task = tasks[i];
      const TaskResult& outcome = outcomes[i];
      const Cell& cell = cells[task.cell_pos];
      const TaskKey key{cell.index, task.is_probe ? 0 : task.load_index,
                        task.is_probe};
      const std::uint64_t cell_index =
          static_cast<std::uint64_t>(cell.index);
      const obs::EventKind kind =
          outcome.skipped != 0  ? obs::EventKind::kTaskCancelled
          : outcome.replayed != 0 ? obs::EventKind::kJournalReplay
                                  : obs::EventKind::kJournalAppend;
      events.events.push_back(obs::TraceEvent{
          0, obs::Layer::kRunner, kind, -1, 0, cell_index, 0, key.label()});
      if (outcome.attempts > 1) {
        events.events.push_back(obs::TraceEvent{
            0, obs::Layer::kRunner, obs::EventKind::kTaskRetry, -1, 0,
            outcome.attempts, 0, key.label()});
      }
      if (outcome.error.rfind("watchdog:", 0) == 0) {
        events.events.push_back(obs::TraceEvent{
            spec.cell_deadline, obs::Layer::kRunner,
            obs::EventKind::kWatchdogExpired, -1, 0, cell_index,
            to_ms(spec.cell_deadline), key.label()});
      }
    }
    const obs::TraceMeta meta{spec.name, "runner", -1, spec.seed};
    std::vector<obs::LoadTrace> runner_trace;
    runner_trace.push_back(obs::LoadTrace{0, std::move(events)});
    Report::write_file(options.journal_dir + "/events.csv",
                       obs::to_csv(meta, runner_trace));
  }

  if (tracing) {
    // Per-cell traces, merged by global load index — the same ordering
    // contract as the report rows, so both the exported bytes and the
    // derived metrics are identical at any thread count and across shard
    // splits (and across --resume, which replays the same buffers).
    std::vector<std::vector<obs::LoadTrace>> cell_traces(cells.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const Task& task = tasks[i];
      if (task.is_probe) {
        continue;
      }
      cell_traces[task.cell_pos].push_back(
          obs::LoadTrace{task.load_index, std::move(outcomes[i].trace)});
    }
    if (options.metrics) {
      MAHI_PROFILE("metrics");
      for (std::size_t pos = 0; pos < cells.size(); ++pos) {
        report.cells[pos].metrics_json =
            obs::derive_cell_metrics(cell_traces[pos]).to_json_inline();
      }
    }
    if (!options.trace_dir.empty()) {
      MAHI_PROFILE("export");
      std::filesystem::create_directories(options.trace_dir);
      for (std::size_t pos = 0; pos < cells.size(); ++pos) {
        const Cell& cell = cells[pos];
        const obs::TraceMeta meta{spec.name, cell.label(), cell.index,
                                  cell.cell_seed};
        const std::string base =
            options.trace_dir + "/cell" + std::to_string(cell.index);
        Report::write_file(base + ".trace.json",
                           obs::to_chrome_trace(meta, cell_traces[pos]));
        Report::write_file(base + ".har", obs::to_har(meta, cell_traces[pos]));
        Report::write_file(base + ".csv", obs::to_csv(meta, cell_traces[pos]));
      }
    }
  }
  return report;
}

}  // namespace mahimahi::experiment
