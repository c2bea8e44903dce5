#include "experiment/report.hpp"

#include "util/atomic_file.hpp"
#include "util/strings.hpp"

namespace mahimahi::experiment {
namespace {

// Every double serializes at fixed precision (util::format_fixed): the
// determinism backbone of the report — byte-identical samples serialize
// to byte-identical text.
void append_summary_fields(std::string& out, const util::Samples& plt) {
  out += "\"plt_median_ms\": " +
         util::format_fixed(plt.empty() ? 0 : plt.median(), 6);
  out += ", \"plt_mean_ms\": " +
         util::format_fixed(plt.empty() ? 0 : plt.mean(), 6);
  out += ", \"plt_p95_ms\": " +
         util::format_fixed(plt.empty() ? 0 : plt.percentile(95), 6);
  out += ", \"plt_min_ms\": " +
         util::format_fixed(plt.empty() ? 0 : plt.min(), 6);
  out += ", \"plt_max_ms\": " +
         util::format_fixed(plt.empty() ? 0 : plt.max(), 6);
}

}  // namespace

std::string Report::to_json() const {
  std::string out;
  out += "{\n";
  out += "  \"schema\": \"mahimahi-experiment-v1\",\n";
  out += "  \"name\": \"" + util::json_escape(name) + "\",\n";
  out += "  \"seed\": " + std::to_string(seed) + ",\n";
  out += "  \"loads_per_cell\": " + std::to_string(loads_per_cell) + ",\n";
  out += "  \"total_cells\": " + std::to_string(total_cells) + ",\n";
  out += "  \"shard\": \"" + std::to_string(shard_index) + "/" +
         std::to_string(shard_count) + "\",\n";
  if (interrupted) {
    out += "  \"interrupted\": true,\n";
  }
  out += "  \"cells\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& cell = cells[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"index\": " + std::to_string(cell.index);
    out += ", \"site\": \"" + util::json_escape(cell.site) + "\"";
    out += ", \"protocol\": \"" + util::json_escape(cell.protocol) + "\"";
    out += ", \"shell\": \"" + util::json_escape(cell.shell) + "\"";
    out += ", \"queue\": \"" + util::json_escape(cell.queue) + "\"";
    out += ", \"cc\": \"" + util::json_escape(cell.cc) + "\"";
    out += ", \"fleet\": \"" + util::json_escape(cell.fleet) + "\"";
    out += ", \"fleet_sessions\": " + std::to_string(cell.fleet_sessions);
    if (fault_axis) {
      out += ", \"fault\": \"" + util::json_escape(cell.fault) + "\"";
    }
    if (interrupted) {
      out += ", \"loads_done\": " + std::to_string(cell.loads_done);
      out += ", \"loads_expected\": " + std::to_string(cell.loads_expected);
    }
    out += ", \"failed_loads\": " + std::to_string(cell.failed_loads);
    out += ", ";
    append_summary_fields(out, cell.plt_ms);
    out += ", \"plt_ms\": [";
    const auto& values = cell.plt_ms.values();
    for (std::size_t j = 0; j < values.size(); ++j) {
      out += j == 0 ? "" : ", ";
      out += util::format_fixed(values[j], 6);
    }
    out += "]";
    if (fault_axis) {
      out += ", \"objects_failed\": " + std::to_string(cell.objects_failed);
      out += ", \"retries\": " + std::to_string(cell.retries);
      out += ", \"timeouts\": " + std::to_string(cell.timeouts);
      const util::Samples& deg = cell.degraded_plt_ms;
      out += ", \"degraded_plt_median_ms\": " +
             util::format_fixed(deg.empty() ? 0 : deg.median(), 6);
      out += ", \"degraded_plt_ms\": [";
      const auto& degraded = deg.values();
      for (std::size_t j = 0; j < degraded.size(); ++j) {
        out += j == 0 ? "" : ", ";
        out += util::format_fixed(degraded[j], 6);
      }
      out += "]";
    }
    // Worker-task failures surface in any report (fault axis or not);
    // healthy runs have none, so the key's absence keeps them byte-stable.
    if (!cell.load_errors.empty()) {
      out += ", \"load_errors\": [";
      for (std::size_t j = 0; j < cell.load_errors.size(); ++j) {
        out += j == 0 ? "" : ", ";
        out.append(1, '"')
            .append(util::json_escape(cell.load_errors[j]))
            .append(1, '"');
      }
      out += "]";
    }
    if (cell.probe_ran) {
      out += ", \"probe\": {\"queue_delay_p95_ms\": " +
             util::format_fixed(cell.queue_delay_p95_ms, 3);
      out += ", \"jain_index\": " + util::format_fixed(cell.jain_index, 6);
      out += ", \"flows\": [";
      for (std::size_t j = 0; j < cell.flows.size(); ++j) {
        const FlowResult& flow = cell.flows[j];
        out += j == 0 ? "" : ", ";
        out += "{\"cc\": \"" + util::json_escape(flow.controller) + "\"";
        out += ", \"bytes\": " + std::to_string(flow.bytes_delivered);
        out += ", \"throughput_bps\": " +
               util::format_fixed(flow.throughput_bps, 1);
        out += ", \"share\": " + util::format_fixed(flow.share, 6);
        out += ", \"retransmissions\": " +
               std::to_string(flow.retransmissions) + "}";
      }
      out += "]}";
    }
    // Derived metrics ride along only when requested (key absent
    // otherwise, like load_errors): the snapshot is already deterministic
    // JSON, so the report stays byte-stable under the same contract.
    if (!cell.metrics_json.empty()) {
      out += ", \"metrics\": " + cell.metrics_json;
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string Report::to_csv() const {
  std::string out =
      "cell,site,protocol,shell,queue,cc,fleet,fleet_sessions,loads,"
      "failed_loads,plt_median_ms,plt_mean_ms,plt_p95_ms,plt_min_ms,"
      "plt_max_ms,queue_delay_p95_ms,jain_index,flow_shares";
  if (fault_axis) {
    out += ",fault,objects_failed,retries,timeouts,degraded_plt_median_ms";
  }
  out += "\n";
  for (const CellResult& cell : cells) {
    out += std::to_string(cell.index) + ",";
    out += cell.site + "," + cell.protocol + "," + cell.shell + "," +
           cell.queue + "," + cell.cc + "," + cell.fleet + "," +
           std::to_string(cell.fleet_sessions) + ",";
    out += std::to_string(cell.plt_ms.size()) + ",";
    out += std::to_string(cell.failed_loads) + ",";
    const util::Samples& plt = cell.plt_ms;
    out += util::format_fixed(plt.empty() ? 0 : plt.median(), 6) + ",";
    out += util::format_fixed(plt.empty() ? 0 : plt.mean(), 6) + ",";
    out += util::format_fixed(plt.empty() ? 0 : plt.percentile(95), 6) + ",";
    out += util::format_fixed(plt.empty() ? 0 : plt.min(), 6) + ",";
    out += util::format_fixed(plt.empty() ? 0 : plt.max(), 6) + ",";
    if (cell.probe_ran) {
      out += util::format_fixed(cell.queue_delay_p95_ms, 3) + ",";
      out += util::format_fixed(cell.jain_index, 6) + ",";
      std::string shares;
      for (const FlowResult& flow : cell.flows) {
        shares += shares.empty() ? "" : "|";
        shares += flow.controller + ":" + util::format_fixed(flow.share, 4);
      }
      out += shares;
    } else {
      out += ",,";
    }
    if (fault_axis) {
      const util::Samples& deg = cell.degraded_plt_ms;
      out += "," + cell.fault;
      out += "," + std::to_string(cell.objects_failed);
      out += "," + std::to_string(cell.retries);
      out += "," + std::to_string(cell.timeouts);
      out += "," + util::format_fixed(deg.empty() ? 0 : deg.median(), 6);
    }
    out += "\n";
  }
  return out;
}

std::string Report::to_bench_json() const {
  std::string out;
  out += "{\n  \"schema\": \"mahimahi-bench-v1\",\n  \"benchmarks\": [";
  bool first = true;
  const auto add = [&](const std::string& row_name, double ns_per_op) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": \"" + util::json_escape(row_name) +
           "\", \"ns_per_op\": " + util::format_fixed(ns_per_op, 1) +
           ", \"items_per_second\": 0, \"bytes_per_second\": 0}";
  };
  for (const CellResult& cell : cells) {
    std::string label = cell.site + "/" + cell.protocol + "/" + cell.shell +
                        "/" + cell.queue + "/" + cell.cc + "/" + cell.fleet;
    if (fault_axis && cell.fault != "none") {
      label += "/" + cell.fault;
    }
    if (!cell.plt_ms.empty()) {
      add("exp_plt_median/" + label, cell.plt_ms.median() * 1e6);
    }
    if (fault_axis && !cell.degraded_plt_ms.empty()) {
      add("exp_degraded_plt/" + label, cell.degraded_plt_ms.median() * 1e6);
    }
    if (cell.probe_ran) {
      add("exp_queue_p95_ms/" + label, cell.queue_delay_p95_ms * 1e6);
      add("exp_jain/" + label, cell.jain_index * 1e9);
    }
  }
  out += "\n  ]\n}\n";
  return out;
}

bool Report::write_file(const std::string& path, const std::string& content) {
  return util::atomic_write_file(path, content);
}

}  // namespace mahimahi::experiment
