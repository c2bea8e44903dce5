#include "obs/export.hpp"

#include <cinttypes>
#include <cstdio>

#include "util/strings.hpp"

namespace mahimahi::obs {
namespace {

std::string fmt_i64(std::int64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%" PRId64, value);
  return buffer;
}

std::string fmt_u64(std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%" PRIu64, value);
  return buffer;
}

// ---- Chrome trace ---------------------------------------------------------

// Thread lane for (session, layer): shared infrastructure (session -1)
// gets lanes 0..4, session s gets lanes (s+1)*8 + layer.
std::int64_t lane(std::int32_t session, Layer layer) {
  const auto layer_index = static_cast<std::int64_t>(layer);
  return (static_cast<std::int64_t>(session) + 1) * 8 + layer_index;
}

std::string lane_name(std::int32_t session, Layer layer) {
  std::string name;
  if (session < 0) {
    name = "shared";
  } else {
    name = "s";
    name += std::to_string(session);
  }
  name += ":";
  name += to_string(layer);
  return name;
}

void append_event_json(std::string& out, int pid, const TraceEvent& event) {
  const std::string tid = fmt_i64(lane(event.session, event.layer));
  const std::string ts = fmt_i64(event.at);
  switch (event.kind) {
    case EventKind::kEnqueue:
    case EventKind::kDequeue:
      // Queue depth as a counter track named after the queue.
      out += R"({"name":"queue )" + util::json_escape(event.label) +
             R"(","ph":"C","pid":)" + std::to_string(pid) + R"(,"tid":)" +
             tid + R"(,"ts":)" + ts + R"(,"args":{"packets":)" +
             fmt_u64(event.value) + R"(,"bytes":)" +
             util::format_fixed(event.metric, 0) + "}}";
      return;
    case EventKind::kTcpCwndSample:
      out += R"({"name":"cwnd flow )" + fmt_u64(event.flow) +
             R"(","ph":"C","pid":)" + std::to_string(pid) + R"(,"tid":)" +
             tid + R"(,"ts":)" + ts + R"(,"args":{"cwnd":)" +
             util::format_fixed(event.metric, 0) + R"(,"ssthresh":)" +
             fmt_u64(event.value) + "}}";
      return;
    case EventKind::kTcpRttSample:
      out += R"({"name":"srtt flow )" + fmt_u64(event.flow) +
             R"(","ph":"C","pid":)" + std::to_string(pid) + R"(,"tid":)" +
             tid + R"(,"ts":)" + ts + R"(,"args":{"srtt_ms":)" +
             util::format_fixed(event.metric, 3) + "}}";
      return;
    default:
      break;
  }
  // Everything else is an instant with the full payload in args.
  out += R"({"name":")" + std::string(to_string(event.kind)) +
         R"(","ph":"i","s":"t","pid":)" + std::to_string(pid) + R"(,"tid":)" +
         tid + R"(,"ts":)" + ts + R"(,"args":{"label":")" +
         util::json_escape(event.label) + R"(","flow":)" + fmt_u64(event.flow) +
         R"(,"value":)" + fmt_u64(event.value) + R"(,"metric":)" +
         util::format_fixed(event.metric, 3) + "}}";
}

void append_object_span(std::string& out, int pid, const ObjectRecord& o) {
  const Microseconds start = o.fetch_start >= 0 ? o.fetch_start : 0;
  const Microseconds end = o.complete >= 0 ? o.complete : start;
  out += R"({"name":")" + util::json_escape(o.url) +
         R"(","cat":"object","ph":"X")" + R"(,"pid":)" + std::to_string(pid) +
         R"(,"tid":)" + fmt_i64(lane(o.session, Layer::kBrowser)) +
         R"(,"ts":)" + fmt_i64(start) + R"(,"dur":)" + fmt_i64(end - start) +
         R"(,"args":{"kind":")" + util::json_escape(o.kind) + R"(","status":)" +
         std::to_string(o.status) + R"(,"bytes":)" + fmt_u64(o.bytes) +
         R"(,"attempts":)" + std::to_string(o.attempts) + R"(,"failed":)" +
         (o.failed ? "true" : "false") + R"(,"dns_start":)" +
         fmt_i64(o.dns_start) + R"(,"dns_done":)" + fmt_i64(o.dns_done) +
         R"(,"connect_done":)" + fmt_i64(o.connect_done) +
         R"(,"request_sent":)" + fmt_i64(o.request_sent) +
         R"(,"first_byte":)" + fmt_i64(o.first_byte) + R"(,"error":")" +
         util::json_escape(o.error) + R"("}})";
}

void append_page_span(std::string& out, int pid, const PageRecord& p) {
  out += R"({"name":"page )" + util::json_escape(p.url) +
         R"(","cat":"page","ph":"X","pid":)" + std::to_string(pid) +
         R"(,"tid":)" + fmt_i64(lane(p.session, Layer::kBrowser)) +
         R"(,"ts":)" + fmt_i64(p.started_at) + R"(,"dur":)" + fmt_i64(p.plt) +
         R"(,"args":{"success":)" + (p.success ? "true" : "false") +
         R"(,"degraded_plt_ms":)" +
         util::format_fixed(to_ms(p.degraded_plt), 3) + "}}";
}

// ---- HAR ------------------------------------------------------------------

// Deterministic fake epoch: virtual time 0 maps to this instant (the
// SIGCOMM '14 presentation week). Real wall time never enters a trace.
constexpr const char* kEpochPrefix = "2014-08-";
constexpr int kEpochDay = 17;

std::string iso_date(Microseconds at) {
  if (at < 0) {
    at = 0;
  }
  const std::int64_t total_ms = at / 1000;
  const std::int64_t ms = total_ms % 1000;
  const std::int64_t total_s = total_ms / 1000;
  const std::int64_t s = total_s % 60;
  const std::int64_t total_min = total_s / 60;
  const std::int64_t min = total_min % 60;
  const std::int64_t total_h = total_min / 60;
  const std::int64_t h = total_h % 24;
  const std::int64_t day = kEpochDay + total_h / 24;  // August has 31 days;
  // virtual loads never span two weeks, so no month rollover in practice.
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer),
                "%s%02" PRId64 "T%02" PRId64 ":%02" PRId64 ":%02" PRId64
                ".%03" PRId64 "Z",
                kEpochPrefix, day, h, min, s, ms);
  return buffer;
}

std::string har_page_id(int load_index, std::int32_t session) {
  return "load" + std::to_string(load_index) + ".s" + std::to_string(session);
}

// Phase duration in ms, or fallback when a boundary was never reached.
double span_ms(Microseconds from, Microseconds to, double fallback) {
  if (from < 0 || to < 0 || to < from) {
    return fallback;
  }
  return to_ms(to - from);
}

}  // namespace

std::string to_chrome_trace(const TraceMeta& meta,
                            const std::vector<LoadTrace>& loads) {
  std::string out;
  out.reserve(1 << 16);
  out += R"({"displayTimeUnit":"ms","otherData":{"experiment":")" +
         util::json_escape(meta.experiment) + R"(","cell":")" +
         util::json_escape(meta.cell_label) + R"(","cell_index":)" +
         std::to_string(meta.cell_index) + R"(,"cell_seed":)" +
         fmt_u64(meta.cell_seed) + R"(},"traceEvents":[)";
  bool first = true;
  const auto emit = [&](const std::string& event_json) {
    if (!first) {
      out += ",\n";
    }
    first = false;
    out += event_json;
  };
  for (const LoadTrace& load : loads) {
    const int pid = load.load_index;
    emit(R"({"name":"process_name","ph":"M","pid":)" + std::to_string(pid) +
         R"(,"args":{"name":"load )" + std::to_string(pid) + R"("}})");
    // Name each (session, layer) lane that actually carries events. An
    // ordered set keeps metadata order deterministic.
    std::map<std::int64_t, std::string> lanes;
    for (const TraceEvent& event : load.buffer.events) {
      lanes.emplace(lane(event.session, event.layer),
                    lane_name(event.session, event.layer));
    }
    for (const ObjectRecord& object : load.buffer.objects) {
      lanes.emplace(lane(object.session, Layer::kBrowser),
                    lane_name(object.session, Layer::kBrowser));
    }
    for (const PageRecord& page : load.buffer.pages) {
      lanes.emplace(lane(page.session, Layer::kBrowser),
                    lane_name(page.session, Layer::kBrowser));
    }
    for (const auto& [tid, name] : lanes) {
      emit(R"({"name":"thread_name","ph":"M","pid":)" + std::to_string(pid) +
           R"(,"tid":)" + fmt_i64(tid) + R"(,"args":{"name":")" +
           util::json_escape(name) + R"("}})");
    }
    for (const TraceEvent& event : load.buffer.events) {
      std::string line;
      append_event_json(line, pid, event);
      emit(line);
    }
    for (const ObjectRecord& object : load.buffer.objects) {
      std::string line;
      append_object_span(line, pid, object);
      emit(line);
    }
    for (const PageRecord& page : load.buffer.pages) {
      std::string line;
      append_page_span(line, pid, page);
      emit(line);
    }
  }
  out += "]}\n";
  return out;
}

std::string to_har(const TraceMeta& meta, const std::vector<LoadTrace>& loads) {
  std::string out;
  out.reserve(1 << 16);
  out += R"({"log":{"version":"1.2","creator":{"name":"mahimahi-obs",)" +
         std::string(R"("version":"1"},"comment":"experiment=)") +
         util::json_escape(meta.experiment) + " cell=" +
         std::to_string(meta.cell_index) + " label=" +
         util::json_escape(meta.cell_label) +
         " seed=" + fmt_u64(meta.cell_seed) + R"(","pages":[)";
  bool first = true;
  for (const LoadTrace& load : loads) {
    for (const PageRecord& page : load.buffer.pages) {
      if (!first) {
        out += ",\n";
      }
      first = false;
      out += R"({"startedDateTime":")" + iso_date(page.started_at) +
             R"(","id":")" + har_page_id(load.load_index, page.session) +
             R"(","title":")" + util::json_escape(page.url) +
             R"(","pageTimings":{"onContentLoad":-1,"onLoad":)" +
             util::format_fixed(to_ms(page.plt), 3) + R"(},"_success":)" +
             (page.success ? "true" : "false") + R"(,"_degraded_plt_ms":)" +
             util::format_fixed(to_ms(page.degraded_plt), 3) + "}";
    }
  }
  out += R"(],"entries":[)";
  first = true;
  for (const LoadTrace& load : loads) {
    for (const ObjectRecord& o : load.buffer.objects) {
      if (!first) {
        out += ",\n";
      }
      first = false;
      const Microseconds start = o.fetch_start >= 0 ? o.fetch_start : 0;
      const Microseconds end = o.complete >= 0 ? o.complete : start;
      const double total_ms = to_ms(end - start);
      const double dns_ms = span_ms(o.dns_start, o.dns_done, -1.0);
      // Connect counts from name resolution (or fetch start) to handshake
      // completion; blocked then covers handshake→request. A multiplexed
      // request queued pre-connect timestamps "sent" at queue time, so its
      // connect_done can exceed request_sent — that inversion falls back
      // to the pre-connect accounting (connect -1, whole gap blocked).
      double connect_ms = -1.0;
      double blocked_ms = span_ms(o.dns_done, o.request_sent, -1.0);
      if (o.connect_done >= 0 && o.connect_done <= o.request_sent) {
        const Microseconds connect_from =
            o.dns_done >= 0 ? o.dns_done : o.fetch_start;
        connect_ms = span_ms(connect_from, o.connect_done, -1.0);
        blocked_ms = span_ms(o.connect_done, o.request_sent, -1.0);
      }
      // wait = request to first response byte; receive = rest of the
      // body. Without a first-byte mark (multiplexed transports) the whole
      // response interval counts as wait and receive is 0.
      double wait_ms = 0;
      double receive_ms = 0;
      if (o.request_sent >= 0) {
        if (o.first_byte >= 0) {
          wait_ms = span_ms(o.request_sent, o.first_byte, 0.0);
          receive_ms = span_ms(o.first_byte, end, 0.0);
        } else {
          wait_ms = span_ms(o.request_sent, end, 0.0);
        }
      }
      out += R"({"pageref":")" + har_page_id(load.load_index, o.session) +
             R"(","startedDateTime":")" + iso_date(o.fetch_start) +
             R"(","time":)" + util::format_fixed(total_ms, 3) +
             R"(,"request":{"method":"GET","url":")" +
             util::json_escape(o.url) +
             R"(","httpVersion":"HTTP/1.1","cookies":[],"headers":[],)" +
             R"("queryString":[],"headersSize":-1,"bodySize":0},)" +
             R"("response":{"status":)" + std::to_string(o.status) +
             R"(,"statusText":"","httpVersion":"HTTP/1.1","cookies":[],)" +
             R"("headers":[],"content":{"size":)" + fmt_u64(o.bytes) +
             R"(,"mimeType":")" + util::json_escape(o.kind) +
             R"("},"redirectURL":"","headersSize":-1,"bodySize":)" +
             fmt_u64(o.bytes) + R"(},"cache":{},"timings":{"blocked":)" +
             util::format_fixed(blocked_ms, 3) + R"(,"dns":)" +
             util::format_fixed(dns_ms, 3) +
             R"(,"connect":)" + util::format_fixed(connect_ms, 3) +
             R"(,"ssl":-1,"send":0,"wait":)" + util::format_fixed(wait_ms, 3) +
             R"(,"receive":)" + util::format_fixed(receive_ms, 3) +
             R"(},"_attempts":)" +
             std::to_string(o.attempts) + R"(,"_failed":)" +
             (o.failed ? "true" : "false") + R"(,"_error":")" +
             util::json_escape(o.error) + R"("})";
    }
  }
  out += "]}}\n";
  return out;
}

std::string to_csv(const TraceMeta& meta, const std::vector<LoadTrace>& loads) {
  std::string out;
  out.reserve(1 << 16);
  const auto sanitize = [](std::string text) {
    for (char& c : text) {
      if (c == ',' || c == '\n' || c == '\r') {
        c = ';';
      }
    }
    return text;
  };
  out += "# mahimahi-obs-trace-v1 experiment=" + sanitize(meta.experiment) +
         " cell=" + std::to_string(meta.cell_index) + " label=" +
         sanitize(meta.cell_label) + " seed=" + fmt_u64(meta.cell_seed) + "\n";
  out += "load,session,t_us,layer,kind,flow,value,metric,label,detail\n";
  for (const LoadTrace& load : loads) {
    const std::string prefix = std::to_string(load.load_index) + ",";
    for (const TraceEvent& e : load.buffer.events) {
      out += prefix + std::to_string(e.session) + "," + fmt_i64(e.at) + "," +
             std::string(to_string(e.layer)) + "," +
             std::string(to_string(e.kind)) + "," + fmt_u64(e.flow) + "," +
             fmt_u64(e.value) + "," + util::format_fixed(e.metric, 6) + "," +
             sanitize(e.label) + ",\n";
    }
    for (const ObjectRecord& o : load.buffer.objects) {
      const Microseconds start = o.fetch_start >= 0 ? o.fetch_start : 0;
      const Microseconds end = o.complete >= 0 ? o.complete : start;
      out += prefix + std::to_string(o.session) + "," + fmt_i64(start) +
             ",browser,object,0," + fmt_u64(o.bytes) + "," +
             util::format_fixed(to_ms(end - start), 6) + "," +
             sanitize(o.url) + "," +
             "kind=" + sanitize(o.kind) + ";status=" +
             std::to_string(o.status) + ";attempts=" +
             std::to_string(o.attempts) + ";failed=" + (o.failed ? "1" : "0") +
             ";dns_start_us=" + fmt_i64(o.dns_start) + ";dns_done_us=" +
             fmt_i64(o.dns_done) + ";connect_us=" + fmt_i64(o.connect_done) +
             ";request_us=" + fmt_i64(o.request_sent) +
             ";first_byte_us=" + fmt_i64(o.first_byte) + ";complete_us=" +
             fmt_i64(o.complete) + ";error=" + sanitize(o.error) + "\n";
    }
    for (const PageRecord& p : load.buffer.pages) {
      out += prefix + std::to_string(p.session) + "," +
             fmt_i64(p.started_at) + ",browser,page,0," +
             (p.success ? "1" : "0") + "," +
             util::format_fixed(to_ms(p.plt), 6) + "," +
             sanitize(p.url) + ",degraded_ms=" +
             util::format_fixed(to_ms(p.degraded_plt), 3) + "\n";
    }
  }
  return out;
}

}  // namespace mahimahi::obs
