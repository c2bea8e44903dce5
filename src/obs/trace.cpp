#include "obs/trace.hpp"

namespace mahimahi::obs {

std::string_view to_string(Layer layer) {
  switch (layer) {
    case Layer::kLink:
      return "link";
    case Layer::kTcp:
      return "tcp";
    case Layer::kDns:
      return "dns";
    case Layer::kFault:
      return "fault";
    case Layer::kBrowser:
      return "browser";
    case Layer::kRunner:
      return "runner";
  }
  return "unknown";
}

std::string_view to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kEnqueue:
      return "enqueue";
    case EventKind::kDequeue:
      return "dequeue";
    case EventKind::kDrop:
      return "drop";
    case EventKind::kTcpConnect:
      return "connect";
    case EventKind::kTcpEstablished:
      return "established";
    case EventKind::kTcpCwndSample:
      return "cwnd";
    case EventKind::kTcpRttSample:
      return "rtt";
    case EventKind::kTcpRetransmit:
      return "retransmit";
    case EventKind::kTcpRto:
      return "rto";
    case EventKind::kTcpClose:
      return "close";
    case EventKind::kDnsQuery:
      return "query";
    case EventKind::kDnsRetransmit:
      return "dns-retransmit";
    case EventKind::kDnsAnswer:
      return "answer";
    case EventKind::kFaultInjected:
      return "injected";
    case EventKind::kFetchStart:
      return "fetch-start";
    case EventKind::kFetchRetry:
      return "fetch-retry";
    case EventKind::kFetchTimeout:
      return "fetch-timeout";
    case EventKind::kJournalAppend:
      return "journal-append";
    case EventKind::kJournalReplay:
      return "journal-replay";
    case EventKind::kWatchdogExpired:
      return "watchdog-expired";
    case EventKind::kTaskCancelled:
      return "task-cancelled";
    case EventKind::kTaskRetry:
      return "task-retry";
  }
  return "unknown";
}

bool layer_from_string(std::string_view name, Layer& layer) {
  for (int i = 0; i <= static_cast<int>(Layer::kRunner); ++i) {
    const auto candidate = static_cast<Layer>(i);
    if (to_string(candidate) == name) {
      layer = candidate;
      return true;
    }
  }
  return false;
}

bool kind_from_string(std::string_view name, EventKind& kind) {
  for (int i = 0; i <= static_cast<int>(EventKind::kTaskRetry); ++i) {
    const auto candidate = static_cast<EventKind>(i);
    if (to_string(candidate) == name) {
      kind = candidate;
      return true;
    }
  }
  return false;
}

ObjectRecord& Tracer::object(std::int32_t session, const std::string& url) {
  const auto key = std::make_pair(session, url);
  const auto found = object_index_.find(key);
  if (found != object_index_.end()) {
    return buffer_.objects[found->second];
  }
  object_index_.emplace(key, buffer_.objects.size());
  ObjectRecord record;
  record.url = url;
  record.session = session;
  buffer_.objects.push_back(std::move(record));
  return buffer_.objects.back();
}

ObjectRecord* Tracer::find_object(std::int32_t session,
                                  const std::string& url) {
  const auto found = object_index_.find(std::make_pair(session, url));
  if (found == object_index_.end()) {
    return nullptr;
  }
  return &buffer_.objects[found->second];
}

}  // namespace mahimahi::obs
