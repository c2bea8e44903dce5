#include "http/message.hpp"

#include <string_view>

#include "http/status.hpp"
#include "util/strings.hpp"

namespace mahimahi::http {
namespace {

bool message_keep_alive(const HeaderMap& headers, std::string_view version) {
  const auto connection = headers.get("Connection");
  if (connection && value_has_token(*connection, "close")) {
    return false;
  }
  if (version == "HTTP/1.0") {
    return connection && value_has_token(*connection, "keep-alive");
  }
  return true;  // HTTP/1.1 default
}

bool is_chunked(const HeaderMap& headers) {
  const auto te = headers.get("Transfer-Encoding");
  return te && value_has_token(*te, "chunked");
}

std::size_t headers_size(const HeaderMap& headers) {
  std::size_t size = 2;  // the blank line
  for (const auto& field : headers) {
    size += field.name.size() + 2 + field.value.size() + 2;
  }
  return size;
}

void append_headers(std::string& out, const HeaderMap& headers) {
  for (const auto& field : headers) {
    out.append(field.name).append(": ").append(field.value).append("\r\n");
  }
  out.append("\r\n");
}

}  // namespace

std::string Request::host() const {
  const auto raw = headers.get("Host");
  if (!raw) {
    return {};
  }
  const auto [host_part, port_part] = util::split_once(*raw, ':');
  (void)port_part;
  return util::to_lower(util::trim(host_part));
}

Url Request::url() const {
  if (const auto absolute = parse_url(target); absolute && !absolute->host.empty()) {
    return *absolute;
  }
  Url url;
  url.scheme = "http";
  url.host = host();
  const auto raw_host = headers.get("Host");
  if (raw_host) {
    const auto [host_part, port_part] = util::split_once(*raw_host, ':');
    (void)host_part;
    std::uint64_t port = 0;
    if (!port_part.empty() && util::parse_u64(util::trim(port_part), port) &&
        port > 0 && port <= 65535) {
      url.port = static_cast<std::uint16_t>(port);
    }
  }
  if (const auto origin = parse_url(target)) {
    url.path = origin->path;
    url.query = origin->query;
  }
  return url;
}

bool Request::keep_alive() const { return message_keep_alive(headers, version); }

bool Response::keep_alive() const { return message_keep_alive(headers, version); }

// Both serializers size the wire string first and append into one
// allocation: no stream buffer growth, no copy out of it.
std::string to_bytes(const Request& request) {
  const std::string_view method = method_name(request.method);
  std::string out;
  out.reserve(method.size() + 1 + request.target.size() + 1 +
              request.version.size() + 2 + headers_size(request.headers) +
              request.body.size());
  out.append(method).append(1, ' ').append(request.target).append(1, ' ');
  out.append(request.version).append("\r\n");
  append_headers(out, request.headers);
  out.append(request.body);
  return out;
}

std::string to_bytes(const Response& response) {
  const std::string status = std::to_string(response.status);
  std::string out;
  out.reserve(response.version.size() + 1 + status.size() + 1 +
              response.reason.size() + 2 + headers_size(response.headers) +
              response.body.size());
  out.append(response.version).append(1, ' ').append(status).append(1, ' ');
  out.append(response.reason).append("\r\n");
  append_headers(out, response.headers);
  out.append(response.body);
  return out;
}

void finalize_content_length(Request& request) {
  // Requests without a body are self-framing (no length header needed).
  if (request.body.empty() || is_chunked(request.headers)) {
    return;
  }
  request.headers.set("Content-Length", std::to_string(request.body.size()));
}

void finalize_content_length(Response& response) {
  // Responses are different: a missing Content-Length means
  // read-until-close framing, so even empty bodies must be declared
  // (unless the status itself forbids a body).
  if (is_chunked(response.headers) || status_has_no_body(response.status)) {
    return;
  }
  response.headers.set("Content-Length", std::to_string(response.body.size()));
}

Request make_get(std::string_view url_text, const HeaderMap& extra) {
  Request request;
  request.method = Method::kGet;
  const auto url = parse_url(url_text);
  if (url && !url->host.empty()) {
    request.target = url->request_target();
    std::string host_value = url->host;
    if (url->port != 0) {
      host_value += ':';
      host_value += std::to_string(url->port);
    }
    request.headers.add("Host", host_value);
  } else {
    request.target = std::string{url_text};
  }
  for (const auto& field : extra) {
    request.headers.add(field.name, field.value);
  }
  return request;
}

Response make_ok(std::string body, std::string_view content_type) {
  Response response;
  response.status = 200;
  response.reason = std::string{reason_phrase(200)};
  response.headers.add("Content-Type", std::string{content_type});
  response.body = std::move(body);
  finalize_content_length(response);
  return response;
}

Response make_not_found(std::string_view target) {
  Response response;
  response.status = 404;
  response.reason = std::string{reason_phrase(404)};
  response.headers.add("Content-Type", "text/plain");
  response.body = "no recorded response for ";
  response.body += target;
  finalize_content_length(response);
  return response;
}

}  // namespace mahimahi::http
