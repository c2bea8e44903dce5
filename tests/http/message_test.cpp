#include "http/message.hpp"

#include <gtest/gtest.h>

namespace mahimahi::http {
namespace {

TEST(Request, HostStripsPortAndLowercases) {
  Request r;
  r.headers.add("Host", "WWW.Example.COM:8080");
  EXPECT_EQ(r.host(), "www.example.com");
}

TEST(Request, HostEmptyWhenAbsent) {
  EXPECT_EQ(Request{}.host(), "");
}

TEST(Request, UrlFromOriginFormUsesHostHeader) {
  Request r;
  r.target = "/a/b?c=d";
  r.headers.add("Host", "site.test:8000");
  const Url url = r.url();
  EXPECT_EQ(url.host, "site.test");
  EXPECT_EQ(url.port, 8000);
  EXPECT_EQ(url.path, "/a/b");
  EXPECT_EQ(url.query, "c=d");
}

TEST(Request, UrlFromAbsoluteFormTarget) {
  Request r;
  r.target = "http://other.test/x";
  r.headers.add("Host", "ignored.test");
  const Url url = r.url();
  EXPECT_EQ(url.host, "other.test");
  EXPECT_EQ(url.path, "/x");
}

TEST(KeepAlive, Http11DefaultsOn) {
  Request r;
  EXPECT_TRUE(r.keep_alive());
  r.headers.add("Connection", "close");
  EXPECT_FALSE(r.keep_alive());
}

TEST(KeepAlive, Http10DefaultsOff) {
  Response resp;
  resp.version = "HTTP/1.0";
  EXPECT_FALSE(resp.keep_alive());
  resp.headers.add("Connection", "Keep-Alive");
  EXPECT_TRUE(resp.keep_alive());
}

TEST(ToBytes, RequestWireFormat) {
  Request r;
  r.method = Method::kGet;
  r.target = "/index.html";
  r.headers.add("Host", "example.com");
  r.headers.add("Accept", "*/*");
  EXPECT_EQ(to_bytes(r),
            "GET /index.html HTTP/1.1\r\n"
            "Host: example.com\r\n"
            "Accept: */*\r\n"
            "\r\n");
}

TEST(ToBytes, ResponseWireFormatWithBody) {
  Response resp = make_ok("hello", "text/plain");
  EXPECT_EQ(to_bytes(resp),
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/plain\r\n"
            "Content-Length: 5\r\n"
            "\r\n"
            "hello");
}

TEST(ToBytes, ResponseWireFormatWithHeadersAndBody) {
  Response resp;
  resp.status = 404;
  resp.reason = "Not Found";
  resp.headers.add("Content-Type", "text/html");
  resp.headers.add("Set-Cookie", "a=1");
  resp.headers.add("Content-Length", "9");
  resp.body = "<p>no</p>";
  EXPECT_EQ(to_bytes(resp),
            "HTTP/1.1 404 Not Found\r\n"
            "Content-Type: text/html\r\n"
            "Set-Cookie: a=1\r\n"
            "Content-Length: 9\r\n"
            "\r\n"
            "<p>no</p>");
}

TEST(ToBytes, ResponseWireFormatEmptyBody) {
  Response resp;
  resp.version = "HTTP/1.0";
  resp.status = 204;
  resp.reason = "No Content";
  EXPECT_EQ(to_bytes(resp), "HTTP/1.0 204 No Content\r\n\r\n");
}

TEST(ToBytes, RequestWireFormatWithBody) {
  Request r;
  r.method = Method::kPost;
  r.target = "/submit?x=1";
  r.headers.add("Host", "example.com:8080");
  r.headers.add("Content-Length", "3");
  r.body = "a=b";
  EXPECT_EQ(to_bytes(r),
            "POST /submit?x=1 HTTP/1.1\r\n"
            "Host: example.com:8080\r\n"
            "Content-Length: 3\r\n"
            "\r\n"
            "a=b");
}

TEST(FinalizeContentLength, SkipsWhenChunked) {
  Response resp;
  resp.headers.add("Transfer-Encoding", "chunked");
  resp.body = "ignored-framing";
  finalize_content_length(resp);
  EXPECT_FALSE(resp.headers.contains("Content-Length"));
}

TEST(FinalizeContentLength, SkipsWhenBodyEmpty) {
  Request r;
  finalize_content_length(r);
  EXPECT_FALSE(r.headers.contains("Content-Length"));
}

TEST(FinalizeContentLength, OverwritesStaleValue) {
  Response resp;
  resp.headers.add("Content-Length", "999");
  resp.body = "abc";
  finalize_content_length(resp);
  EXPECT_EQ(resp.headers.get("Content-Length"), "3");
}

TEST(MakeGet, BuildsHostHeaderWithPort) {
  const Request r = make_get("http://h.test:81/p?q=1");
  EXPECT_EQ(r.method, Method::kGet);
  EXPECT_EQ(r.target, "/p?q=1");
  EXPECT_EQ(r.headers.get("Host"), "h.test:81");
}

TEST(MakeNotFound, CarriesTargetInBody) {
  const Response resp = make_not_found("/missing");
  EXPECT_EQ(resp.status, 404);
  EXPECT_NE(resp.body.find("/missing"), std::string::npos);
  EXPECT_EQ(resp.headers.get("Content-Length"),
            std::to_string(resp.body.size()));
}

TEST(MethodTable, RoundTrips) {
  for (const Method m :
       {Method::kGet, Method::kHead, Method::kPost, Method::kPut, Method::kDelete,
        Method::kOptions, Method::kTrace, Method::kConnect, Method::kPatch}) {
    const auto parsed = parse_method(method_name(m));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, m);
  }
  EXPECT_FALSE(parse_method("get").has_value());  // case-sensitive
  EXPECT_FALSE(parse_method("BREW").has_value());
}

}  // namespace
}  // namespace mahimahi::http
