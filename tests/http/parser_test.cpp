#include "http/parser.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

namespace {

// Largest single heap allocation since the last reset, so a test can bound
// what a parser reserves. The replacement below only records the size; it
// allocates with malloc exactly like the default.
std::atomic<std::size_t> largest_allocation{0};

}  // namespace

void* operator new(std::size_t size) {
  std::size_t seen = largest_allocation.load(std::memory_order_relaxed);
  while (size > seen && !largest_allocation.compare_exchange_weak(
                            seen, size, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc{};
}

// Not inlined, so the compiler never pairs this free() with a new-expression.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace mahimahi::http {
namespace {

TEST(RequestParser, SimpleGetNoBody) {
  RequestParser p;
  p.push("GET /index.html HTTP/1.1\r\nHost: example.com\r\n\r\n");
  ASSERT_TRUE(p.has_message());
  const Request r = p.pop();
  EXPECT_EQ(r.method, Method::kGet);
  EXPECT_EQ(r.target, "/index.html");
  EXPECT_EQ(r.version, "HTTP/1.1");
  EXPECT_EQ(r.headers.get("Host"), "example.com");
  EXPECT_TRUE(r.body.empty());
  EXPECT_FALSE(p.failed());
}

TEST(RequestParser, PostWithContentLength) {
  RequestParser p;
  p.push("POST /submit HTTP/1.1\r\nHost: h\r\nContent-Length: 11\r\n\r\nhello world");
  ASSERT_TRUE(p.has_message());
  EXPECT_EQ(p.pop().body, "hello world");
}

TEST(RequestParser, ByteAtATime) {
  RequestParser p;
  const std::string wire =
      "POST /x HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\n\r\nabc";
  for (const char c : wire) {
    p.push(std::string_view{&c, 1});
  }
  ASSERT_TRUE(p.has_message());
  const Request r = p.pop();
  EXPECT_EQ(r.body, "abc");
  EXPECT_EQ(p.buffered_bytes(), 0u);
}

TEST(RequestParser, PipelinedRequests) {
  RequestParser p;
  p.push(
      "GET /a HTTP/1.1\r\nHost: h\r\n\r\n"
      "GET /b HTTP/1.1\r\nHost: h\r\n\r\n");
  ASSERT_EQ(p.pending(), 2u);
  EXPECT_EQ(p.pop().target, "/a");
  EXPECT_EQ(p.pop().target, "/b");
}

TEST(RequestParser, ChunkedBodyWithExtensionsAndTrailers) {
  RequestParser p;
  p.push(
      "POST /up HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n"
      "4;ext=1\r\nWiki\r\n"
      "5\r\npedia\r\n"
      "0\r\n"
      "X-Trailer: yes\r\n"
      "\r\n");
  ASSERT_TRUE(p.has_message());
  const Request r = p.pop();
  EXPECT_EQ(r.body, "Wikipedia");
  EXPECT_EQ(r.headers.get("X-Trailer"), "yes");
}

TEST(RequestParser, ToleratesBareLfAndLeadingBlankLines) {
  RequestParser p;
  p.push("\r\n\r\nGET / HTTP/1.1\nHost: h\n\n");
  ASSERT_TRUE(p.has_message());
  EXPECT_EQ(p.pop().target, "/");
}

TEST(RequestParser, HeaderValueWhitespaceTrimmed) {
  RequestParser p;
  p.push("GET / HTTP/1.1\r\nHost:    spaced.test   \r\n\r\n");
  ASSERT_TRUE(p.has_message());
  EXPECT_EQ(p.pop().headers.get("Host"), "spaced.test");
}

TEST(RequestParser, RejectsBadMethod) {
  RequestParser p;
  p.push("BREW /pot HTTP/1.1\r\n\r\n");
  EXPECT_TRUE(p.failed());
  EXPECT_FALSE(p.has_message());
  EXPECT_NE(p.error_message().find("BREW"), std::string::npos);
}

TEST(RequestParser, RejectsMalformedRequestLine) {
  RequestParser p;
  p.push("GET /missing-version\r\n\r\n");
  EXPECT_TRUE(p.failed());
}

TEST(RequestParser, RejectsBadContentLength) {
  RequestParser p;
  p.push("POST / HTTP/1.1\r\nContent-Length: 12x\r\n\r\n");
  EXPECT_TRUE(p.failed());
}

TEST(RequestParser, RejectsSpaceBeforeColon) {
  RequestParser p;
  p.push("GET / HTTP/1.1\r\nHost : h\r\n\r\n");
  EXPECT_TRUE(p.failed());
}

TEST(RequestParser, RejectsHeaderLineWithoutColon) {
  RequestParser p;
  p.push("GET / HTTP/1.1\r\nNoColonHere\r\n\r\n");
  EXPECT_TRUE(p.failed());
}

TEST(RequestParser, RejectsBadChunkSize) {
  RequestParser p;
  p.push(
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "zz\r\n");
  EXPECT_TRUE(p.failed());
}

TEST(RequestParser, IgnoresInputAfterFailure) {
  RequestParser p;
  p.push("BAD\r\n\r\n");
  ASSERT_TRUE(p.failed());
  p.push("GET / HTTP/1.1\r\n\r\n");
  EXPECT_FALSE(p.has_message());
}

TEST(RequestParser, CloseMidMessageFails) {
  RequestParser p;
  p.push("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc");
  EXPECT_FALSE(p.has_message());
  p.on_close();
  EXPECT_TRUE(p.failed());
}

TEST(RequestParser, CleanCloseAfterCompleteMessageIsFine) {
  RequestParser p;
  p.push("GET / HTTP/1.1\r\n\r\n");
  p.on_close();
  EXPECT_FALSE(p.failed());
  EXPECT_TRUE(p.has_message());
}

TEST(ResponseParser, SimpleResponse) {
  ResponseParser p;
  p.notify_request(Method::kGet);
  p.push("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi");
  ASSERT_TRUE(p.has_message());
  const Response r = p.pop();
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.reason, "OK");
  EXPECT_EQ(r.body, "hi");
}

TEST(ResponseParser, HeadResponseHasNoBodyDespiteContentLength) {
  ResponseParser p;
  p.notify_request(Method::kHead);
  p.notify_request(Method::kGet);
  p.push("HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n");
  ASSERT_TRUE(p.has_message());
  EXPECT_TRUE(p.pop().body.empty());
  // The following GET's response still parses normally.
  p.push("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok");
  ASSERT_TRUE(p.has_message());
  EXPECT_EQ(p.pop().body, "ok");
}

TEST(ResponseParser, NoBodyStatuses) {
  for (const int status : {204, 304}) {
    ResponseParser p;
    p.notify_request(Method::kGet);
    p.push("HTTP/1.1 " + std::to_string(status) + " X\r\nContent-Length: 5\r\n\r\n");
    ASSERT_TRUE(p.has_message()) << status;
    EXPECT_TRUE(p.pop().body.empty());
  }
}

TEST(ResponseParser, InterimResponseDoesNotConsumeMethod) {
  ResponseParser p;
  p.notify_request(Method::kGet);
  p.push("HTTP/1.1 100 Continue\r\n\r\n");
  ASSERT_TRUE(p.has_message());
  EXPECT_EQ(p.pop().status, 100);
  p.push("HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\ndone");
  ASSERT_TRUE(p.has_message());
  EXPECT_EQ(p.pop().body, "done");
}

TEST(ResponseParser, ReadToCloseFraming) {
  ResponseParser p;
  p.notify_request(Method::kGet);
  p.push("HTTP/1.1 200 OK\r\n\r\npartial body, no length");
  EXPECT_FALSE(p.has_message());
  p.push(" ... more");
  p.on_close();
  ASSERT_TRUE(p.has_message());
  EXPECT_EQ(p.pop().body, "partial body, no length ... more");
}

TEST(ResponseParser, ChunkedResponse) {
  ResponseParser p;
  p.notify_request(Method::kGet);
  p.push(
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      "a\r\n0123456789\r\n0\r\n\r\n");
  ASSERT_TRUE(p.has_message());
  EXPECT_EQ(p.pop().body, "0123456789");
}

TEST(ResponseParser, EmptyReasonPhraseAccepted) {
  ResponseParser p;
  p.notify_request(Method::kGet);
  p.push("HTTP/1.1 404 \r\nContent-Length: 0\r\n\r\n");
  ASSERT_TRUE(p.has_message());
  const Response r = p.pop();
  EXPECT_EQ(r.status, 404);
  EXPECT_EQ(r.reason, "");
}

TEST(ResponseParser, RejectsBadStatusCode) {
  ResponseParser p;
  p.push("HTTP/1.1 99 Too Low\r\n\r\n");
  EXPECT_TRUE(p.failed());
  ResponseParser q;
  q.push("HTTP/1.1 abc Bad\r\n\r\n");
  EXPECT_TRUE(q.failed());
}

TEST(ResponseParser, RejectsNonHttpStartLine) {
  ResponseParser p;
  p.push("SIP/2.0 200 OK\r\n\r\n");
  EXPECT_TRUE(p.failed());
}

TEST(ResponseParser, MissingChunkCrlfFails) {
  ResponseParser p;
  p.notify_request(Method::kGet);
  p.push(
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      "3\r\nabcX\r\n");
  EXPECT_TRUE(p.failed());
}

TEST(ResponseParser, HeaderSectionLimitEnforced) {
  ResponseParser p;
  p.notify_request(Method::kGet);
  std::string huge = "HTTP/1.1 200 OK\r\n";
  huge += "X-Pad: " + std::string(MessageParser::kMaxHeaderBytes + 10, 'a') + "\r\n";
  p.push(huge);
  EXPECT_TRUE(p.failed());
}

TEST(ResponseParser, BodySplitAtEveryPointParsesLikeOnePush) {
  const std::string wire =
      "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n"
      "Content-Length: 26\r\n\r\nabcdefghijklmnopqrstuvwxyz";
  ResponseParser whole;
  whole.notify_request(Method::kGet);
  whole.push(wire);
  ASSERT_TRUE(whole.has_message());
  const Response expected = whole.pop();
  for (std::size_t split = 0; split <= wire.size(); ++split) {
    ResponseParser p;
    p.notify_request(Method::kGet);
    p.push(std::string_view{wire}.substr(0, split));
    p.push(std::string_view{wire}.substr(split));
    ASSERT_TRUE(p.has_message()) << "split " << split;
    const Response r = p.pop();
    EXPECT_EQ(r.status, expected.status) << "split " << split;
    EXPECT_EQ(r.headers.get("Content-Type"), "text/plain") << "split " << split;
    EXPECT_EQ(r.body, expected.body) << "split " << split;
    EXPECT_EQ(p.buffered_bytes(), 0u) << "split " << split;
    EXPECT_FALSE(p.failed()) << "split " << split;
  }
}

TEST(ResponseParser, PipelinedResponseAfterDirectBodyBytes) {
  // The first response's body tail and the whole second response arrive in
  // one push, after the headers — the second still parses, at every split.
  const std::string first =
      "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n0123456789";
  const std::string second =
      "HTTP/1.1 404 Not Found\r\nContent-Length: 4\r\n\r\ngone";
  const std::string wire = first + second;
  for (std::size_t split = 0; split <= wire.size(); ++split) {
    ResponseParser p;
    p.notify_request(Method::kGet);
    p.notify_request(Method::kGet);
    p.push(std::string_view{wire}.substr(0, split));
    p.push(std::string_view{wire}.substr(split));
    ASSERT_EQ(p.pending(), 2u) << "split " << split;
    EXPECT_EQ(p.pop().body, "0123456789") << "split " << split;
    const Response r = p.pop();
    EXPECT_EQ(r.status, 404) << "split " << split;
    EXPECT_EQ(r.body, "gone") << "split " << split;
    EXPECT_EQ(p.buffered_bytes(), 0u) << "split " << split;
  }
}

TEST(ResponseParser, HugeContentLengthReservesAtMostTheCap) {
  // The peer controls Content-Length: claiming a terabyte must not make
  // the parser reserve (or fail to reserve) a terabyte.
  ResponseParser p;
  p.notify_request(Method::kGet);
  largest_allocation = 0;
  EXPECT_NO_THROW(p.push(
      "HTTP/1.1 200 OK\r\nContent-Length: 1099511627776\r\n\r\n0123456789"));
  EXPECT_LE(largest_allocation.load(), ResponseParser::kMaxBodyReserve + 1);
  EXPECT_FALSE(p.failed());
  EXPECT_FALSE(p.has_message());
  p.push("more");
  EXPECT_FALSE(p.failed());
}

}  // namespace
}  // namespace mahimahi::http
