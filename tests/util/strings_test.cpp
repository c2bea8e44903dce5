#include "util/strings.hpp"

#include <gtest/gtest.h>

namespace mahimahi::util {
namespace {

TEST(Split, KeepsEmptyFields) {
  const auto fields = split("a,,b", ',');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
}

TEST(Split, EmptyInputYieldsOneEmptyField) {
  const auto fields = split("", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "");
}

TEST(Split, NoDelimiterYieldsWholeString) {
  const auto fields = split("hello", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "hello");
}

TEST(Split, TrailingDelimiterYieldsTrailingEmpty) {
  const auto fields = split("a,b,", ',');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[2], "");
}

TEST(SplitOnce, SplitsOnFirstOccurrence) {
  const auto [head, tail] = split_once("key:value:extra", ':');
  EXPECT_EQ(head, "key");
  EXPECT_EQ(tail, "value:extra");
}

TEST(SplitOnce, AbsentDelimiterReturnsWholeAndEmpty) {
  const auto [head, tail] = split_once("justkey", ':');
  EXPECT_EQ(head, "justkey");
  EXPECT_EQ(tail, "");
}

TEST(Trim, StripsBothEnds) {
  EXPECT_EQ(trim("  hello \t\r\n"), "hello");
  EXPECT_EQ(trim("hello"), "hello");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Trim, PreservesInteriorWhitespace) {
  EXPECT_EQ(trim(" a b "), "a b");
}

TEST(ToLower, BasicAscii) {
  EXPECT_EQ(to_lower("Content-TYPE"), "content-type");
  EXPECT_EQ(to_lower(""), "");
  EXPECT_EQ(to_lower("123!@#"), "123!@#");
}

TEST(IEquals, CaseInsensitive) {
  EXPECT_TRUE(iequals("Content-Length", "content-length"));
  EXPECT_TRUE(iequals("", ""));
  EXPECT_FALSE(iequals("Content-Length", "content-lengt"));
  EXPECT_FALSE(iequals("a", "b"));
}

TEST(StartsEndsWith, Basics) {
  EXPECT_TRUE(starts_with("http://x", "http://"));
  EXPECT_FALSE(starts_with("htt", "http"));
  EXPECT_TRUE(ends_with("style.css", ".css"));
  EXPECT_FALSE(ends_with("css", ".css"));
}

TEST(ToHex, ZeroPadsTo16) {
  EXPECT_EQ(to_hex(0), "0000000000000000");
  EXPECT_EQ(to_hex(0xdeadbeefULL), "00000000deadbeef");
  EXPECT_EQ(to_hex(~0ULL), "ffffffffffffffff");
}

TEST(ParseU64, AcceptsPlainDecimal) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_u64("0", v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(parse_u64("18446744073709551615", v));
  EXPECT_EQ(v, ~0ULL);
}

TEST(ParseU64, RejectsGarbage) {
  std::uint64_t v = 0;
  EXPECT_FALSE(parse_u64("", v));
  EXPECT_FALSE(parse_u64("-1", v));
  EXPECT_FALSE(parse_u64("12a", v));
  EXPECT_FALSE(parse_u64(" 12", v));
  EXPECT_FALSE(parse_u64("18446744073709551616", v));  // overflow
}

TEST(ParseHexU64, AcceptsBothCases) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_hex_u64("ff", v));
  EXPECT_EQ(v, 255u);
  EXPECT_TRUE(parse_hex_u64("DEADbeef", v));
  EXPECT_EQ(v, 0xdeadbeefULL);
  EXPECT_TRUE(parse_hex_u64("0", v));
  EXPECT_EQ(v, 0u);
}

TEST(ParseHexU64, RejectsBadInput) {
  std::uint64_t v = 0;
  EXPECT_FALSE(parse_hex_u64("", v));
  EXPECT_FALSE(parse_hex_u64("0x12", v));
  EXPECT_FALSE(parse_hex_u64("12g", v));
  EXPECT_FALSE(parse_hex_u64("11111111111111111", v));  // 17 digits
}

TEST(FormatBytes, HumanUnits) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(1536), "1.5 KiB");
  EXPECT_EQ(format_bytes(1024ull * 1024), "1.0 MiB");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(json_escape("plain text"), "plain text");
  EXPECT_EQ(json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("line\nnext"), "line\\nnext");
  EXPECT_EQ(json_escape("col\tcol"), "col\\tcol");
  EXPECT_EQ(json_escape("cr\r"), "cr\\r");
  EXPECT_EQ(json_escape(std::string_view{"x\x01y", 3}), "x\\u0001y");
}

TEST(FormatFixed, PrintsExactlyThePrecisionAsked) {
  EXPECT_EQ(format_fixed(1.5, 3), "1.500");
  EXPECT_EQ(format_fixed(2.0 / 3.0, 6), "0.666667");
  EXPECT_EQ(format_fixed(1234.6, 0), "1235");
  EXPECT_EQ(format_fixed(-0.26, 1), "-0.3");
}

}  // namespace
}  // namespace mahimahi::util
