#include "gate/bench_gate.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/strings.hpp"

namespace mahimahi::gate {
namespace {

// ---------------------------------------------------------------------------
// A minimal JSON reader — just enough for the bench/baseline schemas (no
// unicode escapes, no nesting beyond what the schemas use). Kept local so
// the gate has zero dependencies beyond the standard library.
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type{Type::kNull};
  bool boolean{false};
  double number{0};
  std::string string;
  std::vector<JsonValue> array;
  // Insertion-ordered object (duplicate keys rejected at parse time).
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) {
        return &v;
      }
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_{text} {}

  JsonValue parse() {
    JsonValue value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) {
      fail("trailing characters after the top-level value");
    }
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    std::size_t line = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
      }
    }
    throw std::invalid_argument{"JSON error at line " + std::to_string(line) +
                                ": " + message};
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    skip_whitespace();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string{"expected '"} + c + "', got '" + text_[pos_] + "'");
    }
    ++pos_;
  }

  JsonValue parse_value() {
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return parse_string();
      case 't':
      case 'f':
        return parse_bool();
      case 'n':
        parse_literal("null");
        return JsonValue{};
      default:
        return parse_number();
    }
  }

  void parse_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      fail("malformed literal (expected '" + std::string{literal} + "')");
    }
    pos_ += literal.size();
  }

  JsonValue parse_bool() {
    JsonValue value;
    value.type = JsonValue::Type::kBool;
    if (text_[pos_] == 't') {
      parse_literal("true");
      value.boolean = true;
    } else {
      parse_literal("false");
    }
    return value;
  }

  JsonValue parse_string() {
    expect('"');
    JsonValue value;
    value.type = JsonValue::Type::kString;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          fail("unterminated escape");
        }
        const char escaped = text_[pos_++];
        switch (escaped) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          default:
            fail(std::string{"unsupported escape '\\"} + escaped + "'");
        }
      }
      value.string += c;
    }
    if (pos_ >= text_.size()) {
      fail("unterminated string");
    }
    ++pos_;  // closing quote
    return value;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      fail(std::string{"unexpected character '"} + text_[start] + "'");
    }
    JsonValue value;
    value.type = JsonValue::Type::kNumber;
    try {
      std::size_t consumed = 0;
      const std::string token{text_.substr(start, pos_ - start)};
      value.number = std::stod(token, &consumed);
      if (consumed != token.size()) {
        throw std::invalid_argument{"trailing junk"};
      }
    } catch (const std::exception&) {
      fail("malformed number '" +
           std::string{text_.substr(start, pos_ - start)} + "'");
    }
    return value;
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue value;
    value.type = JsonValue::Type::kArray;
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      value.array.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') {
        return value;
      }
      if (c != ',') {
        fail("expected ',' or ']' in array");
      }
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue value;
    value.type = JsonValue::Type::kObject;
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      JsonValue key = parse_string();
      if (value.find(key.string) != nullptr) {
        fail("duplicate object key '" + key.string + "'");
      }
      expect(':');
      value.object.emplace_back(std::move(key.string), parse_value());
      const char c = peek();
      ++pos_;
      if (c == '}') {
        return value;
      }
      if (c != ',') {
        fail("expected ',' or '}' in object");
      }
    }
  }

  std::string_view text_;
  std::size_t pos_{0};
};

// ---------------------------------------------------------------------------

double number_field(const JsonValue& object, const std::string& key,
                    double fallback) {
  const JsonValue* field = object.find(key);
  if (field == nullptr) {
    return fallback;
  }
  if (field->type != JsonValue::Type::kNumber) {
    throw std::invalid_argument{"field '" + key + "' must be a number"};
  }
  return field->number;
}

std::vector<BenchRow> rows_from(const JsonValue& root,
                                const char* expected_schema) {
  if (root.type != JsonValue::Type::kObject) {
    throw std::invalid_argument{"top level must be a JSON object"};
  }
  const JsonValue* schema = root.find("schema");
  if (schema == nullptr || schema->type != JsonValue::Type::kString ||
      schema->string != expected_schema) {
    throw std::invalid_argument{std::string{"expected schema \""} +
                                expected_schema + "\""};
  }
  const JsonValue* benchmarks = root.find("benchmarks");
  if (benchmarks == nullptr || benchmarks->type != JsonValue::Type::kArray) {
    throw std::invalid_argument{"missing \"benchmarks\" array"};
  }
  std::vector<BenchRow> rows;
  rows.reserve(benchmarks->array.size());
  for (const JsonValue& entry : benchmarks->array) {
    if (entry.type != JsonValue::Type::kObject) {
      throw std::invalid_argument{"benchmark entries must be objects"};
    }
    const JsonValue* name = entry.find("name");
    if (name == nullptr || name->type != JsonValue::Type::kString ||
        name->string.empty()) {
      throw std::invalid_argument{"benchmark entry without a \"name\""};
    }
    BenchRow row;
    row.name = name->string;
    row.ns_per_op = number_field(entry, "ns_per_op", 0);
    row.items_per_second = number_field(entry, "items_per_second", 0);
    row.bytes_per_second = number_field(entry, "bytes_per_second", 0);
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string read_file_or_throw(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    throw std::invalid_argument{"cannot open " + path};
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

/// One metric comparison; `lower_is_better` encodes the direction.
void compare_metric(GateResult& result, const std::string& row_name,
                    const char* metric, double base, double current,
                    double tolerance, bool lower_is_better) {
  if (base == 0) {
    return;  // metric not pinned by the baseline
  }
  MetricDelta delta;
  delta.row = row_name;
  delta.metric = metric;
  delta.baseline = base;
  delta.current = current;
  delta.change_pct = 100.0 * (current - base) / base;
  delta.tolerance = std::fabs(tolerance);
  const double relative = (current - base) / base;
  const bool informational = tolerance < 0;
  const bool worse = lower_is_better ? relative > delta.tolerance
                                     : relative < -delta.tolerance;
  const bool better = lower_is_better ? relative < -delta.tolerance
                                      : relative > delta.tolerance;
  if (informational) {
    delta.status = MetricStatus::kInfo;
  } else if (worse) {
    delta.status = MetricStatus::kRegressed;
    ++result.regressions;
  } else if (better) {
    delta.status = MetricStatus::kImproved;
  } else {
    delta.status = MetricStatus::kOk;
  }
  result.deltas.push_back(std::move(delta));
}

const char* status_name(MetricStatus status) {
  switch (status) {
    case MetricStatus::kOk: return "ok";
    case MetricStatus::kImproved: return "IMPROVED";
    case MetricStatus::kRegressed: return "REGRESSED";
    case MetricStatus::kInfo: return "info";
    case MetricStatus::kMissing: return "MISSING";
    case MetricStatus::kNew: return "new";
  }
  return "?";
}

}  // namespace

std::vector<BenchRow> parse_bench_json(std::string_view text) {
  return rows_from(JsonParser{text}.parse(), "mahimahi-bench-v1");
}

std::vector<BenchRow> load_bench_file(const std::string& path) {
  try {
    return parse_bench_json(read_file_or_throw(path));
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument{path + ": " + e.what()};
  }
}

Baseline parse_baseline_json(std::string_view text) {
  const JsonValue root = JsonParser{text}.parse();
  Baseline baseline;
  baseline.rows = rows_from(root, "mahimahi-bench-baseline-v1");
  baseline.default_tolerance =
      number_field(root, "default_tolerance", baseline.default_tolerance);
  if (baseline.default_tolerance <= 0) {
    throw std::invalid_argument{"default_tolerance must be positive"};
  }
  if (const JsonValue* tolerances = root.find("tolerances");
      tolerances != nullptr) {
    if (tolerances->type != JsonValue::Type::kObject) {
      throw std::invalid_argument{"\"tolerances\" must be an object"};
    }
    for (const auto& [name, value] : tolerances->object) {
      if (value.type != JsonValue::Type::kNumber) {
        throw std::invalid_argument{"tolerance for '" + name +
                                    "' must be a number"};
      }
      baseline.tolerances.emplace(name, value.number);
    }
  }
  return baseline;
}

Baseline load_baseline_file(const std::string& path) {
  try {
    return parse_baseline_json(read_file_or_throw(path));
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument{path + ": " + e.what()};
  }
}

std::string make_baseline_json(const Baseline& baseline) {
  std::string out;
  out += "{\n  \"schema\": \"mahimahi-bench-baseline-v1\",\n";
  out += "  \"default_tolerance\": " +
         util::format_fixed(baseline.default_tolerance, 3) + ",\n";
  out += "  \"tolerances\": {";
  bool first = true;
  for (const auto& [name, tolerance] : baseline.tolerances) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": " + util::format_fixed(tolerance, 3);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"benchmarks\": [";
  for (std::size_t i = 0; i < baseline.rows.size(); ++i) {
    const BenchRow& row = baseline.rows[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": \"" + row.name +
           "\", \"ns_per_op\": " + util::format_fixed(row.ns_per_op, 1) +
           ", \"items_per_second\": " +
           util::format_fixed(row.items_per_second, 1) +
           ", \"bytes_per_second\": " +
           util::format_fixed(row.bytes_per_second, 1) + "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

GateResult check(const Baseline& baseline,
                 const std::vector<BenchRow>& current) {
  std::map<std::string, const BenchRow*> measured;
  for (const BenchRow& row : current) {
    measured.emplace(row.name, &row);
  }
  GateResult result;
  for (const BenchRow& pinned : baseline.rows) {
    const auto tolerance_it = baseline.tolerances.find(pinned.name);
    const double tolerance = tolerance_it != baseline.tolerances.end()
                                 ? tolerance_it->second
                                 : baseline.default_tolerance;
    const auto it = measured.find(pinned.name);
    if (it == measured.end()) {
      MetricDelta delta;
      delta.row = pinned.name;
      delta.metric = "-";
      delta.status = MetricStatus::kMissing;
      result.deltas.push_back(std::move(delta));
      ++result.missing;
      continue;
    }
    const BenchRow& now = *it->second;
    compare_metric(result, pinned.name, "ns_per_op", pinned.ns_per_op,
                   now.ns_per_op, tolerance, /*lower_is_better=*/true);
    compare_metric(result, pinned.name, "items_per_second",
                   pinned.items_per_second, now.items_per_second, tolerance,
                   /*lower_is_better=*/false);
    compare_metric(result, pinned.name, "bytes_per_second",
                   pinned.bytes_per_second, now.bytes_per_second, tolerance,
                   /*lower_is_better=*/false);
    measured.erase(it);
  }
  // Rows measured but not pinned: informational, prompting a refresh.
  for (const auto& [name, row] : measured) {
    MetricDelta delta;
    delta.row = name;
    delta.metric = "-";
    delta.current = row->ns_per_op;
    delta.status = MetricStatus::kNew;
    result.deltas.push_back(std::move(delta));
  }
  return result;
}

std::string format_delta_table(const GateResult& result) {
  std::vector<std::vector<std::string>> cells;
  cells.push_back({"benchmark", "metric", "baseline", "current", "change",
                   "band", "verdict"});
  for (const MetricDelta& delta : result.deltas) {
    std::vector<std::string> row;
    row.push_back(delta.row);
    row.push_back(delta.metric);
    if (delta.status == MetricStatus::kMissing) {
      row.insert(row.end(), {"-", "(not measured)", "-", "-"});
    } else if (delta.status == MetricStatus::kNew) {
      row.insert(row.end(), {"(not pinned)", "-", "-", "-"});
    } else {
      row.push_back(util::format_fixed(delta.baseline, 1));
      row.push_back(util::format_fixed(delta.current, 1));
      row.push_back((delta.change_pct >= 0 ? "+" : "") +
                    util::format_fixed(delta.change_pct, 2) + "%");
      row.push_back("+-" + util::format_fixed(delta.tolerance * 100.0, 0) +
                    "%");
    }
    row.push_back(status_name(delta.status));
    cells.push_back(std::move(row));
  }
  // Simple fixed-width rendering (own copy: util::render_table is bench
  // table-styled; the gate prints to CI logs where alignment is enough).
  std::vector<std::size_t> widths;
  for (const auto& row : cells) {
    widths.resize(std::max(widths.size(), row.size()), 0);
    for (std::size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  std::string out;
  for (const auto& row : cells) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      out += row[i];
      if (i + 1 < row.size()) {
        out.append(widths[i] - row[i].size() + 2, ' ');
      }
    }
    out += "\n";
  }
  return out;
}

}  // namespace mahimahi::gate
