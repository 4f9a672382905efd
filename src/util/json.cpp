#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/error.hpp"

namespace prcost {
namespace {

const char* kind_name(Json::Kind kind) {
  switch (kind) {
    case Json::Kind::kNull:   return "null";
    case Json::Kind::kBool:   return "bool";
    case Json::Kind::kInt:    return "int";
    case Json::Kind::kDouble: return "double";
    case Json::Kind::kString: return "string";
    case Json::Kind::kArray:  return "array";
    case Json::Kind::kObject: return "object";
  }
  return "?";
}

[[noreturn]] void wrong_kind(std::string_view wanted, Json::Kind got) {
  throw ParseError{"Json: expected " + std::string{wanted} + ", got " +
                   kind_name(got)};
}

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':  out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;  // UTF-8 bytes pass through verbatim
        }
    }
  }
  out += '"';
}

/// Recursive-descent parser over a string_view; `pos_` is the byte offset
/// reported in ParseError messages.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError{"Json: " + what + " at offset " + std::to_string(pos_)};
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string{"expected '"} + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Json parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json{parse_string()};
      case 't':
        if (consume_literal("true")) return Json{true};
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json{false};
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json{nullptr};
        fail("invalid literal");
      default:  return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json object = Json::object();
    skip_ws();
    if (peek() == '}') { ++pos_; return object; }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      object.set(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      expect('}');
      return object;
    }
  }

  Json parse_array() {
    expect('[');
    Json array = Json::array();
    skip_ws();
    if (peek() == ']') { ++pos_; return array; }
    while (true) {
      array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      expect(']');
      return array;
    }
  }

  std::string parse_string() {
    if (peek() != '"') fail("expected string");
    ++pos_;
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') { out += c; continue; }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':  out += '"'; break;
        case '\\': out += '\\'; break;
        case '/':  out += '/'; break;
        case 'b':  out += '\b'; break;
        case 'f':  out += '\f'; break;
        case 'n':  out += '\n'; break;
        case 'r':  out += '\r'; break;
        case 't':  out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // Encode the BMP code point as UTF-8 (surrogate pairs are rare
          // in request traffic; a lone surrogate encodes as-is).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") fail("expected a value");
    const bool integral =
        token.find_first_of(".eE") == std::string_view::npos;
    if (integral) {
      const char* end = token.data() + token.size();
      i64 value = 0;
      const auto [ptr, ec] = std::from_chars(token.data(), end, value);
      if (ec == std::errc{} && ptr == end) return Json{value};
      u64 big = 0;
      const auto [big_ptr, big_ec] = std::from_chars(token.data(), end, big);
      if (big_ec == std::errc{} && big_ptr == end) return Json{big};
      // fall through (beyond u64) to double
    }
    double value = 0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc{} || ptr != token.data() + token.size()) {
      fail("malformed number '" + std::string{token} + "'");
    }
    return Json{value};
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json::Json(u64 v) {
  if (v > static_cast<u64>(std::numeric_limits<i64>::max())) {
    value_ = v;
  } else {
    value_ = static_cast<i64>(v);
  }
}

Json::Kind Json::kind() const {
  if (std::holds_alternative<u64>(value_)) return Kind::kInt;
  return static_cast<Kind>(value_.index());
}

bool Json::as_bool() const {
  if (const bool* b = std::get_if<bool>(&value_)) return *b;
  wrong_kind("bool", kind());
}

i64 Json::as_i64() const {
  if (const i64* v = std::get_if<i64>(&value_)) return *v;
  if (std::holds_alternative<u64>(value_)) {
    throw ParseError{"Json: integer above the i64 range"};
  }
  wrong_kind("int", kind());
}

u64 Json::as_u64() const {
  if (const u64* big = std::get_if<u64>(&value_)) return *big;
  const i64 v = as_i64();
  if (v < 0) throw ParseError{"Json: expected a non-negative integer"};
  return static_cast<u64>(v);
}

double Json::as_double() const {
  if (const double* v = std::get_if<double>(&value_)) return *v;
  if (const i64* v = std::get_if<i64>(&value_)) {
    return static_cast<double>(*v);
  }
  if (const u64* big = std::get_if<u64>(&value_)) {
    return static_cast<double>(*big);
  }
  wrong_kind("number", kind());
}

const std::string& Json::as_string() const {
  if (const std::string* s = std::get_if<std::string>(&value_)) return *s;
  wrong_kind("string", kind());
}

const Json::Array& Json::as_array() const {
  if (const Array* a = std::get_if<Array>(&value_)) return *a;
  wrong_kind("array", kind());
}

const Json::Object& Json::as_object() const {
  if (const Object* o = std::get_if<Object>(&value_)) return *o;
  wrong_kind("object", kind());
}

Json& Json::set(std::string key, Json value) {
  if (!is_object()) wrong_kind("object", kind());
  Object& members = std::get<Object>(value_);
  for (Member& member : members) {
    if (member.first == key) {
      member.second = std::move(value);
      return *this;
    }
  }
  members.emplace_back(std::move(key), std::move(value));
  return *this;
}

const Json* Json::find(std::string_view key) const {
  const Object* members = std::get_if<Object>(&value_);
  if (members == nullptr) return nullptr;
  for (const Member& member : *members) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

void Json::push_back(Json value) {
  if (!is_array()) wrong_kind("array", kind());
  std::get<Array>(value_).push_back(std::move(value));
}

void Json::dump_to(std::string& out) const {
  const Json& value = *this;
  switch (value.kind()) {
    case Json::Kind::kNull:
      out += "null";
      return;
    case Json::Kind::kBool:
      out += value.as_bool() ? "true" : "false";
      return;
    case Json::Kind::kInt: {
      char buf[24];
      const u64* big = std::get_if<u64>(&value_);
      const auto [ptr, ec] =
          big != nullptr ? std::to_chars(buf, buf + sizeof buf, *big)
                         : std::to_chars(buf, buf + sizeof buf, value.as_i64());
      out.append(buf, ptr);
      return;
    }
    case Json::Kind::kDouble: {
      const double v = value.as_double();
      if (!std::isfinite(v)) {
        out += "null";  // JSON has no Inf/NaN
        return;
      }
      char buf[32];
      const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
      out.append(buf, ptr);
      return;
    }
    case Json::Kind::kString:
      append_escaped(out, value.as_string());
      return;
    case Json::Kind::kArray: {
      out += '[';
      bool first = true;
      for (const Json& element : value.as_array()) {
        if (!first) out += ',';
        first = false;
        element.dump_to(out);
      }
      out += ']';
      return;
    }
    case Json::Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, member] : value.as_object()) {
        if (!first) out += ',';
        first = false;
        append_escaped(out, key);
        out += ':';
        member.dump_to(out);
      }
      out += '}';
      return;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

Json Json::parse(std::string_view text) {
  return Parser{text}.parse_document();
}

}  // namespace prcost
