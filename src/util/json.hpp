// Minimal JSON document model for the API layer: parse, build, serialize.
//
// Self-contained (no third-party dependency) and deliberately small: the
// typed request/response layer (src/api) and the JSONL batch front-end
// need exactly "parse one line into a value, walk it, build a response,
// dump it compactly". Objects preserve insertion order so serialized
// responses are deterministic and diffable across runs.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "util/ints.hpp"

namespace prcost {

/// One JSON value: null, bool, integer, double, string, array, or object.
/// Integers are kept separately from doubles so u64 counts (bitstream
/// bytes, cell totals) and seeds round-trip exactly: an integer is held as
/// i64, or as u64 above i64's range, and either is Kind::kInt.
class Json {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };
  using Array = std::vector<Json>;
  using Member = std::pair<std::string, Json>;
  using Object = std::vector<Member>;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}             // NOLINT(runtime/explicit)
  Json(bool b) : value_(b) {}                           // NOLINT(runtime/explicit)
  Json(int v) : value_(static_cast<i64>(v)) {}          // NOLINT(runtime/explicit)
  Json(i64 v) : value_(v) {}                            // NOLINT(runtime/explicit)
  Json(u64 v);                                          // NOLINT(runtime/explicit)
  Json(u32 v) : value_(static_cast<i64>(v)) {}          // NOLINT(runtime/explicit)
  Json(double v) : value_(v) {}                         // NOLINT(runtime/explicit)
  Json(const char* s) : value_(std::string{s}) {}       // NOLINT(runtime/explicit)
  Json(std::string s) : value_(std::move(s)) {}         // NOLINT(runtime/explicit)
  Json(std::string_view s) : value_(std::string{s}) {}  // NOLINT(runtime/explicit)

  static Json array() { return Json{Array{}}; }
  static Json object() { return Json{Object{}}; }

  Kind kind() const;
  bool is_null() const { return kind() == Kind::kNull; }
  bool is_object() const { return kind() == Kind::kObject; }
  bool is_array() const { return kind() == Kind::kArray; }
  bool is_string() const { return kind() == Kind::kString; }
  bool is_number() const {
    return kind() == Kind::kInt || kind() == Kind::kDouble;
  }

  /// Typed accessors; throw ParseError naming the expected kind so batch
  /// request decoding reports "field X: expected string" style messages.
  bool as_bool() const;
  i64 as_i64() const;           ///< throws above i64's range
  u64 as_u64() const;           ///< any non-negative integer
  double as_double() const;     ///< accepts kInt too
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object: append `key` (or overwrite an existing one), returning *this
  /// so response builders can chain.
  Json& set(std::string key, Json value);
  /// Object: member pointer or nullptr when absent (or not an object).
  const Json* find(std::string_view key) const;
  /// Array: append.
  void push_back(Json value);

  /// Compact serialization (no whitespace, no trailing newline). Doubles
  /// use shortest round-trip form; non-finite doubles serialize as null.
  std::string dump() const;

  /// Parse a complete JSON document; throws ParseError with a byte offset
  /// on malformed input or trailing garbage.
  static Json parse(std::string_view text);

 private:
  explicit Json(Array a) : value_(std::move(a)) {}
  explicit Json(Object o) : value_(std::move(o)) {}

  void dump_to(std::string& out) const;

  /// Alternatives 0..6 are the Kinds in order; the trailing u64 holds
  /// integers above i64's range and is also Kind::kInt.
  std::variant<std::nullptr_t, bool, i64, double, std::string, Array, Object,
               u64>
      value_;
};

}  // namespace prcost
