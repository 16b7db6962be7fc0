// Minimal JSON for the service layer: the wire protocol (newline-delimited
// JSON over a Unix socket) and the cache artifact format.  No external
// dependency; the subset implemented is exactly what the protocol needs —
// null/bool/number/string/array/object, with objects kept as *ordered*
// key-value vectors so dump(parse(dump(v))) is byte-identical (the cache
// digests serialized artifacts, so serialization must be deterministic).
//
// Numbers distinguish integers from doubles: every count in an artifact is
// an int64 (rendered without a decimal point, so 5 never becomes 5.0 across
// a round trip); doubles are rendered with %.17g (round-trip exact).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mps::svc {

class Json {
 public:
  enum class Kind { Null, Bool, Int, Double, String, Array, Object };

  Json() = default;  // null
  Json(bool b) : kind_(Kind::Bool), bool_(b) {}
  Json(std::int64_t v) : kind_(Kind::Int), int_(v) {}
  Json(int v) : kind_(Kind::Int), int_(v) {}
  Json(std::size_t v) : kind_(Kind::Int), int_(static_cast<std::int64_t>(v)) {}
  Json(double v) : kind_(Kind::Double), double_(v) {}
  Json(std::string s) : kind_(Kind::String), str_(std::move(s)) {}
  Json(const char* s) : kind_(Kind::String), str_(s) {}

  static Json array() {
    Json j;
    j.kind_ = Kind::Array;
    return j;
  }
  static Json object() {
    Json j;
    j.kind_ = Kind::Object;
    return j;
  }

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::Object; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_string() const { return kind_ == Kind::String; }
  bool is_number() const { return kind_ == Kind::Int || kind_ == Kind::Double; }

  bool as_bool() const;                ///< MPS_ASSERTs on kind mismatch
  std::int64_t as_int() const;         ///< Int, or a Double with integral value
  double as_double() const;            ///< Int or Double
  const std::string& as_string() const;

  /// Array access.
  const std::vector<Json>& items() const;
  void push_back(Json v);

  /// Object access.  Lookup is linear — protocol objects are small.
  const std::vector<std::pair<std::string, Json>>& members() const;
  /// nullptr when absent or not an object.
  const Json* find(std::string_view key) const;
  /// Append (no duplicate-key check; callers build objects once).
  void set(std::string key, Json v);

  /// Typed convenience lookups for protocol parsing: value of `key` when
  /// present and of the right kind, `fallback` otherwise.
  std::int64_t get_int(std::string_view key, std::int64_t fallback) const;
  double get_double(std::string_view key, double fallback) const;
  bool get_bool(std::string_view key, bool fallback) const;
  std::string get_string(std::string_view key, const std::string& fallback) const;

  /// Compact single-line rendering (deterministic; see file comment).
  std::string dump() const;

  /// Parse a complete JSON document; trailing non-whitespace, unterminated
  /// strings, bad escapes etc. throw util::ParseError.
  static Json parse(std::string_view text);

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

}  // namespace mps::svc
