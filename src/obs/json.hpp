// Minimal JSON document model for the observability layer.
//
// The repo emits two machine-readable artifacts — BENCH_*.json reports and
// per-round JSONL traces — that must be byte-identical across thread counts
// and platforms so CI can diff them against committed baselines. Hence this
// deliberately small JSON module instead of an external dependency:
//   * objects preserve insertion order (deterministic serialization),
//   * doubles serialize via std::to_chars shortest round-trip form (no
//     locale, no precision surprises),
//   * a strict parser covers exactly the documents we emit, so schema
//     round-trip tests and tools can read reports back.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace csd::obs {

/// One JSON value. Numbers keep their C++ type (uint64/int64/double) so
/// integer metrics never round-trip through floating point.
class Json {
 public:
  enum class Kind : std::uint8_t {
    Null,
    Bool,
    Uint,
    Int,
    Double,
    String,
    Array,
    Object,
  };

  Json() : kind_(Kind::Null) {}
  Json(bool value) : kind_(Kind::Bool), bool_(value) {}
  Json(std::uint64_t value) : kind_(Kind::Uint), uint_(value) {}
  Json(std::int64_t value) : kind_(Kind::Int), int_(value) {}
  Json(double value) : kind_(Kind::Double), double_(value) {}
  Json(std::string value) : kind_(Kind::String), string_(std::move(value)) {}
  Json(const char* value) : kind_(Kind::String), string_(value) {}
  // Catch-all for other integer widths (uint32_t, int, ...).
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool> &&
             !std::is_same_v<T, std::uint64_t> &&
             !std::is_same_v<T, std::int64_t>)
  Json(T value) {
    if constexpr (std::is_signed_v<T>) {
      kind_ = Kind::Int;
      int_ = static_cast<std::int64_t>(value);
    } else {
      kind_ = Kind::Uint;
      uint_ = static_cast<std::uint64_t>(value);
    }
  }

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

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::Null; }
  bool is_number() const noexcept {
    return kind_ == Kind::Uint || kind_ == Kind::Int || kind_ == Kind::Double;
  }

  bool as_bool() const;
  std::uint64_t as_uint() const;
  std::int64_t as_int() const;
  /// Any numeric kind, widened to double.
  double as_double() const;
  const std::string& as_string() const;

  // -- arrays ---------------------------------------------------------------
  Json& push(Json value);
  void reserve(std::size_t items) { array_.reserve(items); }
  const std::vector<Json>& items() const;

  // -- objects (insertion-ordered) ------------------------------------------
  Json& set(std::string key, Json value);
  /// Member access; CHECK-fails when absent (reports have a fixed schema).
  const Json& at(std::string_view key) const;
  const Json* find(std::string_view key) const;
  const std::vector<std::pair<std::string, Json>>& members() const;

  /// Serialize. indent < 0 = compact single line (used for JSONL); otherwise
  /// pretty-printed with `indent` spaces per level.
  void write(std::ostream& os, int indent = 2) const;
  std::string dump(int indent = 2) const;

  /// Strict parse of a full document (trailing garbage and duplicate object
  /// keys are errors). Throws CheckFailure with position information on
  /// malformed input.
  static Json parse(std::string_view text);

  friend bool operator==(const Json& a, const Json& b);

 private:
  void write_indented(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::Null;
  bool bool_ = false;
  std::uint64_t uint_ = 0;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

}  // namespace csd::obs
