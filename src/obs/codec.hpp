// Field-list codecs for the formats the system reads back: csd-ckpt-v1
// snapshots (congest/snapshot.cpp), csd-fuzz-case-v1 corpus files
// (fuzz/fuzz_case.cpp), csd-trace-v2 traces (obs/trace_analysis.hpp), and
// csd-metrics-v2 series and csd-blackbox-v1 dumps (obs/metrics_v2.hpp).
//
// A record is described once, by its field list: a generic callable that
// names each member with its key,
//
//   constexpr auto frame_fields = [](auto& io, auto& frame) {
//     io("p", frame.pulse);
//     io("h", frame.sender_halted);
//     io("pl", frame.payload);
//   };
//
// encode() runs the list with a FieldWriter over a const record and builds an
// insertion-ordered JSON object; decode() runs it with a FieldReader over a
// default-constructed record and fills it in. Both directions walk the same
// list, so keys, key order and JSON kinds cannot drift apart. The list is
// plain code: a key may depend on a field listed before it (an event's kind
// decides whether it carries a packet), one list may run another's fields
// inline, and `io.reading` guards a check only a load needs.
//
// A member's C++ type decides its JSON form:
//   bool                     true / false
//   std::uint8_t             a byte flag: the number 0 or 1
//   other unsigned integers  a number
//   double, std::string      a number with a fraction or exponent, a string
//   BitVec                   {"n": length, "w": [64-bit words]}
//   std::optional<T>         null, or T
//   std::vector<T>           [T, ...]
//   std::vector<std::pair<std::string, T>>
//                            {name: T, ...}, an object keyed by name
//   std::array<T, N>         [T, ...] with exactly N entries
//   std::pair<A, B>          [A, B]
// A third argument covers the rest, and applies to the elements of vectors,
// arrays and optionals and to the values of keyed objects:
//   io(key, record, fields)  an object described by the field list `fields`
//   io(key, e, Enum::Last)   an enum as its number, 0 .. Last
//   io(key, e, names)        an enum as the string names[e]
// io.tag(key, text) writes a constant string that a load insists on.
// io.if_present(key, value) writes a member only when it is not its type's
// empty value (nullopt, an empty vector); a load then leaves it empty.
//
// The reader accepts only what the writer can produce. An object holds
// exactly the listed keys, in list order. A value has its field's JSON kind
// and fits the field: an unsigned field rejects a number above its maximum
// (2^32 - 1 for 32 bits), a flag anything but 0 or 1, an enum a number past
// its last value or an unknown name, a BitVec a word count that does not
// match its length or a bit set past it, an if_present member an empty
// value. Each failure is a CheckFailure that names the key. Duplicate keys
// never get here: Json::parse rejects them.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "support/bitvec.hpp"
#include "support/check.hpp"

namespace csd::obs {

namespace codec_detail {

/// The absent third argument of a field.
struct NoSpec {};

template <class T> inline constexpr bool kIsVector = false;
template <class T> inline constexpr bool kIsVector<std::vector<T>> = true;
template <class T> inline constexpr bool kIsArray = false;
template <class T, std::size_t N>
inline constexpr bool kIsArray<std::array<T, N>> = true;
template <class T> inline constexpr bool kIsOptional = false;
template <class T> inline constexpr bool kIsOptional<std::optional<T>> = true;
template <class T> inline constexpr bool kIsPair = false;
template <class A, class B>
inline constexpr bool kIsPair<std::pair<A, B>> = true;
template <class T> inline constexpr bool kIsNamed = false;
template <class T>
inline constexpr bool kIsNamed<std::vector<std::pair<std::string, T>>> = true;
template <class T> inline constexpr bool kUnsupported = false;

template <class T, class Spec = NoSpec>
Json write(const T& value, const Spec& spec = {});
template <class T, class Spec = NoSpec>
void read(const Json& j, std::string_view key, T& value,
          const Spec& spec = {});

}  // namespace codec_detail

/// Runs a field list over a const record, one object member per field.
class FieldWriter {
 public:
  static constexpr bool reading = false;

  explicit FieldWriter(Json& object) : object_(object) {}

  template <class T, class Spec = codec_detail::NoSpec>
  void operator()(std::string_view key, const T& value,
                  const Spec& spec = {}) {
    object_.set(std::string(key), codec_detail::write(value, spec));
  }

  template <class T, class Spec = codec_detail::NoSpec>
  void if_present(std::string_view key, const T& value,
                  const Spec& spec = {}) {
    if (!(value == T{})) (*this)(key, value, spec);
  }

  void tag(std::string_view key, std::string_view text) {
    object_.set(std::string(key), std::string(text));
  }

 private:
  Json& object_;
};

/// Runs a field list over a record being loaded: each field takes the
/// object's next member, which must carry the field's key.
class FieldReader {
 public:
  static constexpr bool reading = true;

  explicit FieldReader(const Json& object) : members_(object.members()) {}

  template <class T, class Spec = codec_detail::NoSpec>
  void operator()(std::string_view key, T& value, const Spec& spec = {}) {
    codec_detail::read(next(key), key, value, spec);
  }

  template <class T, class Spec = codec_detail::NoSpec>
  void if_present(std::string_view key, T& value, const Spec& spec = {}) {
    if (next_ == members_.size() || members_[next_].first != key) return;
    (*this)(key, value, spec);
    CSD_CHECK_MSG(!(value == T{}),
                  "key '" << key << "' is written only when present");
  }

  void tag(std::string_view key, std::string_view text) {
    const Json& j = next(key);
    CSD_CHECK_MSG(j.kind() == Json::Kind::String && j.as_string() == text,
                  "key '" << key << "' must be \"" << text << "\"");
  }

  /// After the list's last field: the object has no member left over.
  void finish() const {
    CSD_CHECK_MSG(next_ == members_.size(),
                  "unknown key '" << members_[next_].first << "'");
  }

 private:
  const Json& next(std::string_view key) {
    CSD_CHECK_MSG(next_ < members_.size(), "missing key '" << key << "'");
    const auto& [name, value] = members_[next_++];
    CSD_CHECK_MSG(name == key, "expected key '" << key << "', found '"
                                                << name << "'");
    return value;
  }

  const std::vector<std::pair<std::string, Json>>& members_;
  std::size_t next_ = 0;
};

/// `record` as the JSON object its field list describes.
template <class T, class Fields>
Json encode(const T& record, const Fields& fields) {
  return codec_detail::write(record, fields);
}

/// The strict inverse of encode(): CheckFailure, naming the key, on any
/// document encode() cannot have written.
template <class T, class Fields>
T decode(const Json& doc, const Fields& fields) {
  T record{};
  codec_detail::read(doc, "(document)", record, fields);
  return record;
}

namespace codec_detail {

inline void expect_kind(const Json& j, Json::Kind kind, std::string_view key) {
  static constexpr const char* kKindNames[] = {
      "null",     "a bool",   "an unsigned integer", "a signed integer",
      "a double", "a string", "an array",            "an object"};
  CSD_CHECK_MSG(j.kind() == kind,
                "key '" << key << "' wants "
                        << kKindNames[static_cast<std::size_t>(kind)]
                        << ", got "
                        << kKindNames[static_cast<std::size_t>(j.kind())]);
}

inline std::uint64_t read_number(const Json& j, std::string_view key,
                                 std::uint64_t max) {
  expect_kind(j, Json::Kind::Uint, key);
  const std::uint64_t number = j.as_uint();
  CSD_CHECK_MSG(number <= max, "key '" << key << "': " << number
                                       << " is above the field's maximum "
                                       << max);
  return number;
}

template <class T, class Spec>
Json write(const T& value, const Spec& spec) {
  if constexpr (kIsNamed<T>) {
    Json out = Json::object();
    for (const auto& [name, item] : value) out.set(name, write(item, spec));
    return out;
  } else if constexpr (kIsVector<T> || kIsArray<T>) {
    Json out = Json::array();
    out.reserve(value.size());
    for (const auto& item : value) out.push(write(item, spec));
    return out;
  } else if constexpr (kIsOptional<T>) {
    return value.has_value() ? write(*value, spec) : Json();
  } else if constexpr (std::is_enum_v<T> && std::is_same_v<Spec, T>) {
    return Json(static_cast<std::uint64_t>(value));
  } else if constexpr (std::is_enum_v<T>) {
    return Json(spec[static_cast<std::size_t>(value)]);
  } else if constexpr (!std::is_same_v<Spec, NoSpec>) {
    Json out = Json::object();
    FieldWriter fields(out);
    spec(fields, value);
    return out;
  } else if constexpr (kIsPair<T>) {
    Json out = Json::array();
    out.push(write(value.first));
    out.push(write(value.second));
    return out;
  } else if constexpr (std::is_same_v<T, BitVec>) {
    Json out = Json::object();
    out.set("n", std::uint64_t{value.size()});
    Json words = Json::array();
    words.reserve(value.words().size());
    for (const std::uint64_t word : value.words()) words.push(Json(word));
    out.set("w", std::move(words));
    return out;
  } else if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, double> ||
                       std::is_same_v<T, std::string>) {
    return Json(value);
  } else if constexpr (std::is_unsigned_v<T>) {
    return Json(std::uint64_t{value});
  } else {
    static_assert(kUnsupported<T>, "no JSON form for this member type");
  }
}

template <class T, class Spec>
void read(const Json& j, std::string_view key, T& value, const Spec& spec) {
  if constexpr (kIsNamed<T>) {
    expect_kind(j, Json::Kind::Object, key);
    value.clear();
    for (const auto& [name, item] : j.members()) {
      auto& [entry_name, entry] = value.emplace_back();
      entry_name = name;
      read(item, key, entry, spec);
    }
  } else if constexpr (kIsVector<T>) {
    expect_kind(j, Json::Kind::Array, key);
    value.clear();
    value.reserve(j.items().size());
    for (const Json& item : j.items())
      read(item, key, value.emplace_back(), spec);
  } else if constexpr (kIsArray<T>) {
    expect_kind(j, Json::Kind::Array, key);
    CSD_CHECK_MSG(j.items().size() == value.size(),
                  "key '" << key << "' wants " << value.size()
                          << " entries, got " << j.items().size());
    for (std::size_t i = 0; i < value.size(); ++i)
      read(j.items()[i], key, value[i], spec);
  } else if constexpr (kIsOptional<T>) {
    if (j.is_null())
      value.reset();
    else
      read(j, key, value.emplace(), spec);
  } else if constexpr (std::is_enum_v<T> && std::is_same_v<Spec, T>) {
    value = static_cast<T>(
        read_number(j, key, static_cast<std::uint64_t>(spec)));
  } else if constexpr (std::is_enum_v<T>) {
    expect_kind(j, Json::Kind::String, key);
    std::size_t index = 0;
    while (index < spec.size() && j.as_string() != spec[index]) ++index;
    CSD_CHECK_MSG(index < spec.size(), "key '" << key << "': unknown name '"
                                               << j.as_string() << "'");
    value = static_cast<T>(index);
  } else if constexpr (!std::is_same_v<Spec, NoSpec>) {
    expect_kind(j, Json::Kind::Object, key);
    FieldReader fields(j);
    spec(fields, value);
    fields.finish();
  } else if constexpr (kIsPair<T>) {
    expect_kind(j, Json::Kind::Array, key);
    CSD_CHECK_MSG(j.items().size() == 2, "key '" << key << "' wants a pair");
    read(j.items()[0], key, value.first);
    read(j.items()[1], key, value.second);
  } else if constexpr (std::is_same_v<T, BitVec>) {
    expect_kind(j, Json::Kind::Object, key);
    FieldReader fields(j);
    std::uint64_t length = 0;
    std::vector<std::uint64_t> words;
    fields("n", length);
    fields("w", words);
    fields.finish();
    value = BitVec();
    for (const std::uint64_t word : words) {
      CSD_CHECK_MSG(length > 0, "key '" << key << "': bit vector has more "
                                        << "words than bits");
      const unsigned width = length < 64 ? static_cast<unsigned>(length) : 64;
      CSD_CHECK_MSG(width == 64 || word >> width == 0,
                    "key '" << key << "': bit set past the vector's length");
      value.append_bits(word, width);
      length -= width;
    }
    CSD_CHECK_MSG(length == 0,
                  "key '" << key << "': bit vector has fewer words than bits");
  } else if constexpr (std::is_same_v<T, bool>) {
    expect_kind(j, Json::Kind::Bool, key);
    value = j.as_bool();
  } else if constexpr (std::is_same_v<T, double>) {
    expect_kind(j, Json::Kind::Double, key);
    value = j.as_double();
  } else if constexpr (std::is_same_v<T, std::string>) {
    expect_kind(j, Json::Kind::String, key);
    value = j.as_string();
  } else if constexpr (std::is_same_v<T, std::uint8_t>) {
    value = static_cast<std::uint8_t>(read_number(j, key, 1));
  } else if constexpr (std::is_unsigned_v<T>) {
    value = static_cast<T>(read_number(j, key, std::numeric_limits<T>::max()));
  } else {
    static_assert(kUnsupported<T>, "no JSON form for this member type");
  }
}

}  // namespace codec_detail

}  // namespace csd::obs
