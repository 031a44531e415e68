#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <ostream>

#include "support/check.hpp"

namespace csd::obs {

bool Json::as_bool() const {
  CSD_CHECK_MSG(kind_ == Kind::Bool, "JSON value is not a bool");
  return bool_;
}

std::uint64_t Json::as_uint() const {
  if (kind_ == Kind::Int) {
    CSD_CHECK_MSG(int_ >= 0, "negative JSON integer read as unsigned");
    return static_cast<std::uint64_t>(int_);
  }
  CSD_CHECK_MSG(kind_ == Kind::Uint, "JSON value is not an unsigned integer");
  return uint_;
}

std::int64_t Json::as_int() const {
  if (kind_ == Kind::Uint) {
    CSD_CHECK_MSG(uint_ <= static_cast<std::uint64_t>(
                               std::numeric_limits<std::int64_t>::max()),
                  "JSON integer overflows int64");
    return static_cast<std::int64_t>(uint_);
  }
  CSD_CHECK_MSG(kind_ == Kind::Int, "JSON value is not an integer");
  return int_;
}

double Json::as_double() const {
  switch (kind_) {
    case Kind::Uint:
      return static_cast<double>(uint_);
    case Kind::Int:
      return static_cast<double>(int_);
    case Kind::Double:
      return double_;
    default:
      CSD_CHECK_MSG(false, "JSON value is not numeric");
      return 0.0;
  }
}

const std::string& Json::as_string() const {
  CSD_CHECK_MSG(kind_ == Kind::String, "JSON value is not a string");
  return string_;
}

Json& Json::push(Json value) {
  CSD_CHECK_MSG(kind_ == Kind::Array, "push on a non-array JSON value");
  array_.push_back(std::move(value));
  return *this;
}

const std::vector<Json>& Json::items() const {
  CSD_CHECK_MSG(kind_ == Kind::Array, "items on a non-array JSON value");
  return array_;
}

Json& Json::set(std::string key, Json value) {
  CSD_CHECK_MSG(kind_ == Kind::Object, "set on a non-object JSON value");
  for (auto& [k, v] : object_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
  return *this;
}

const Json& Json::at(std::string_view key) const {
  const Json* found = find(key);
  CSD_CHECK_MSG(found != nullptr, "missing JSON object key '" << key << "'");
  return *found;
}

const Json* Json::find(std::string_view key) const {
  CSD_CHECK_MSG(kind_ == Kind::Object, "find on a non-object JSON value");
  for (const auto& [k, v] : object_)
    if (k == key) return &v;
  return nullptr;
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  CSD_CHECK_MSG(kind_ == Kind::Object, "members on a non-object JSON value");
  return object_;
}

static void write_json_string(std::string& out, std::string_view s) {
  out += '"';
  std::size_t run = 0;  // start of the characters still to copy as they are
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
        out += buf;
      }
    }
  }
  out.append(s, run);
  out += '"';
}

/// Shortest round-trip formatting for doubles ("1.5", "0.125", "1e-09"...);
/// integral-valued doubles gain a trailing ".0" so they re-parse as Double.
static std::string format_json_double(double value) {
  CSD_CHECK_MSG(std::isfinite(value),
                "JSON cannot represent non-finite number");
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, value);
  CSD_CHECK(ec == std::errc{});
  std::string s(buf, ptr);
  // Keep the Double kind on re-parse: 3.0 must not collapse to the int 3.
  if (s.find_first_of(".eE") == std::string::npos) s += ".0";
  return s;
}

void Json::write(std::ostream& os, int indent) const {
  os << dump(indent);
}

std::string Json::dump(int indent) const {
  std::string out;
  write_indented(out, indent, 0);
  return out;
}

void Json::write_indented(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const auto newline_pad = [&](int d) {
    if (!pretty) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  const auto number = [&](auto value) {
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
  };
  switch (kind_) {
    case Kind::Null:
      out += "null";
      break;
    case Kind::Bool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::Uint:
      number(uint_);
      break;
    case Kind::Int:
      number(int_);
      break;
    case Kind::Double:
      out += format_json_double(double_);
      break;
    case Kind::String:
      write_json_string(out, string_);
      break;
    case Kind::Array: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      // Arrays of scalars stay on one line even in pretty mode (the trace
      // per-node vectors would otherwise dominate the file).
      bool scalar_only = true;
      for (const Json& item : array_)
        scalar_only = scalar_only && item.kind_ != Kind::Array &&
                      item.kind_ != Kind::Object;
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += scalar_only && pretty ? ", " : ",";
        if (!scalar_only) newline_pad(depth + 1);
        array_[i].write_indented(out, scalar_only ? -1 : indent, depth + 1);
      }
      if (!scalar_only) newline_pad(depth);
      out += ']';
      break;
    }
    case Kind::Object: {
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out += ',';
        newline_pad(depth + 1);
        write_json_string(out, object_[i].first);
        out += pretty ? ": " : ":";
        object_[i].second.write_indented(out, indent, depth + 1);
      }
      newline_pad(depth);
      out += '}';
      break;
    }
  }
}

bool operator==(const Json& a, const Json& b) {
  if (a.kind_ != b.kind_) {
    // Uint/Int cross-compare: a non-negative Int equals the same Uint.
    if (a.is_number() && b.is_number() && a.kind_ != Json::Kind::Double &&
        b.kind_ != Json::Kind::Double)
      return a.as_int() == b.as_int();
    return false;
  }
  switch (a.kind_) {
    case Json::Kind::Null:
      return true;
    case Json::Kind::Bool:
      return a.bool_ == b.bool_;
    case Json::Kind::Uint:
      return a.uint_ == b.uint_;
    case Json::Kind::Int:
      return a.int_ == b.int_;
    case Json::Kind::Double:
      return a.double_ == b.double_;
    case Json::Kind::String:
      return a.string_ == b.string_;
    case Json::Kind::Array:
      return a.array_ == b.array_;
    case Json::Kind::Object:
      return a.object_ == b.object_;
  }
  return false;
}

namespace {

/// Recursive-descent parser for exactly the JSON we emit (no comments, no
/// NaN/Infinity, UTF-8 passed through untouched).
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_ws();
    CSD_CHECK_MSG(pos_ == text_.size(),
                  "trailing characters after JSON document at offset "
                      << pos_);
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    CSD_CHECK_MSG(false, "JSON parse error at offset " << pos_ << ": "
                                                       << what);
    std::abort();  // unreachable; CSD_CHECK_MSG throws
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Json parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return Json(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Json(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Json(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Json();
      default:
        return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      if (obj.find(key) != nullptr) fail("duplicate key '" + key + "'");
      skip_ws();
      expect(':');
      obj.set(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return obj;
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return arr;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9')
              code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad \\u escape");
          }
          // We only emit \u for control characters; decode BMP code points
          // to UTF-8 so round-trips are lossless.
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
        default:
          fail("bad escape character");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty()) fail("expected a value");
    const std::size_t first = token[0] == '-' ? 1 : 0;
    if (token.size() > first + 1 && token[first] == '0' &&
        std::isdigit(static_cast<unsigned char>(token[first + 1])))
      fail("leading zero in number");
    const bool floating =
        token.find_first_of(".eE") != std::string_view::npos;
    if (!floating) {
      if (token[0] == '-') {
        std::int64_t value = 0;
        const auto [p, ec] =
            std::from_chars(token.data(), token.data() + token.size(), value);
        if (ec != std::errc{} || p != token.data() + token.size())
          fail("bad integer");
        return Json(value);
      }
      std::uint64_t value = 0;
      const auto [p, ec] =
          std::from_chars(token.data(), token.data() + token.size(), value);
      if (ec != std::errc{} || p != token.data() + token.size())
        fail("bad integer");
      return Json(value);
    }
    double value = 0.0;
    const auto [p, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc{} || p != token.data() + token.size())
      fail("bad number");
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace csd::obs
