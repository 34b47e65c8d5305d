#include "common/json_writer.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/parse.hpp"

namespace vcaqoe::common {

JsonValue::JsonValue(std::uint64_t value) {
  if (value <=
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max())) {
    type_ = Type::kInt;
    int_ = static_cast<std::int64_t>(value);
  } else {
    type_ = Type::kDouble;
    double_ = static_cast<double>(value);
  }
}

JsonValue& JsonValue::set(std::string key, JsonValue value) {
  type_ = Type::kObject;
  for (auto& member : members_) {
    if (member.first == key) {
      member.second = std::move(value);
      return member.second;
    }
  }
  members_.emplace_back(std::move(key), std::move(value));
  return members_.back().second;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& member : members_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

JsonValue& JsonValue::push(JsonValue value) {
  type_ = Type::kArray;
  items_.push_back(std::move(value));
  return items_.back();
}

std::size_t JsonValue::size() const {
  if (type_ == Type::kObject) return members_.size();
  if (type_ == Type::kArray) return items_.size();
  return 0;
}

std::string jsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;  // UTF-8 bytes pass through
        }
    }
  }
  return out;
}

std::string jsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  // std::to_chars emits the shortest representation that round-trips.
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  std::string out(buf, result.ptr);
  // Keep the double-ness visible: "2" would parse back as an integer.
  if (out.find_first_of(".eE") == std::string::npos) out += ".0";
  return out;
}

void JsonValue::dumpTo(std::string& out, int indent, int depth) const {
  const auto newline = [&](int levels) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent) *
                   static_cast<std::size_t>(levels),
               ' ');
  };
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kInt: {
      char buf[24];
      const auto result = std::to_chars(buf, buf + sizeof(buf), int_);
      out.append(buf, result.ptr);
      break;
    }
    case Type::kDouble:
      out += jsonNumber(double_);
      break;
    case Type::kString:
      out += '"';
      out += jsonEscape(string_);
      out += '"';
      break;
    case Type::kObject: {
      if (members_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      bool first = true;
      for (const auto& [key, value] : members_) {
        if (!first) out += ',';
        first = false;
        newline(depth + 1);
        out += '"';
        out += jsonEscape(key);
        out += indent > 0 ? "\": " : "\":";
        value.dumpTo(out, indent, depth + 1);
      }
      newline(depth);
      out += '}';
      break;
    }
    case Type::kArray: {
      if (items_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      bool first = true;
      for (const auto& item : items_) {
        if (!first) out += ',';
        first = false;
        newline(depth + 1);
        item.dumpTo(out, indent, depth + 1);
      }
      newline(depth);
      out += ']';
      break;
    }
  }
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dumpTo(out, indent, 0);
  return out;
}

// ---------------------------------------------------------------- parser

namespace {

/// Strict recursive-descent JSON parser. Tracks a byte cursor for error
/// messages and caps nesting depth (the schema files are shallow; a depth
/// bomb must not overflow the stack).
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> run(std::string* error) {
    JsonValue value;
    if (!parseValue(value, 0)) {
      fail("invalid JSON value");
    } else {
      skipWhitespace();
      if (pos_ != text_.size()) fail("trailing characters after document");
    }
    if (!error_.empty()) {
      if (error) *error = error_;
      return std::nullopt;
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void fail(const std::string& message) {
    if (error_.empty()) {
      error_ = message + " at byte " + std::to_string(pos_);
    }
  }

  void skipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool parseValue(JsonValue& out, int depth) {
    if (depth > kMaxDepth) {
      fail("nesting too deep");
      return false;
    }
    skipWhitespace();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return false;
    }
    const char c = text_[pos_];
    if (c == '{') return parseObject(out, depth);
    if (c == '[') return parseArray(out, depth);
    if (c == '"') return parseString(out);
    if (c == '-' || (c >= '0' && c <= '9')) return parseNumber(out);
    if (literal("true")) {
      out = JsonValue(true);
      return true;
    }
    if (literal("false")) {
      out = JsonValue(false);
      return true;
    }
    if (literal("null")) {
      out = JsonValue();
      return true;
    }
    fail("unexpected character");
    return false;
  }

  bool parseObject(JsonValue& out, int depth) {
    ++pos_;  // '{'
    out = JsonValue::object();
    skipWhitespace();
    if (consume('}')) return true;
    for (;;) {
      skipWhitespace();
      JsonValue key;
      if (pos_ >= text_.size() || text_[pos_] != '"' || !parseString(key)) {
        fail("expected object key string");
        return false;
      }
      skipWhitespace();
      if (!consume(':')) {
        fail("expected ':' after object key");
        return false;
      }
      JsonValue value;
      if (!parseValue(value, depth + 1)) return false;
      out.set(key.asString(), std::move(value));
      skipWhitespace();
      if (consume(',')) continue;
      if (consume('}')) return true;
      fail("expected ',' or '}' in object");
      return false;
    }
  }

  bool parseArray(JsonValue& out, int depth) {
    ++pos_;  // '['
    out = JsonValue::array();
    skipWhitespace();
    if (consume(']')) return true;
    for (;;) {
      JsonValue value;
      if (!parseValue(value, depth + 1)) return false;
      out.push(std::move(value));
      skipWhitespace();
      if (consume(',')) continue;
      if (consume(']')) return true;
      fail("expected ',' or ']' in array");
      return false;
    }
  }

  /// One \uXXXX unit (cursor past the 'u'); 0xFFFFFFFF on error.
  std::uint32_t parseHex4() {
    if (pos_ + 4 > text_.size()) return 0xFFFFFFFF;
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f')
        value |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        value |= static_cast<std::uint32_t>(c - 'A' + 10);
      else
        return 0xFFFFFFFF;
    }
    pos_ += 4;
    return value;
  }

  static void appendUtf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool parseString(JsonValue& out) {
    ++pos_;  // '"'
    std::string value;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        out = JsonValue(std::move(value));
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
        return false;
      }
      if (c != '\\') {
        value += c;
        ++pos_;
        continue;
      }
      ++pos_;  // '\'
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': value += '"'; break;
        case '\\': value += '\\'; break;
        case '/': value += '/'; break;
        case 'b': value += '\b'; break;
        case 'f': value += '\f'; break;
        case 'n': value += '\n'; break;
        case 'r': value += '\r'; break;
        case 't': value += '\t'; break;
        case 'u': {
          std::uint32_t cp = parseHex4();
          if (cp == 0xFFFFFFFF) {
            fail("invalid \\u escape");
            return false;
          }
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a \uXXXX low surrogate must follow.
            if (!literal("\\u")) {
              fail("unpaired surrogate");
              return false;
            }
            const std::uint32_t low = parseHex4();
            if (low < 0xDC00 || low > 0xDFFF) {
              fail("invalid low surrogate");
              return false;
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired surrogate");
            return false;
          }
          appendUtf8(value, cp);
          break;
        }
        default:
          fail("invalid escape character");
          return false;
      }
    }
    fail("unterminated string");
    return false;
  }

  bool parseNumber(JsonValue& out) {
    const std::size_t start = pos_;
    // Validate against the JSON grammar (stricter than strtod: no leading
    // '+', no leading zeros, no hex, no "inf"/"nan").
    if (consume('-') && pos_ >= text_.size()) {
      fail("invalid number");
      return false;
    }
    const auto digits = [&] {
      std::size_t n = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++n;
      }
      return n;
    };
    if (consume('0')) {
      if (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        fail("leading zero in number");
        return false;
      }
    } else if (digits() == 0) {
      fail("invalid number");
      return false;
    }
    bool isInt = true;
    if (consume('.')) {
      isInt = false;
      if (digits() == 0) {
        fail("expected digits after decimal point");
        return false;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      isInt = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (digits() == 0) {
        fail("expected digits in exponent");
        return false;
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (isInt) {
      std::int64_t value = 0;
      const auto result =
          std::from_chars(token.data(), token.data() + token.size(), value);
      if (result.ec == std::errc() &&
          result.ptr == token.data() + token.size()) {
        out = JsonValue(value);
        return true;
      }
      // Out of int64 range: fall through to double.
    }
    double value = 0.0;
    const auto result =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (result.ec == std::errc::result_out_of_range) {
      // JSON numbers beyond double range clamp to +/-HUGE_VAL like strtod
      // (underflow clamps to +/-0). libstdc++'s from_chars leaves `value`
      // untouched here — "-1e999999" would silently become 0.0 — so decide
      // overflow vs underflow from the token's decimal exponent ourselves.
      // The two regimes are hundreds of decimal orders apart, so the crude
      // exponent estimate in `outOfRangeDouble` cannot pick the wrong side.
      out = JsonValue(outOfRangeDouble(token));
      return true;
    }
    if (result.ec != std::errc() || result.ptr != token.data() + token.size()) {
      fail("invalid number");
      return false;
    }
    out = JsonValue(value);
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<JsonValue> JsonValue::parse(std::string_view text,
                                          std::string* error) {
  return Parser(text).run(error);
}

}  // namespace vcaqoe::common
