#include "json_reader.hpp"

#include <cctype>
#include <charconv>

namespace proxima::cli {

namespace {

class Parser {
public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue document() {
    JsonValue value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after the document");
    }
    return value;
  }

private:
  /// Deepest array/object nesting accepted.  The parser recurses once per
  /// level, so an unbounded depth lets a hostile `[[[...` document exhaust
  /// the stack; proxima's own reports nest fewer than ten levels.
  static constexpr std::size_t kMaxDepth = 256;

  JsonValue parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of document");
    }
    switch (text_[pos_]) {
    case '{':
      return parse_nested(&Parser::parse_object);
    case '[':
      return parse_nested(&Parser::parse_array);
    case '"':
      return parse_string();
    case 't':
    case 'f':
      return parse_bool();
    case 'n':
      expect_literal("null");
      return JsonValue{};
    default:
      return parse_number();
    }
  }

  JsonValue parse_nested(JsonValue (Parser::*parse)()) {
    if (depth_ == kMaxDepth) {
      fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
    }
    ++depth_;
    JsonValue value = (this->*parse)();
    --depth_;
    return value;
  }

  JsonValue parse_object() {
    JsonValue value;
    value.kind = JsonValue::Kind::kObject;
    ++pos_; // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      skip_ws();
      JsonValue key = parse_string();
      skip_ws();
      if (peek() != ':') {
        fail("expected ':' after object key");
      }
      ++pos_;
      value.object.emplace_back(std::move(key.string), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return value;
      }
      fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    JsonValue value;
    value.kind = JsonValue::Kind::kArray;
    ++pos_; // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      value.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return value;
      }
      fail("expected ',' or ']' in array");
    }
  }

  JsonValue parse_string() {
    if (peek() != '"') {
      fail("expected a string");
    }
    ++pos_;
    JsonValue value;
    value.kind = JsonValue::Kind::kString;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_];
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) {
          fail("unterminated escape");
        }
        switch (text_[pos_]) {
        case 'n':
          c = '\n';
          break;
        case 't':
          c = '\t';
          break;
        case 'r':
          c = '\r';
          break;
        case 'b':
          // \b and \f used to fall into the pass-through default and decode
          // to literal 'b'/'f', corrupting round-tripped strings.
          c = '\b';
          break;
        case 'f':
          c = '\f';
          break;
        case 'u': {
          // json_writer emits \u00XX for control bytes; decode the code
          // unit (non-Latin-1 points never appear in proxima reports and
          // degrade to '?' rather than garbling the string).
          if (pos_ + 4 >= text_.size()) {
            fail("unterminated \\u escape");
          }
          unsigned code = 0;
          for (int digit = 0; digit < 4; ++digit) {
            ++pos_;
            const char hex = text_[pos_];
            code <<= 4;
            if (hex >= '0' && hex <= '9') {
              code |= static_cast<unsigned>(hex - '0');
            } else if (hex >= 'a' && hex <= 'f') {
              code |= static_cast<unsigned>(hex - 'a' + 10);
            } else if (hex >= 'A' && hex <= 'F') {
              code |= static_cast<unsigned>(hex - 'A' + 10);
            } else {
              fail("malformed \\u escape");
            }
          }
          c = code < 0x100 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          c = text_[pos_]; // \" \\ \/ pass through
          break;
        }
      }
      value.string.push_back(c);
      ++pos_;
    }
    if (pos_ >= text_.size()) {
      fail("unterminated string");
    }
    ++pos_; // closing quote
    return value;
  }

  JsonValue parse_bool() {
    JsonValue value;
    value.kind = JsonValue::Kind::kBool;
    if (text_.substr(pos_, 4) == "true") {
      value.boolean = true;
      pos_ += 4;
    } else {
      expect_literal("false");
      value.boolean = false;
    }
    return value;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    JsonValue value;
    value.kind = JsonValue::Kind::kNumber;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(first, last, value.number);
    if (start == pos_ || ec != std::errc{} || ptr != last) {
      fail("malformed number");
    }
    return value;
  }

  void expect_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      fail("malformed literal");
    }
    pos_ += literal.size();
  }

  char peek() const noexcept {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  void skip_ws() noexcept {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  [[noreturn]] void fail(const std::string& what) const {
    throw JsonParseError("JSON parse error at offset " +
                         std::to_string(pos_) + ": " + what);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

} // namespace

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).document();
}

} // namespace proxima::cli
