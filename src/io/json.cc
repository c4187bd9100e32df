#include "io/json.h"

#include <cmath>
#include <cstdio>
#include <limits>

#include "core/parse.h"

namespace decaylib::io {

Json Json::Bool(bool b) {
  Json j;
  j.kind_ = Kind::kBool;
  j.bool_ = b;
  return j;
}

Json Json::Number(double v) {
  Json j;
  j.kind_ = Kind::kNumber;
  j.number_ = v;
  return j;
}

Json Json::String(std::string s) {
  Json j;
  j.kind_ = Kind::kString;
  j.string_ = std::move(s);
  return j;
}

Json Json::Array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json Json::Object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

bool Json::AsBool() const {
  DL_CHECK(kind_ == Kind::kBool, "Json::AsBool on a non-bool value");
  return bool_;
}

double Json::AsNumber() const {
  DL_CHECK(kind_ == Kind::kNumber, "Json::AsNumber on a non-number value");
  return number_;
}

core::StatusOr<long long> Json::AsInteger(long long lo, long long hi) const {
  // Integral and inside long long's range (2^63 itself is not): only then
  // is the cast defined.
  if (kind_ == Kind::kNumber && std::trunc(number_) == number_ &&
      number_ >= -0x1p63 && number_ < 0x1p63) {
    const long long value = static_cast<long long>(number_);
    if (value >= lo && value <= hi) return value;
  }
  return core::Status::IoError("expected an integer in [" +
                               std::to_string(lo) + ", " +
                               std::to_string(hi) + "]");
}

const std::string& Json::AsString() const {
  DL_CHECK(kind_ == Kind::kString, "Json::AsString on a non-string value");
  return string_;
}

const std::vector<Json>& Json::Items() const {
  DL_CHECK(kind_ == Kind::kArray, "Json::Items on a non-array value");
  return items_;
}

const std::vector<Json::Member>& Json::Members() const {
  DL_CHECK(kind_ == Kind::kObject, "Json::Members on a non-object value");
  return members_;
}

void Json::Append(Json value) {
  DL_CHECK(kind_ == Kind::kArray, "Json::Append on a non-array value");
  items_.push_back(std::move(value));
}

void Json::Set(std::string key, Json value) {
  DL_CHECK(kind_ == Kind::kObject, "Json::Set on a non-object value");
  members_.emplace_back(std::move(key), std::move(value));
}

const Json* Json::Find(const std::string& key) const {
  DL_CHECK(kind_ == Kind::kObject, "Json::Find on a non-object value");
  for (const Member& member : members_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

core::StatusOr<const Json*> Json::Get(const std::string& key,
                                      Kind want) const {
  static constexpr const char* kKindNames[] = {
      "null", "a bool", "a number", "a string", "an array", "an object"};
  const Json* member = kind_ == Kind::kObject ? Find(key) : nullptr;
  if (member == nullptr) {
    return core::Status::IoError("missing field '" + key + "'");
  }
  if (member->kind_ != want) {
    return core::Status::IoError("field '" + key + "': expected " +
                                 kKindNames[static_cast<int>(want)]);
  }
  return member;
}

namespace {

// Recursive-descent parser over a complete in-memory document.  Positions
// are byte offsets; errors carry the offset so truncated checkpoints are
// diagnosable.  Depth is capped to keep adversarial nesting from
// overflowing the stack.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  core::StatusOr<Json> Run() {
    Json value;
    core::Status s = ParseValue(value, 0);
    if (!s.ok()) return s;
    SkipSpace();
    if (pos_ != text_.size()) return Error("trailing characters");
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  core::Status Error(const std::string& what) const {
    return core::Status::IoError("json parse error at offset " +
                                 std::to_string(pos_) + ": " + what);
  }

  void SkipSpace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(const char* word) {
    std::size_t p = pos_;
    for (const char* c = word; *c != '\0'; ++c, ++p) {
      if (p >= text_.size() || text_[p] != *c) return false;
    }
    pos_ = p;
    return true;
  }

  core::Status ParseValue(Json& out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipSpace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"': {
        std::string s;
        if (core::Status st = ParseString(s); !st.ok()) return st;
        out = Json::String(std::move(s));
        return core::Status::Ok();
      }
      case 't':
        if (ConsumeWord("true")) {
          out = Json::Bool(true);
          return core::Status::Ok();
        }
        return Error("invalid literal");
      case 'f':
        if (ConsumeWord("false")) {
          out = Json::Bool(false);
          return core::Status::Ok();
        }
        return Error("invalid literal");
      case 'n':
        if (ConsumeWord("null")) {
          out = Json::Null();
          return core::Status::Ok();
        }
        return Error("invalid literal");
      default:
        return ParseNumber(out);
    }
  }

  core::Status ParseObject(Json& out, int depth) {
    ++pos_;  // '{'
    out = Json::Object();
    SkipSpace();
    if (Consume('}')) return core::Status::Ok();
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      std::string key;
      if (core::Status st = ParseString(key); !st.ok()) return st;
      SkipSpace();
      if (!Consume(':')) return Error("expected ':'");
      Json value;
      if (core::Status st = ParseValue(value, depth + 1); !st.ok()) return st;
      out.Set(std::move(key), std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) return core::Status::Ok();
      return Error("expected ',' or '}'");
    }
  }

  core::Status ParseArray(Json& out, int depth) {
    ++pos_;  // '['
    out = Json::Array();
    SkipSpace();
    if (Consume(']')) return core::Status::Ok();
    while (true) {
      Json value;
      if (core::Status st = ParseValue(value, depth + 1); !st.ok()) return st;
      out.Append(std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume(']')) return core::Status::Ok();
      return Error("expected ',' or ']'");
    }
  }

  core::Status ParseString(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return core::Status::Ok();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          // \uXXXX; non-ASCII code points are passed through as UTF-8.
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Error("invalid \\u escape");
          }
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
          return Error("invalid escape");
      }
    }
    return Error("unterminated string");
  }

  core::Status ParseNumber(Json& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return Error("expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    constexpr double kMax = std::numeric_limits<double>::max();
    double value = 0.0;
    if (!core::ParseDouble(token.c_str(), -kMax, kMax, &value)) {
      pos_ = start;
      return Error("invalid number '" + token + "'");
    }
    out = Json::Number(value);
    return core::Status::Ok();
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// Escapes a string for embedding inside a JSON string literal (quotes,
// backslashes, control characters; no surrounding quotes added).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  char buf[8];
  for (const char c : s) {
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
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

core::StatusOr<Json> Json::Parse(const std::string& text) {
  return Parser(text).Run();
}

std::string Json::Dump() const {
  switch (kind_) {
    case Kind::kNull:
      return "null";
    case Kind::kBool:
      return bool_ ? "true" : "false";
    case Kind::kNumber: {
      DL_CHECK(std::isfinite(number_),
               "Dump cannot emit non-finite numbers; store them as strings");
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", number_);
      return buf;
    }
    case Kind::kString: {
      std::string out = "\"";
      out += JsonEscape(string_);
      out += '"';
      return out;
    }
    case Kind::kArray: {
      std::string out = "[";
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out += ",";
        out += items_[i].Dump();
      }
      return out + "]";
    }
    case Kind::kObject: {
      std::string out = "{";
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out += ",";
        out += '"';
        out += JsonEscape(members_[i].first);
        out += "\":";
        out += members_[i].second.Dump();
      }
      return out + "}";
    }
  }
  return "null";
}

}  // namespace decaylib::io
