#include "src/serve/codec.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "src/sim/error.hpp"
#include "src/spec/policy.hpp"

namespace st2::serve {

namespace {

using sim::SimError;
using sim::SimErrorKind;

[[noreturn]] void bad(const std::string& what) {
  throw SimError(SimErrorKind::kBadArguments, "request", what);
}

/// One scalar JSON value. Requests are flat, so this is the whole value
/// model: nested containers are rejected at parse time.
struct Scalar {
  enum class Kind { kString, kNumber, kBool, kNull } kind = Kind::kNull;
  std::string str;
  double num = 0;
  bool boolean = false;
};

/// Hand-rolled strict parser for one flat JSON object of scalars. The wire
/// format is adversarial input (any process can connect), so every branch
/// validates: no trailing bytes, no duplicate keys, no nesting, no bare
/// tokens. Kept deliberately tiny — the request schema needs nothing more.
class FlatObjectParser {
 public:
  explicit FlatObjectParser(std::string_view s) : s_(s) {}

  std::map<std::string, Scalar> parse() {
    skip_ws();
    expect('{');
    std::map<std::string, Scalar> out;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
    } else {
      while (true) {
        skip_ws();
        if (peek() != '"') bad("expected a string key in the request object");
        std::string key = parse_string();
        skip_ws();
        expect(':');
        skip_ws();
        Scalar v = parse_scalar();
        if (!out.emplace(std::move(key), std::move(v)).second) {
          bad("duplicate request field");
        }
        skip_ws();
        const char c = next();
        if (c == '}') break;
        if (c != ',') bad("expected ',' or '}' in the request object");
      }
    }
    skip_ws();
    if (pos_ != s_.size()) bad("trailing bytes after the request object");
    return out;
  }

 private:
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  char next() {
    if (pos_ >= s_.size()) bad("truncated request line");
    return s_[pos_++];
  }
  void expect(char c) {
    if (next() != c) bad(std::string("expected '") + c + "'");
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = next();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        bad("unescaped control byte in a string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      const char e = next();
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned v = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = next();
            v <<= 4;
            if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
            else bad("bad \\u escape");
          }
          // Request fields are identifiers and option specs; BMP code
          // points encoded as UTF-8 cover every legal use.
          if (v < 0x80) {
            out += static_cast<char>(v);
          } else if (v < 0x800) {
            out += static_cast<char>(0xC0 | (v >> 6));
            out += static_cast<char>(0x80 | (v & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (v >> 12));
            out += static_cast<char>(0x80 | ((v >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (v & 0x3F));
          }
          break;
        }
        default: bad("bad string escape");
      }
    }
  }

  Scalar parse_scalar() {
    Scalar v;
    const char c = peek();
    if (c == '"') {
      v.kind = Scalar::Kind::kString;
      v.str = parse_string();
      return v;
    }
    if (c == '{' || c == '[') bad("nested values are not supported");
    if (c == 't' || c == 'f' || c == 'n') {
      const std::string_view rest = s_.substr(pos_);
      auto take = [&](std::string_view word) {
        if (rest.substr(0, word.size()) != word) return false;
        pos_ += word.size();
        return true;
      };
      v.kind = Scalar::Kind::kBool;
      if (take("true")) { v.boolean = true; return v; }
      if (take("false")) { v.boolean = false; return v; }
      if (take("null")) { v.kind = Scalar::Kind::kNull; return v; }
      bad("bare token in the request object");
    }
    // Number: delegate to strtod over the longest JSON-shaped span.
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) bad("expected a JSON value");
    const std::string tok(s_.substr(start, pos_ - start));
    char* end = nullptr;
    v.num = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size() || !std::isfinite(v.num)) {
      bad("malformed number '" + tok + "'");
    }
    v.kind = Scalar::Kind::kNumber;
    return v;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

const Scalar& want(const Scalar& v, Scalar::Kind kind, const char* field) {
  if (v.kind != kind) {
    bad(std::string("field '") + field + "' has the wrong type");
  }
  return v;
}

int want_int(const Scalar& v, const char* field) {
  want(v, Scalar::Kind::kNumber, field);
  const double d = v.num;
  if (d != std::floor(d) || d < -2147483648.0 || d > 2147483647.0) {
    bad(std::string("field '") + field + "' is not a 32-bit integer");
  }
  return static_cast<int>(d);
}

std::uint64_t want_u64(const Scalar& v, const char* field) {
  want(v, Scalar::Kind::kNumber, field);
  const double d = v.num;
  if (d != std::floor(d) || d < 0 || d > 9.007199254740992e15) {
    bad(std::string("field '") + field +
        "' is not a non-negative integer");
  }
  return static_cast<std::uint64_t>(d);
}

}  // namespace

RunRequest parse_request(std::string_view line) {
  const std::map<std::string, Scalar> obj = FlatObjectParser(line).parse();
  RunRequest req;
  bool have_kernel = false;
  std::uint64_t inject_seed = req.spec.inject.seed;
  std::string inject_spec;
  std::string spec_policy;
  for (const auto& [key, v] : obj) {
    if (key == "id") {
      // Echoed verbatim; accept a number for client convenience.
      if (v.kind == Scalar::Kind::kString) {
        req.id = v.str;
      } else if (v.kind == Scalar::Kind::kNumber) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", v.num);
        req.id = buf;
      } else {
        bad("field 'id' must be a string or number");
      }
    } else if (key == "kernel") {
      req.spec.kernel = want(v, Scalar::Kind::kString, "kernel").str;
      have_kernel = true;
    } else if (key == "scale") {
      req.spec.scale = want(v, Scalar::Kind::kNumber, "scale").num;
    } else if (key == "st2") {
      req.spec.st2 = want(v, Scalar::Kind::kBool, "st2").boolean;
    } else if (key == "lrr") {
      req.spec.lrr = want(v, Scalar::Kind::kBool, "lrr").boolean;
    } else if (key == "sms") {
      req.spec.sms = want_int(v, "sms");
    } else if (key == "jobs") {
      req.spec.jobs = want_int(v, "jobs");
    } else if (key == "max_warps") {
      req.spec.max_warps = want_int(v, "max_warps");
    } else if (key == "spec_policy") {
      spec_policy = want(v, Scalar::Kind::kString, "spec_policy").str;
    } else if (key == "inject") {
      inject_spec = want(v, Scalar::Kind::kString, "inject").str;
    } else if (key == "inject_seed") {
      inject_seed = want_u64(v, "inject_seed");
    } else if (key == "watchdog_cycles") {
      req.spec.watchdog_cycles = want_u64(v, "watchdog_cycles");
    } else if (key == "watchdog_ms") {
      req.spec.watchdog_ms = want_u64(v, "watchdog_ms");
    } else {
      bad("unknown request field '" + key + "'");
    }
  }
  if (!have_kernel || req.spec.kernel.empty()) {
    bad("missing required field 'kernel'");
  }
  if (!inject_spec.empty()) {
    try {
      req.spec.inject = fault::FaultConfig::parse(inject_spec);
    } catch (const std::invalid_argument& e) {
      bad(e.what());
    }
  }
  if (!spec_policy.empty()) {
    try {
      req.spec.spec_policy = spec::PredictorConfig::parse(spec_policy);
    } catch (const std::invalid_argument& e) {
      bad(e.what());
    }
  }
  req.spec.inject.seed = inject_seed;
  return req;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string envelope_line(const std::string& request_id, int exit_code,
                          const std::string& error_kind,
                          const std::string& error_message, double elapsed_ms,
                          std::size_t body_bytes) {
  std::string out = "{\"request_id\": \"" + json_escape(request_id) + "\"";
  if (error_kind.empty()) {
    out += ", \"status\": \"done\"";
  } else {
    out += ", \"status\": \"error\", \"error_kind\": \"" +
           json_escape(error_kind) + "\", \"message\": \"" +
           json_escape(error_message) + "\"";
  }
  char buf[96];
  std::snprintf(buf, sizeof buf,
                ", \"exit_code\": %d, \"elapsed_ms\": %.3f, "
                "\"body_bytes\": %zu}",
                exit_code, elapsed_ms, body_bytes);
  out += buf;
  return out;
}

bool parse_envelope(std::string_view line, std::string* request_id,
                    int* exit_code, std::string* error_kind,
                    std::string* message, std::size_t* body_bytes) {
  try {
    const std::map<std::string, Scalar> obj = FlatObjectParser(line).parse();
    const auto str_field = [&](const char* name, std::string* out,
                               bool required) {
      const auto it = obj.find(name);
      if (it == obj.end()) {
        if (required) bad(name);
        out->clear();
        return;
      }
      *out = want(it->second, Scalar::Kind::kString, name).str;
    };
    std::string status;
    str_field("request_id", request_id, true);
    str_field("status", &status, true);
    str_field("error_kind", error_kind, false);
    str_field("message", message, false);
    const auto code_it = obj.find("exit_code");
    const auto body_it = obj.find("body_bytes");
    if (code_it == obj.end() || body_it == obj.end()) return false;
    *exit_code = want_int(code_it->second, "exit_code");
    const std::uint64_t n = want_u64(body_it->second, "body_bytes");
    *body_bytes = static_cast<std::size_t>(n);
    if (status == "error" && error_kind->empty()) return false;
    if (status != "error" && status != "done") return false;
    return true;
  } catch (const SimError&) {
    return false;
  }
}

}  // namespace st2::serve
