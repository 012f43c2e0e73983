#include "support/expo.h"

#include <charconv>
#include <cstdio>
#include <sstream>
#include <system_error>

namespace spcg {

namespace detail {
// Shared with trace.cc's trace_arg string quoting.
std::string trace_quote_json(std::string_view s);
}  // namespace detail

std::string json_quote(std::string_view s) {
  return detail::trace_quote_json(s);
}

namespace {

/// Microseconds with nanosecond precision, as Chrome's "ts"/"dur" expect.
std::string micros_str(std::uint64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%llu.%03u",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned>(ns % 1000));
  return buf;
}

void write_event(std::ostream& os, const TraceEvent& ev) {
  os << "{\"name\":" << json_quote(ev.name) << ",\"cat\":"
     << json_quote(ev.category) << ",\"ph\":\"X\",\"ts\":"
     << micros_str(ev.start_ns) << ",\"dur\":" << micros_str(ev.duration_ns)
     << ",\"pid\":1,\"tid\":" << ev.tid;
  if (!ev.args.empty()) {
    os << ",\"args\":{";
    for (std::size_t i = 0; i < ev.args.size(); ++i) {
      if (i != 0) os << ",";
      os << json_quote(ev.args[i].key) << ":" << ev.args[i].value;
    }
    os << "}";
  }
  os << "}";
}

std::string sanitize_metric_name(std::string_view prefix,
                                 std::string_view name) {
  std::string out;
  out.reserve(prefix.size() + 1 + name.size());
  out.append(prefix);
  out.push_back('_');
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// Prometheus label values escape backslash, quote and newline.
std::string label_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\') out += "\\\\";
    else if (c == '"') out += "\\\"";
    else if (c == '\n') out += "\\n";
    else out.push_back(c);
  }
  return out;
}

}  // namespace

void write_chrome_trace(std::ostream& os,
                        std::span<const TraceEvent> events) {
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i != 0) os << ",";
    os << "\n";
    write_event(os, events[i]);
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

std::string chrome_trace_json(std::span<const TraceEvent> events) {
  std::ostringstream os;
  write_chrome_trace(os, events);
  return os.str();
}

std::string prometheus_text(std::span<const CounterSample> samples,
                            std::span<const PhaseTotal> phases,
                            std::string_view prefix) {
  std::ostringstream os;
  if (!samples.empty()) {
    os << "# Flattened telemetry registry (counters, max-gauges, "
          "log-histogram count/sum/max/p50/p99).\n";
    for (const CounterSample& s : samples)
      os << sanitize_metric_name(prefix, s.name) << " " << s.value << "\n";
  }
  if (!phases.empty()) {
    const std::string seconds =
        sanitize_metric_name(prefix, "phase_seconds_total");
    const std::string count = sanitize_metric_name(prefix, "phase_count_total");
    os << "# HELP " << seconds
       << " Total traced wall-clock per pipeline phase.\n"
       << "# TYPE " << seconds << " counter\n";
    for (const PhaseTotal& p : phases) {
      char val[48];
      std::snprintf(val, sizeof(val), "%.9f", p.total_seconds());
      os << seconds << "{category=\"" << label_escape(p.category)
         << "\",phase=\"" << label_escape(p.name) << "\"} " << val << "\n";
    }
    os << "# HELP " << count << " Traced span count per pipeline phase.\n"
       << "# TYPE " << count << " counter\n";
    for (const PhaseTotal& p : phases)
      os << count << "{category=\"" << label_escape(p.category)
         << "\",phase=\"" << label_escape(p.name) << "\"} " << p.count
         << "\n";
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// JSON reader (RFC 8259).

namespace {

class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : s_(text) {}

  bool document(Json* out) {
    if (!value(out, 1)) return false;
    skip_ws();
    return at_end();
  }

 private:
  static constexpr int kMaxDepth = 256;

  [[nodiscard]] bool at_end() const { return pos_ >= s_.size(); }

  void skip_ws() {
    while (!at_end() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                         s_[pos_] == '\n' || s_[pos_] == '\r'))
      ++pos_;
  }

  bool consume(char c) {
    if (at_end() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool value(Json* out, int depth) {
    if (depth > kMaxDepth) return false;
    skip_ws();
    if (at_end()) return false;
    switch (s_[pos_]) {
      case '{': return object(out, depth);
      case '[': return array(out, depth);
      case '"':
        out->kind = Json::Kind::kString;
        return string(&out->string);
      case 't':
        out->kind = Json::Kind::kBool;
        out->boolean = true;
        return literal("true");
      case 'f':
        out->kind = Json::Kind::kBool;
        return literal("false");
      case 'n': return literal("null");
      default:
        out->kind = Json::Kind::kNumber;
        return number(&out->number);
    }
  }

  bool object(Json* out, int depth) {
    out->kind = Json::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (consume('}')) return true;
    for (;;) {
      skip_ws();
      std::string key;
      if (!string(&key)) return false;
      skip_ws();
      if (!consume(':')) return false;
      Json v;
      if (!value(&v, depth + 1)) return false;
      out->object.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (!consume(',')) return consume('}');
    }
  }

  bool array(Json* out, int depth) {
    out->kind = Json::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (consume(']')) return true;
    for (;;) {
      Json v;
      if (!value(&v, depth + 1)) return false;
      out->array.push_back(std::move(v));
      skip_ws();
      if (!consume(',')) return consume(']');
    }
  }

  bool string(std::string* out) {
    if (!consume('"')) return false;
    while (!at_end()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (at_end()) return false;
      switch (s_[pos_++]) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          if (s_.size() - pos_ < 4) return false;
          const auto [end, ec] =
              std::from_chars(s_.data() + pos_, s_.data() + pos_ + 4, code, 16);
          if (ec != std::errc() || end != s_.data() + pos_ + 4) return false;
          pos_ += 4;
          out->push_back(code < 128 ? static_cast<char>(code) : '?');
          break;
        }
        default: return false;
      }
    }
    return false;  // unterminated
  }

  bool digits() {
    const std::size_t start = pos_;
    while (!at_end() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    return pos_ > start;
  }

  /// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, read by from_chars.
  bool number(double* out) {
    const std::size_t start = pos_;
    consume('-');
    if (!consume('0') && !digits()) return false;
    if (consume('.') && !digits()) return false;
    if (consume('e') || consume('E')) {
      if (!consume('+')) consume('-');
      if (!digits()) return false;
    }
    const auto [end, ec] =
        std::from_chars(s_.data() + start, s_.data() + pos_, *out);
    return ec == std::errc() && end == s_.data() + pos_;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

const Json* Json::get(std::string_view key) const {
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

std::optional<Json> parse_json(std::string_view text) {
  Json doc;
  if (!JsonReader(text).document(&doc)) return std::nullopt;
  return doc;
}

bool is_valid_json(std::string_view text) {
  return parse_json(text).has_value();
}

}  // namespace spcg
