#include "faults/fault_plan.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/format.hpp"

namespace hero::faults {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkDegrade: return "link_degrade";
    case FaultKind::kLinkFlap: return "link_flap";
    case FaultKind::kSlotExhaust: return "slot_exhaust";
    case FaultKind::kSwitchRestart: return "switch_restart";
    case FaultKind::kGpuSlow: return "gpu_slow";
    case FaultKind::kSyncDelay: return "sync_delay";
    case FaultKind::kSyncDrop: return "sync_drop";
  }
  return "?";
}

namespace {

/// Just enough JSON for fault plans: one object with an "events" array of
/// flat objects whose values are strings or numbers. Hand-rolled so the
/// repo stays dependency-free; anything outside that shape is an error.
class PlanParser {
 public:
  explicit PlanParser(std::string_view text) : text_(text) {}

  FaultPlan parse() {
    FaultPlan plan;
    expect('{');
    bool have_events = false;
    while (true) {
      skip_ws();
      if (peek() == '}') { ++pos_; break; }
      const std::string key = parse_string();
      expect(':');
      if (key == "events") {
        parse_events(plan);
        have_events = true;
      } else {
        fail(strfmt("unknown top-level key \"{}\"", key));
      }
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
    }
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after plan object");
    if (!have_events) fail("plan object has no \"events\" array");
    return plan;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error(
        strfmt("fault plan parse error at byte {}: {}", pos_, what));
  }

  [[nodiscard]] char peek() const {
    if (pos_ >= text_.size()) return '\0';
    return text_[pos_];
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  void expect(char c) {
    skip_ws();
    if (peek() != c) fail(strfmt("expected '{}'", c));
    ++pos_;
  }

  std::string parse_string() {
    skip_ws();
    if (peek() != '"') fail("expected string");
    ++pos_;
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') fail("escapes not supported");
      out.push_back(text_[pos_++]);
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    ++pos_;
    return out;
  }

  double parse_number() {
    skip_ws();
    const char* begin = text_.data() + pos_;
    char* end = nullptr;
    const double value = std::strtod(begin, &end);
    if (end == begin) fail("expected number");
    pos_ += static_cast<std::size_t>(end - begin);
    return value;
  }

  /// A flap cycle count: an integer in [1, 2^32). Checked here, before
  /// the narrowing cast, which is undefined for out-of-range values.
  std::uint32_t parse_count() {
    const double count = parse_number();
    if (!(count >= 1.0 && count < 4294967296.0) ||
        count != std::floor(count)) {
      fail(strfmt("\"count\" must be an integer in [1, 2^32), got {}",
                  count));
    }
    return static_cast<std::uint32_t>(count);
  }

  void parse_events(FaultPlan& plan) {
    expect('[');
    skip_ws();
    if (peek() == ']') { ++pos_; return; }
    while (true) {
      plan.events.push_back(parse_event());
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      expect(']');
      break;
    }
  }

  FaultEvent parse_event() {
    expect('{');
    FaultEvent ev;
    bool have_kind = false;
    while (true) {
      skip_ws();
      if (peek() == '}') { ++pos_; break; }
      const std::string key = parse_string();
      expect(':');
      if (key == "kind") {
        ev.kind = parse_kind(parse_string());
        have_kind = true;
      } else if (key == "at") {
        ev.at = parse_number();
      } else if (key == "duration") {
        ev.duration = parse_number();
      } else if (key == "target") {
        ev.target = parse_string();
      } else if (key == "magnitude") {
        ev.magnitude = parse_number();
      } else if (key == "count") {
        ev.count = parse_count();
      } else if (key == "period") {
        ev.period = parse_number();
      } else {
        fail(strfmt("unknown event key \"{}\"", key));
      }
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
    }
    if (!have_kind) fail("event without \"kind\"");
    return ev;
  }

  FaultKind parse_kind(const std::string& name) {
    for (FaultKind k :
         {FaultKind::kLinkDegrade, FaultKind::kLinkFlap,
          FaultKind::kSlotExhaust, FaultKind::kSwitchRestart,
          FaultKind::kGpuSlow, FaultKind::kSyncDelay, FaultKind::kSyncDrop}) {
      if (name == to_string(k)) return k;
    }
    fail(strfmt("unknown fault kind \"{}\"", name));
  }
};

}  // namespace

FaultPlan parse_fault_plan(std::string_view json) {
  return PlanParser(json).parse();
}

FaultPlan load_fault_plan(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error(strfmt("cannot open fault plan {}", path));
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_fault_plan(buf.str());
}

}  // namespace hero::faults
