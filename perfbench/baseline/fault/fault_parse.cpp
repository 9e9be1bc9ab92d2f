#include "fault/fault_parse.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace cagvt::fault {
namespace {

using metasim::SimTime;

[[noreturn]] void fail(const std::string& why, std::string_view token, std::size_t pos) {
  throw FaultParseError("fault schedule: " + why + " '" + std::string(token) +
                            "' at char " + std::to_string(pos),
                        std::string(token), pos);
}

/// A token plus its absolute position in the schedule string.
struct Token {
  std::string_view text;
  std::size_t pos;

  Token sub(std::size_t offset, std::size_t count = std::string_view::npos) const {
    return {text.substr(offset, count), pos + offset};
  }
};

double parse_number(Token tok, std::string_view what) {
  double out = 0;
  const char* first = tok.text.data();
  const char* last = first + tok.text.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  if (ec != std::errc{} || ptr != last || tok.text.empty())
    fail("invalid " + std::string(what), tok.text, tok.pos);
  return out;
}

/// "4x" or "4" -> 4.0.
double parse_factor(Token tok) {
  Token num = tok;
  if (!tok.text.empty() && (tok.text.back() == 'x' || tok.text.back() == 'X'))
    num.text.remove_suffix(1);
  return parse_number(num, "factor");
}

/// "2ms" / "500us" / "3.5s" / "1200ns" / "1200" (ns) -> SimTime ns.
SimTime parse_time(Token tok) {
  std::string_view text = tok.text;
  double unit = 1.0;  // bare numbers are nanoseconds
  if (text.ends_with("ns")) {
    unit = 1.0;
    text.remove_suffix(2);
  } else if (text.ends_with("us")) {
    unit = 1e3;
    text.remove_suffix(2);
  } else if (text.ends_with("ms")) {
    unit = 1e6;
    text.remove_suffix(2);
  } else if (text.ends_with("s")) {
    unit = 1e9;
    text.remove_suffix(1);
  }
  // Parse the numeric part directly so errors report the FULL token
  // ("oops", not "oop" after the unit suffix was stripped).
  double value = 0;
  const char* first = text.data();
  const char* last = first + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last || text.empty())
    fail("invalid duration", tok.text, tok.pos);
  if (value < 0) fail("negative duration", tok.text, tok.pos);
  return static_cast<SimTime>(std::llround(value * unit));
}

/// "3" or "all" (-1).
int parse_node(Token tok) {
  if (tok.text == "all" || tok.text == "*") return -1;
  const double value = parse_number(tok, "node id");
  if (value < 0 || value != std::floor(value)) fail("invalid node id", tok.text, tok.pos);
  return static_cast<int>(value);
}

/// "3" or "all" (-1), but a global worker index (mem squeezes target
/// workers, not nodes).
int parse_worker(Token tok) {
  if (tok.text == "all" || tok.text == "*") return -1;
  const double value = parse_number(tok, "worker id");
  if (value < 0 || value != std::floor(value)) fail("invalid worker id", tok.text, tok.pos);
  return static_cast<int>(value);
}

/// Positive integer event count for mem budgets.
std::int64_t parse_budget(Token tok) {
  const double value = parse_number(tok, "budget");
  if (value < 1 || value != std::floor(value))
    fail("invalid budget (need a positive event count)", tok.text, tok.pos);
  return static_cast<std::int64_t>(value);
}

/// "START..END" with either side omissible.
void parse_window(Token tok, FaultSpec& spec) {
  const auto dots = tok.text.find("..");
  if (dots == std::string_view::npos) fail("window needs 'START..END' in", tok.text, tok.pos);
  const Token lo = tok.sub(0, dots);
  const Token hi = tok.sub(dots + 2);
  if (!lo.text.empty()) spec.start = parse_time(lo);
  if (!hi.text.empty()) spec.end = parse_time(hi);
}

FaultProfile parse_profile(Token tok) {
  if (tok.text == "const" || tok.text == "constant") return FaultProfile::kConstant;
  if (tok.text == "square") return FaultProfile::kSquareWave;
  if (tok.text == "ramp") return FaultProfile::kRamp;
  fail("unknown profile", tok.text, tok.pos);
}

FaultKind parse_kind(Token tok) {
  if (tok.text == "straggler") return FaultKind::kStraggler;
  if (tok.text == "link" || tok.text == "linkdeg") return FaultKind::kLinkDegrade;
  if (tok.text == "mpistall" || tok.text == "stall") return FaultKind::kMpiStall;
  if (tok.text == "loss") return FaultKind::kLoss;
  if (tok.text == "crash") return FaultKind::kCrash;
  if (tok.text == "mem") return FaultKind::kMemSqueeze;
  fail("unknown fault kind (expected straggler, link, mpistall, loss, crash, or mem)",
       tok.text, tok.pos);
}

FrameClass parse_frame_class(Token tok) {
  if (tok.text == "all") return FrameClass::kAll;
  if (tok.text == "data") return FrameClass::kData;
  if (tok.text == "control") return FrameClass::kControl;
  fail("unknown frame class", tok.text, tok.pos);
}

void apply_param(FaultSpec& spec, Token key, Token value) {
  const std::string_view k = key.text;
  if (k == "t") {
    // Crash windows are given as a point in time plus `down=`; every other
    // kind takes the usual START..END window.
    if (spec.kind == FaultKind::kCrash && value.text.find("..") == std::string_view::npos) {
      spec.start = parse_time(value);
    } else {
      parse_window(value, spec);
    }
  } else if (k == "node" &&
             (spec.kind == FaultKind::kStraggler || spec.kind == FaultKind::kMpiStall ||
              spec.kind == FaultKind::kCrash)) {
    spec.node = parse_node(value);
  } else if (k == "src" &&
             (spec.kind == FaultKind::kLinkDegrade || spec.kind == FaultKind::kLoss)) {
    spec.src = parse_node(value);
  } else if (k == "dst" &&
             (spec.kind == FaultKind::kLinkDegrade || spec.kind == FaultKind::kLoss)) {
    spec.dst = parse_node(value);
  } else if (k == "rate" && spec.kind == FaultKind::kLoss) {
    spec.rate = parse_number(value, "loss rate");
  } else if (k == "class" && spec.kind == FaultKind::kLoss) {
    spec.loss_class = parse_frame_class(value);
  } else if (k == "down" && spec.kind == FaultKind::kCrash) {
    spec.down = parse_time(value);
  } else if (k == "slow" && spec.kind == FaultKind::kStraggler) {
    spec.slow = parse_factor(value);
  } else if (k == "profile" && spec.kind == FaultKind::kStraggler) {
    spec.profile = parse_profile(value);
  } else if (k == "latency" && spec.kind == FaultKind::kLinkDegrade) {
    spec.latency_factor = parse_factor(value);
  } else if (k == "latency-add" && spec.kind == FaultKind::kLinkDegrade) {
    spec.latency_add = parse_time(value);
  } else if (k == "bw" && spec.kind == FaultKind::kLinkDegrade) {
    spec.bandwidth = parse_factor(value);
  } else if (k == "jitter" && spec.kind == FaultKind::kLinkDegrade) {
    spec.jitter = parse_time(value);
  } else if (k == "stall" && spec.kind == FaultKind::kMpiStall) {
    spec.stall = parse_time(value);
  } else if (k == "period" &&
             (spec.kind == FaultKind::kStraggler || spec.kind == FaultKind::kMpiStall)) {
    spec.period = parse_time(value);
  } else if (k == "worker" && spec.kind == FaultKind::kMemSqueeze) {
    spec.worker = parse_worker(value);
  } else if (k == "budget" && spec.kind == FaultKind::kMemSqueeze) {
    spec.budget = parse_budget(value);
  } else {
    fail("unknown parameter for '" + std::string(to_string(spec.kind)) + "' fault",
         key.text, key.pos);
  }
}

FaultSpec parse_one(Token tok, std::size_t index) {
  const auto colon = tok.text.find(':');
  if (colon == std::string_view::npos) fail("missing ':' after fault kind in", tok.text, tok.pos);

  FaultSpec spec;
  spec.kind = parse_kind(tok.sub(0, colon));

  Token rest = tok.sub(colon + 1);
  while (!rest.text.empty()) {
    // Split the next comma-separated parameter; window values contain no
    // commas so a plain scan is enough.
    const auto comma = rest.text.find(',');
    const Token param = rest.sub(0, comma);
    if (param.text.empty()) fail("empty parameter in", tok.text, param.pos);
    const auto eq = param.text.find('=');
    if (eq == std::string_view::npos) fail("parameter needs 'key=value':", param.text, param.pos);
    apply_param(spec, param.sub(0, eq), param.sub(eq + 1));
    if (comma == std::string_view::npos) break;
    rest = rest.sub(comma + 1);
  }

  // Crash windows derive their end from `down=`.
  if (spec.kind == FaultKind::kCrash && spec.down > 0) spec.end = spec.start + spec.down;

  spec.validate(index);
  return spec;
}

}  // namespace

std::vector<FaultSpec> parse_fault_schedule(std::string_view text) {
  std::vector<FaultSpec> specs;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const auto semi = text.find(';', pos);
    const std::size_t end = semi == std::string_view::npos ? text.size() : semi;
    const std::string_view item = text.substr(pos, end - pos);
    if (!item.empty()) specs.push_back(parse_one({item, pos}, specs.size()));
    if (semi == std::string_view::npos) break;
    pos = end + 1;
  }
  return specs;
}

std::string describe(const FaultSpec& spec) {
  std::string out(to_string(spec.kind));
  const auto time = [](SimTime t) {
    if (t == metasim::kTimeNever) return std::string();
    return std::to_string(t) + "ns";
  };
  const auto target = [](int n) { return n < 0 ? std::string("all") : std::to_string(n); };
  const auto num = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", v);
    return std::string(buf);
  };
  switch (spec.kind) {
    case FaultKind::kStraggler:
      out += ":node=" + target(spec.node);
      out += ",slow=" + num(spec.slow) + "x";
      if (spec.profile != FaultProfile::kConstant)
        out += ",profile=" + std::string(to_string(spec.profile));
      if (spec.period > 0) out += ",period=" + time(spec.period);
      break;
    case FaultKind::kLinkDegrade:
      out += ":src=" + target(spec.src) + ",dst=" + target(spec.dst);
      if (spec.latency_factor != 1.0) out += ",latency=" + num(spec.latency_factor) + "x";
      if (spec.latency_add > 0) out += ",latency-add=" + time(spec.latency_add);
      if (spec.bandwidth != 1.0) out += ",bw=" + num(spec.bandwidth);
      if (spec.jitter > 0) out += ",jitter=" + time(spec.jitter);
      break;
    case FaultKind::kMpiStall:
      out += ":node=" + target(spec.node);
      out += ",stall=" + time(spec.stall);
      if (spec.period > 0) out += ",period=" + time(spec.period);
      break;
    case FaultKind::kLoss:
      out += ":src=" + target(spec.src) + ",dst=" + target(spec.dst);
      out += ",rate=" + num(spec.rate);
      if (spec.loss_class != FrameClass::kAll)
        out += ",class=" + std::string(to_string(spec.loss_class));
      break;
    case FaultKind::kCrash:
      out += ":node=" + target(spec.node);
      out += ",down=" + time(spec.down);
      out += ",t=" + time(spec.start);
      return out;  // the window is (start, down); no START..END suffix
    case FaultKind::kMemSqueeze:
      out += ":worker=" + target(spec.worker);
      out += ",budget=" + std::to_string(spec.budget);
      break;
  }
  out += ",t=" + time(spec.start) + ".." + time(spec.end);
  return out;
}

}  // namespace cagvt::fault
