// Perturbation schedule DSL.
//
// One schedule string holds one or more fault specs separated by ';':
//
//   straggler:node=3,t=2ms..6ms,slow=4x
//   straggler:node=all,t=1ms..,slow=2x,profile=square,period=500us
//   link:src=0,dst=all,t=1ms..4ms,latency=4x,bw=0.5,jitter=2us
//   mpistall:node=2,t=3ms..8ms,stall=200us,period=1ms
//   loss:src=0,dst=1,rate=0.2,t=1ms..4ms,class=data
//   crash:node=1,t=2ms,down=1ms
//
// Grammar per spec: `kind ':' key=value (',' key=value)*`. Times accept
// ns/us/ms/s suffixes (bare numbers are ns); windows are `t=START..END`
// with either side omissible (`t=..5ms`, `t=2ms..`). Factors accept an
// optional 'x' suffix. Node ids accept `all`. Crash specs take a point in
// time (`t=2ms`) plus `down=` instead of a window; loss `class` selects
// the dropped traffic (`data` | `control` | `all`).
//
// Malformed schedules throw FaultParseError, which reports the offending
// token and its character position in the schedule string (matching the
// fail-loudly style of util/config). Every parsed spec is validated via
// FaultSpec::validate before being returned.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault_spec.hpp"

namespace cagvt::fault {

class FaultParseError : public std::invalid_argument {
 public:
  FaultParseError(const std::string& what, std::string token, std::size_t position)
      : std::invalid_argument(what), token_(std::move(token)), position_(position) {}

  /// The offending token, verbatim.
  const std::string& token() const { return token_; }
  /// 0-based character offset of the token in the schedule string.
  std::size_t position() const { return position_; }

 private:
  std::string token_;
  std::size_t position_;
};

/// Parse a schedule string into validated specs. Throws FaultParseError on
/// syntax errors and std::invalid_argument on semantic ones (validate()).
std::vector<FaultSpec> parse_fault_schedule(std::string_view text);

/// Render a spec back into DSL form (diagnostics, trace labels).
std::string describe(const FaultSpec& spec);

}  // namespace cagvt::fault
