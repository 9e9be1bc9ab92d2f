// Mixed-phase PHOLD: the paper's "X-Y" models (Section 6).
//
// The simulation alternates between a computation-dominated parameter set
// and a communication-dominated one. The paper phases by fractions of
// *execution* time; execution time is not observable from inside a pure
// model, so we phase by *virtual* time — the two advance together in a
// throughput-steady PHOLD run, and phasing on virtual time keeps the model
// deterministic and replay-safe (a phase is a pure function of an event's
// timestamp). Documented as a substitution in DESIGN.md.
//
// A cycle is (x_pct + y_pct)% of the total virtual horizon: the first
// x/(x+y) of each cycle uses the computation profile, the rest the
// communication profile, repeating — e.g. the paper's "10-15 model" spends
// 10% of the run computing, then 15% communicating, and repeats 4 times.
#pragma once

#include "models/phold.hpp"

namespace cagvt::models {

struct MixedPholdParams {
  PholdParams computation;    // e.g. 10% regional, 1% remote, EPG 10K
  PholdParams communication;  // e.g. 90% regional, 10% remote, EPG 5K
  double x_pct = 10;          // computation share of the cycle, in % of the run
  double y_pct = 15;          // communication share of the cycle
  double end_vt = 100.0;      // virtual horizon the percentages refer to
};

class MixedPholdModel : public PholdModel {
 public:
  MixedPholdModel(const pdes::LpMap& map, MixedPholdParams params)
      : PholdModel(map, params.computation), mixed_(params) {
    CAGVT_CHECK(params.x_pct > 0 && params.y_pct > 0);
    cycle_vt_ = (params.x_pct + params.y_pct) / 100.0 * params.end_vt;
    comp_vt_ = params.x_pct / 100.0 * params.end_vt;
  }

  /// True if virtual time `ts` falls in a computation-dominated phase.
  bool computation_phase(pdes::VirtualTime ts) const {
    const double in_cycle = ts - cycle_vt_ * std::floor(ts / cycle_vt_);
    return in_cycle < comp_vt_;
  }

  void handle_event(std::span<std::byte> state, const pdes::Event& event,
                    pdes::EventSink& sink) const override;

  double cost_units(const pdes::Event& event) const override {
    return active(event.recv_ts).epg_units;
  }

  /// Either phase may be active when an event is scheduled, so only the
  /// smaller of the two minimum delays is a valid global bound.
  pdes::VirtualTime lookahead() const override {
    return std::min(mixed_.computation.min_delay, mixed_.communication.min_delay);
  }

  const MixedPholdParams& mixed_params() const { return mixed_; }

 private:
  const PholdParams& active(pdes::VirtualTime ts) const {
    return computation_phase(ts) ? mixed_.computation : mixed_.communication;
  }

  MixedPholdParams mixed_;
  double cycle_vt_ = 0;
  double comp_vt_ = 0;
};

}  // namespace cagvt::models
