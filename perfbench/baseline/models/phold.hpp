// PHOLD benchmark model (Fujimoto 1990), modified as in the paper:
// configurable regional/remote message percentages and event processing
// granularity (EPG). Every handled event schedules exactly one new event,
// so the total event population is invariant — the paper's setup.
#pragma once

#include "pdes/mapping.hpp"
#include "pdes/model.hpp"

namespace cagvt::models {

struct PholdParams {
  /// Probability a generated event targets an LP on a different node
  /// ("remote" — crosses the network).
  double remote_pct = 0.01;
  /// Probability it targets a different worker thread on the same node
  /// ("regional" — crosses shared memory).
  double regional_pct = 0.10;
  /// Event processing granularity in units of ~1 FLOP.
  double epg_units = 10000;
  /// Mean of the exponential timestamp increment.
  double mean_delay = 1.0;
  /// Minimum timestamp increment, added on top of the exponential draw.
  /// This is the model's conservative lookahead: every scheduled event is
  /// strictly more than min_delay into the future. The default 0 keeps the
  /// classic zero-lookahead PHOLD (and every existing fingerprint)
  /// unchanged; conservative runs (--sync=cmb/window) need it positive.
  double min_delay = 0;
  /// Starting events per LP (paper: 1).
  int start_events_per_lp = 1;
  /// Model randomness seed (independent of the engine seed).
  std::uint64_t seed = 0x9E1D;
};

class PholdModel : public pdes::Model {
 public:
  PholdModel(const pdes::LpMap& map, PholdParams params) : map_(map), params_(params) {}

  /// Per-LP state: enough to make state comparison in golden tests
  /// meaningful, nothing more.
  struct State {
    std::uint64_t events_handled;
    std::uint64_t checksum;
  };

  std::size_t state_size() const override { return sizeof(State); }

  void init_lp(pdes::LpId lp, std::span<std::byte> state, pdes::EventSink& sink) const override;

  void handle_event(std::span<std::byte> state, const pdes::Event& event,
                    pdes::EventSink& sink) const override;

  double cost_units(const pdes::Event& event) const override {
    (void)event;
    return params_.epg_units;
  }

  /// Every delay draw is min_delay + a strictly positive exponential, so
  /// min_delay is a strict lower bound on timestamp increments.
  pdes::VirtualTime lookahead() const override { return params_.min_delay; }

  const PholdParams& params() const { return params_; }
  const pdes::LpMap& map() const { return map_; }

 protected:
  /// Destination selection shared with the derived models. `rng` must be
  /// keyed by the event uid (replay-stable).
  pdes::LpId choose_destination(pdes::LpId src, double remote_pct, double regional_pct,
                                CounterRng& rng) const;
  /// Strictly positive exponential increment.
  double next_delay(CounterRng& rng) const;

  const pdes::LpMap& map_;
  PholdParams params_;
};

}  // namespace cagvt::models
