// PHOLD with reverse computation (ROSS's native rollback mode).
//
// Identical workload to PholdModel, but the state update is a perfectly
// invertible function (counter increment + XOR accumulator), so the model
// declares reverse support and the engine skips per-event state
// checkpoints: rollback calls reverse_event() in reverse order instead of
// restoring a snapshot. The golden-model tests assert both modes commit
// identical event sets.
#pragma once

#include "models/phold.hpp"

namespace cagvt::models {

class ReversePholdModel final : public PholdModel {
 public:
  using PholdModel::PholdModel;

  struct State {
    std::uint64_t events_handled;
    std::uint64_t xor_digest;
  };
  static_assert(sizeof(State) == sizeof(PholdModel::State));

  bool supports_reverse() const override { return true; }

  void init_lp(pdes::LpId lp, std::span<std::byte> state,
               pdes::EventSink& sink) const override {
    state_as<State>(state) = State{0, 0};
    CounterRng rng(hash_combine(params_.seed, static_cast<std::uint64_t>(lp)), 0);
    for (int i = 0; i < params_.start_events_per_lp; ++i) sink.schedule(lp, next_delay(rng));
  }

  void handle_event(std::span<std::byte> state, const pdes::Event& event,
                    pdes::EventSink& sink) const override {
    auto& s = state_as<State>(state);
    ++s.events_handled;
    s.xor_digest ^= digest_of(event);

    CounterRng rng(hash_combine(params_.seed, event.uid), /*counter=*/1);
    const pdes::LpId dst =
        choose_destination(event.dst_lp, params_.remote_pct, params_.regional_pct, rng);
    sink.schedule(dst, event.recv_ts + next_delay(rng));
  }

  void reverse_event(std::span<std::byte> state, const pdes::Event& event) const override {
    auto& s = state_as<State>(state);
    CAGVT_CHECK_MSG(s.events_handled > 0, "reverse of an event that never executed");
    --s.events_handled;
    s.xor_digest ^= digest_of(event);  // XOR is its own inverse
  }

 private:
  static std::uint64_t digest_of(const pdes::Event& event) {
    std::uint64_t x = event.uid;
    return splitmix64(x);
  }
};

}  // namespace cagvt::models
