#include "models/mixed_phold.hpp"

#include <algorithm>

namespace cagvt::models {

void MixedPholdModel::handle_event(std::span<std::byte> state, const pdes::Event& event,
                                   pdes::EventSink& sink) const {
  auto& s = state_as<State>(state);
  ++s.events_handled;
  s.checksum = hash_combine(s.checksum, event.uid);

  const PholdParams& phase = active(event.recv_ts);
  CounterRng rng(hash_combine(params_.seed, event.uid), /*counter=*/1);
  const pdes::LpId dst =
      choose_destination(event.dst_lp, phase.remote_pct, phase.regional_pct, rng);
  sink.schedule(dst, event.recv_ts + next_delay(rng));
}

}  // namespace cagvt::models
