#include "models/phold.hpp"

#include <algorithm>

namespace cagvt::models {

using pdes::LpId;

void PholdModel::init_lp(LpId lp, std::span<std::byte> state, pdes::EventSink& sink) const {
  auto& s = state_as<State>(state);
  s = State{0, 0};
  CounterRng rng(hash_combine(params_.seed, static_cast<std::uint64_t>(lp)), /*counter=*/0);
  for (int i = 0; i < params_.start_events_per_lp; ++i) {
    sink.schedule(lp, next_delay(rng));
  }
}

double PholdModel::next_delay(CounterRng& rng) const {
  // Exponential increments can round to zero; the engine requires strictly
  // increasing timestamps, so clamp to a sub-resolution epsilon. min_delay
  // (the conservative lookahead) shifts the whole distribution: the draw
  // stays strictly above it, which is what lookahead() promises.
  return params_.min_delay + std::max(rng.next_exponential(params_.mean_delay), 1e-12);
}

LpId PholdModel::choose_destination(LpId src, double remote_pct, double regional_pct,
                                    CounterRng& rng) const {
  const double r = rng.next_double();
  const int my_worker = map_.worker_of(src);
  const int my_node = map_.node_of(src);
  const auto lps_per_worker = static_cast<std::uint64_t>(map_.lps_per_worker());

  if (r < remote_pct && map_.nodes() > 1) {
    // Remote: uniform over all LPs living on other nodes.
    int node = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(map_.nodes() - 1)));
    if (node >= my_node) ++node;
    const int worker = map_.global_worker(
        node, static_cast<int>(rng.next_below(static_cast<std::uint64_t>(map_.workers_per_node()))));
    return map_.lp_of(worker, static_cast<int>(rng.next_below(lps_per_worker)));
  }
  if (r < remote_pct + regional_pct && map_.workers_per_node() > 1) {
    // Regional: uniform over LPs of other workers on this node.
    int w = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(map_.workers_per_node() - 1)));
    if (w >= map_.worker_in_node_of(my_worker)) ++w;
    const int worker = map_.global_worker(my_node, w);
    return map_.lp_of(worker, static_cast<int>(rng.next_below(lps_per_worker)));
  }
  // Local: uniform over this worker's own LPs (possibly self).
  return map_.lp_of(my_worker, static_cast<int>(rng.next_below(lps_per_worker)));
}

void PholdModel::handle_event(std::span<std::byte> state, const pdes::Event& event,
                              pdes::EventSink& sink) const {
  auto& s = state_as<State>(state);
  ++s.events_handled;
  s.checksum = hash_combine(s.checksum, event.uid);

  CounterRng rng(hash_combine(params_.seed, event.uid), /*counter=*/1);
  const LpId dst = choose_destination(event.dst_lp, params_.remote_pct, params_.regional_pct, rng);
  sink.schedule(dst, event.recv_ts + next_delay(rng));
}

}  // namespace cagvt::models
