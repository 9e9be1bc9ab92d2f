#include "pdes/seqref.hpp"

namespace cagvt::pdes {

SequentialReference::SequentialReference(const Model& model, const LpMap& map, KernelConfig cfg)
    : model_(model), map_(map), cfg_(cfg) {
  const LpId n = map.total_lps();
  states_.resize(static_cast<std::size_t>(n));
  lvts_.assign(static_cast<std::size_t>(n), 0.0);
  for (LpId lp = 0; lp < n; ++lp) {
    auto& state = states_[static_cast<std::size_t>(lp)];
    state.assign(model.state_size(), std::byte{0});
    InlineVec<Event, 2> initial;
    // Identical uid derivation to ThreadKernel::init — this is what makes
    // the fingerprints comparable.
    EventSink sink(lp, 0.0, hash_combine(cfg.seed, static_cast<std::uint64_t>(lp)), initial);
    model.init_lp(lp, {state.data(), state.size()}, sink);
    for (std::size_t i = 0; i < initial.size(); ++i) {
      CAGVT_CHECK(initial[i].dst_lp == lp);
      pending_.push(initial[i]);
    }
  }
}

void SequentialReference::run() {
  while (auto ev = pending_.pop_next(cfg_.end_vt)) {
    auto& state = states_[static_cast<std::size_t>(ev->dst_lp)];
    InlineVec<Event, 2> outputs;
    EventSink sink(ev->dst_lp, ev->recv_ts, ev->uid, outputs);
    model_.handle_event({state.data(), state.size()}, *ev, sink);
    lvts_[static_cast<std::size_t>(ev->dst_lp)] = ev->recv_ts;
    for (std::size_t i = 0; i < outputs.size(); ++i) pending_.push(outputs[i]);
    ++committed_;
    fingerprint_ += ThreadKernel::commit_fingerprint(*ev);
  }
}

std::uint64_t SequentialReference::state_hash() const {
  std::uint64_t total = 0;
  for (LpId lp = 0; lp < map_.total_lps(); ++lp)
    total += ThreadKernel::lp_state_hash(lp, lp_state(lp));
  return total;
}

}  // namespace cagvt::pdes
