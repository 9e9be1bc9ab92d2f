// Sequential reference simulator.
//
// Executes the same Model with the same seed in strict (timestamp, uid)
// order on a single global event list — no optimism, no rollbacks. Because
// model randomness is counter-based on replay-stable uids, ANY correct
// Time Warp run of the same configuration must commit exactly the same set
// of events; the order-independent fingerprint makes that comparable. This
// is the oracle for the golden-model equivalence tests.
#pragma once

#include <cstdint>
#include <vector>

#include "pdes/event.hpp"
#include "pdes/kernel.hpp"
#include "pdes/mapping.hpp"
#include "pdes/model.hpp"
#include "pdes/pending_set.hpp"

namespace cagvt::pdes {

class SequentialReference {
 public:
  SequentialReference(const Model& model, const LpMap& map, KernelConfig cfg);

  /// Process every event with recv_ts <= cfg.end_vt in global order.
  void run();

  std::uint64_t committed() const { return committed_; }
  std::uint64_t fingerprint() const { return fingerprint_; }
  /// Order-independent hash of all final LP states; the oracle value the
  /// Time Warp kernels' aggregated state_hash() must reproduce.
  std::uint64_t state_hash() const;
  VirtualTime final_lvt(LpId lp) const { return lvts_[static_cast<std::size_t>(lp)]; }
  std::span<const std::byte> lp_state(LpId lp) const {
    const auto& s = states_[static_cast<std::size_t>(lp)];
    return {s.data(), s.size()};
  }

 private:
  const Model& model_;
  LpMap map_;
  KernelConfig cfg_;
  std::vector<std::vector<std::byte>> states_;
  std::vector<VirtualTime> lvts_;
  PendingSet pending_;
  std::uint64_t committed_ = 0;
  std::uint64_t fingerprint_ = 0;
};

}  // namespace cagvt::pdes
