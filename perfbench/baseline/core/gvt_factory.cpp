#include "core/barrier_gvt.hpp"
#include "core/ca_gvt.hpp"
#include "core/epoch_gvt.hpp"
#include "core/gvt.hpp"
#include "core/mattern_gvt.hpp"
#include "core/node_runtime.hpp"

namespace cagvt::core {

void GvtAlgorithm::note_round_tier(SyncTier tier) {
  switch (tier) {
    case SyncTier::kAsync:
      node_.metrics().counter("gvt.tier.async").inc();
      break;
    case SyncTier::kThrottle:
      ++stats_.throttle_rounds;
      node_.metrics().counter("gvt.tier.throttle").inc();
      break;
    case SyncTier::kSync:
      node_.metrics().counter("gvt.tier.sync").inc();
      break;
  }
  node_.metrics().gauge("gvt.tier").set(static_cast<double>(tier));
}

std::unique_ptr<GvtAlgorithm> make_gvt(GvtKind kind, NodeRuntime& node) {
  switch (kind) {
    case GvtKind::kBarrier: return std::make_unique<BarrierGvt>(node);
    case GvtKind::kMattern: return std::make_unique<MatternGvt>(node);
    case GvtKind::kControlledAsync: return std::make_unique<CaGvt>(node);
    case GvtKind::kEpoch: return std::make_unique<EpochGvt>(node);
  }
  CAGVT_CHECK_MSG(false, "unknown GVT kind");
  return nullptr;
}

}  // namespace cagvt::core
