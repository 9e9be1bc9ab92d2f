// Hotspot PHOLD: LP "heat" follows a Zipf distribution over LP ids
// (rank = LP id, so the lowest ids — node 0 / worker 0 under the static
// placement — are hottest). Heat has two components, both Zipf-weighted:
//
//  * computation: an event handled by a hot LP costs extra grains
//    (`hot_cost` times the LP's Zipf weight on top of the base EPG);
//  * traffic: a fraction `hotspot_pct` of generated events target a
//    Zipf-picked LP instead of the base PHOLD local/regional/remote mix.
//
// The block placement stacks the whole hot set on worker 0, which falls
// behind while the rest of the cluster races ahead: the LVT-roughness
// signature dynamic migration (src/lb) is built to fix. Unlike
// imbalanced-phold (whose hotness is a property of the hosting worker,
// modelling degraded hardware), hotness here travels WITH the LP when it
// migrates. The computation component dominates by default: a traffic-
// dominated hotspot (high `hotspot_pct`, sharp `zipf_s`) is exactly the
// workload where co-location is communication-optimal and splitting the
// hot block trades compute balance for cross-worker rollback chains.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "models/phold.hpp"

namespace cagvt::models {

struct HotspotPholdParams {
  PholdParams base;
  /// Probability a generated event targets the Zipf hotspot instead of the
  /// base PHOLD regional/remote/local pattern.
  double hotspot_pct = 0.15;
  /// Zipf exponent: weight(rank r) = 1 / (r+1)^s. Larger = sharper spike.
  double zipf_s = 1.1;
  /// Extra computation for events handled BY a hot LP: an event destined
  /// to LP of Zipf weight w (rank 0 = 1.0) costs base EPG * (1 + hot_cost
  /// * w). Cost rides the LP across migrations; timestamps and targets are
  /// unaffected, so fingerprints are placement- and cost-invariant.
  double hot_cost = 6.0;
};

class HotspotPholdModel : public PholdModel {
 public:
  HotspotPholdModel(const pdes::LpMap& map, HotspotPholdParams params)
      : PholdModel(map, params.base), hs_(params) {
    CAGVT_CHECK(params.hotspot_pct >= 0 && params.hotspot_pct <= 1);
    CAGVT_CHECK(params.zipf_s > 0);
    CAGVT_CHECK(params.hot_cost >= 0);
    // Inverse-CDF table: cumulative Zipf weights over every LP, rank = id.
    cum_.reserve(static_cast<std::size_t>(map.total_lps()));
    double total = 0;
    for (pdes::LpId lp = 0; lp < map.total_lps(); ++lp) {
      total += 1.0 / std::pow(static_cast<double>(lp + 1), params.zipf_s);
      cum_.push_back(total);
    }
  }

  void handle_event(std::span<std::byte> state, const pdes::Event& event,
                    pdes::EventSink& sink) const override {
    auto& s = state_as<State>(state);
    ++s.events_handled;
    s.checksum = hash_combine(s.checksum, event.uid);

    CounterRng rng(hash_combine(params_.seed, event.uid), /*counter=*/1);
    pdes::LpId dst;
    if (rng.next_double() < hs_.hotspot_pct) {
      dst = zipf_pick(rng);
    } else {
      dst = choose_destination(event.dst_lp, params_.remote_pct, params_.regional_pct, rng);
    }
    sink.schedule(dst, event.recv_ts + next_delay(rng));
  }

  double cost_units(const pdes::Event& event) const override {
    const double w =
        1.0 / std::pow(static_cast<double>(event.dst_lp + 1), hs_.zipf_s);
    return params_.epg_units * (1.0 + hs_.hot_cost * w);
  }

  const HotspotPholdParams& hotspot_params() const { return hs_; }

 private:
  pdes::LpId zipf_pick(CounterRng& rng) const {
    const double u = rng.next_double() * cum_.back();
    const auto it = std::upper_bound(cum_.begin(), cum_.end(), u);
    return static_cast<pdes::LpId>(std::min<std::ptrdiff_t>(
        it - cum_.begin(), static_cast<std::ptrdiff_t>(cum_.size()) - 1));
  }

  HotspotPholdParams hs_;
  std::vector<double> cum_;  // cumulative Zipf weight, indexed by LP id
};

}  // namespace cagvt::models
