// Imbalanced PHOLD: a fraction of workers host "hot" LPs whose events cost
// a multiple of the base EPG. Reproduces the imbalanced-model comparisons
// the paper inherits from Eker et al. (DS-RT 2018): synchronous GVT is
// expected to tolerate imbalance better because barriers stop fast threads
// from racing ahead of the loaded ones.
#pragma once

#include "models/phold.hpp"

namespace cagvt::models {

struct ImbalancedPholdParams {
  PholdParams base;
  /// Fraction of each node's workers whose LPs are hot (rounded up to at
  /// least one worker when > 0).
  double hot_worker_fraction = 0.25;
  /// EPG multiplier applied to events handled by hot LPs.
  double hot_factor = 4.0;
};

class ImbalancedPholdModel : public PholdModel {
 public:
  ImbalancedPholdModel(const pdes::LpMap& map, ImbalancedPholdParams params)
      : PholdModel(map, params.base), imb_(params) {
    CAGVT_CHECK(params.hot_factor >= 1.0);
    hot_workers_per_node_ =
        params.hot_worker_fraction <= 0
            ? 0
            : std::max(1, static_cast<int>(static_cast<double>(map.workers_per_node()) *
                                           params.hot_worker_fraction));
  }

  bool is_hot(pdes::LpId lp) const {
    return map_.worker_in_node(lp) < hot_workers_per_node_;
  }

  double cost_units(const pdes::Event& event) const override {
    return is_hot(event.dst_lp) ? params_.epg_units * imb_.hot_factor : params_.epg_units;
  }

  int hot_workers_per_node() const { return hot_workers_per_node_; }

 private:
  ImbalancedPholdParams imb_;
  int hot_workers_per_node_ = 0;
};

}  // namespace cagvt::models
