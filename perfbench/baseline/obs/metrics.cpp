#include "obs/metrics.hpp"

#include <stdexcept>

namespace cagvt::obs {

MetricsRegistry::Slot& MetricsRegistry::slot_for(const std::string& name, Kind kind) {
  auto it = slots_.find(name);
  if (it == slots_.end()) {
    auto slot = std::make_unique<Slot>();
    slot->kind = kind;
    it = slots_.emplace(name, std::move(slot)).first;
  } else if (it->second->kind != kind) {
    throw std::invalid_argument("metric '" + name + "' already registered as a different type");
  }
  return *it->second;
}

CounterHandle MetricsRegistry::counter(const std::string& name) {
  if (!enabled_) return CounterHandle{};
  return CounterHandle{&slot_for(name, Kind::kCounter).counter};
}

GaugeHandle MetricsRegistry::gauge(const std::string& name) {
  if (!enabled_) return GaugeHandle{};
  return GaugeHandle{&slot_for(name, Kind::kGauge).gauge};
}

HistogramHandle MetricsRegistry::histogram(const std::string& name, double lo, double hi,
                                           std::size_t buckets) {
  if (!enabled_) return HistogramHandle{};
  Slot& slot = slot_for(name, Kind::kHistogram);
  if (!slot.hist) slot.hist = std::make_unique<Histogram>(lo, hi, buckets);
  return HistogramHandle{slot.hist.get()};
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  for (const auto& [name, slot] : slots_) {
    switch (slot->kind) {
      case Kind::kCounter:
        snap.values[name] = static_cast<double>(slot->counter);
        break;
      case Kind::kGauge:
        snap.values[name] = slot->gauge;
        break;
      case Kind::kHistogram: {
        const Histogram& h = *slot->hist;
        snap.values[name + ".count"] = static_cast<double>(h.stat().count());
        snap.values[name + ".mean"] = h.stat().mean();
        snap.values[name + ".min"] = h.stat().min();
        snap.values[name + ".max"] = h.stat().max();
        for (std::size_t b = 0; b < h.buckets(); ++b)
          snap.values[name + ".bucket" + std::to_string(b)] =
              static_cast<double>(h.bucket_count(b));
        break;
      }
    }
  }
  return snap;
}

void MetricsRegistry::reset() { slots_.clear(); }

MetricsSnapshot diff(const MetricsSnapshot& later, const MetricsSnapshot& earlier) {
  MetricsSnapshot out;
  for (const auto& [name, value] : later.values) {
    const auto it = earlier.values.find(name);
    out.values[name] = it != earlier.values.end() ? value - it->second : value;
  }
  return out;
}

}  // namespace cagvt::obs
