#include "common/metrics_registry.hpp"

#include <cmath>
#include <stdexcept>

#include "common/json_cursor.hpp"

namespace risa {

MetricsRegistry::Id MetricsRegistry::find_or_register(std::string_view name,
                                                      Kind kind) {
  for (const Series& s : series_) {
    if (s.name == name) {
      if (s.kind != kind) {
        throw std::invalid_argument("MetricsRegistry: series '" +
                                    std::string(name) +
                                    "' registered under two kinds");
      }
      return s.slot;
    }
  }
  Id slot = 0;
  switch (kind) {
    case Kind::Counter:
      slot = static_cast<Id>(counters_.size());
      counters_.push_back(0);
      break;
    case Kind::Gauge:
      slot = static_cast<Id>(gauges_.size());
      gauges_.push_back(0.0);
      break;
    case Kind::Histogram:
      slot = static_cast<Id>(hists_.size());
      hists_.emplace_back();
      break;
  }
  series_.push_back(Series{std::string(name), kind, slot});
  return slot;
}

MetricsRegistry::Id MetricsRegistry::counter(std::string_view name) {
  return find_or_register(name, Kind::Counter);
}

MetricsRegistry::Id MetricsRegistry::gauge(std::string_view name) {
  return find_or_register(name, Kind::Gauge);
}

MetricsRegistry::Id MetricsRegistry::histogram(std::string_view name) {
  return find_or_register(name, Kind::Histogram);
}

std::string_view MetricsRegistry::name_of(Kind kind, Id id) const noexcept {
  for (const Series& s : series_) {
    if (s.kind == kind && s.slot == id) return s.name;
  }
  return {};
}

void MetricsRegistry::reset() {
  for (std::int64_t& c : counters_) c = 0;
  for (double& g : gauges_) g = 0.0;
  for (Log2Histogram& h : hists_) h.clear();
}

std::string MetricsRegistry::snapshot_json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const Series& s : series_) {
    if (s.kind != Kind::Counter) continue;
    if (!first) out += ',';
    first = false;
    append_json_string(out, s.name);
    out += ':';
    append_json_number(out, static_cast<double>(counters_[s.slot]));
  }
  out += "},\"gauges\":{";
  first = true;
  for (const Series& s : series_) {
    if (s.kind != Kind::Gauge) continue;
    if (!first) out += ',';
    first = false;
    append_json_string(out, s.name);
    out += ':';
    // NaN/inf are not JSON: a non-finite gauge is written as 0.  Counters
    // and the (unscaled) histogram percentiles are always finite.
    const double g = gauges_[s.slot];
    append_json_number(out, std::isfinite(g) ? g : 0.0);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const Series& s : series_) {
    if (s.kind != Kind::Histogram) continue;
    if (!first) out += ',';
    first = false;
    append_json_string(out, s.name);
    const Log2Histogram& h = hists_[s.slot];
    out += ":{\"count\":";
    append_json_number(out, static_cast<double>(h.total()));
    out += ",\"p50\":";
    append_json_number(out, h.total() > 0 ? h.percentile(50.0) : 0.0);
    out += ",\"p99\":";
    append_json_number(out, h.total() > 0 ? h.percentile(99.0) : 0.0);
    out += ",\"max\":";
    append_json_number(out, h.total() > 0 ? h.percentile(100.0) : 0.0);
    out += '}';
  }
  out += "}}";
  return out;
}

}  // namespace risa
