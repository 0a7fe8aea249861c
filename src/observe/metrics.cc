#include "observe/metrics.h"

#include <string_view>

namespace dynview {

namespace {

using NameMap = std::map<std::string, uint64_t, std::less<>>;

/// The slot for `name`, allocating the key only on first touch.
uint64_t& Slot(NameMap& map, const char* name) {
  auto it = map.find(std::string_view(name));
  if (it == map.end()) it = map.emplace(name, 0).first;
  return it->second;
}

}  // namespace

void MetricsRegistry::Add(const char* name, uint64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  Slot(counters_, name) += delta;
}

void MetricsRegistry::Set(const char* name, uint64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  Slot(gauges_, name) = value;
}

std::map<std::string, uint64_t> MetricsRegistry::Merged() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, uint64_t> out(counters_.begin(), counters_.end());
  for (const auto& [name, value] : gauges_) out[name] = value;
  return out;
}

uint64_t MetricsRegistry::Value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto git = gauges_.find(name);
  if (git != gauges_.end()) return git->second;
  auto cit = counters_.find(name);
  return cit != counters_.end() ? cit->second : 0;
}

std::string MetricsRegistry::ToFlatText() const {
  std::string out;
  for (const auto& [name, value] : Merged()) {
    out += name;
    out += '=';
    out += std::to_string(value);
    out += '\n';
  }
  return out;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
}

}  // namespace dynview
