// Copyright 2026 The LearnRisk Authors

#include "gateway/model_registry.h"

#include <algorithm>
#include <cctype>
#include <utility>

namespace learnrisk {

bool ModelRegistry::ValidNamespace(const std::string& ns) {
  if (ns.empty() || ns.size() > 128) return false;
  if (!std::isalnum(static_cast<unsigned char>(ns.front()))) return false;
  for (char c : ns) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

Result<uint64_t> ModelRegistry::Publish(
    const std::string& ns, RiskModel model,
    std::shared_ptr<const DriftBaseline> drift_baseline) {
  if (!ValidNamespace(ns)) {
    return Status::InvalidArgument("invalid namespace '" + ns + "'");
  }
  std::shared_ptr<ServingEngine> engine;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Entry& entry = entries_[ns];
    if (entry.engine == nullptr) {
      entry.engine = std::make_shared<ServingEngine>(entry.version_floor + 1);
      entry.engine->set_metrics(engine_metrics_);
    }
    engine = entry.engine;
  }
  // The snapshot build (the expensive part of Publish) runs outside the
  // registry lock; concurrent publishes to the same namespace serialize
  // inside the engine's forward-only swap.
  const uint64_t version =
      engine->Publish(std::move(model), std::move(drift_baseline));
  if (metrics_.publishes != nullptr) metrics_.publishes->Add(1);
  return version;
}

Result<std::shared_ptr<ServingEngine>> ModelRegistry::Engine(
    const std::string& ns) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(ns);
  if (it == entries_.end() || it->second.engine == nullptr) {
    return Status::NotFound("no model published for namespace '" + ns + "'");
  }
  return it->second.engine;
}

bool ModelRegistry::Contains(const std::string& ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.count(ns) > 0;
}

std::vector<std::string> ModelRegistry::Namespaces() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [ns, entry] : entries_) names.push_back(ns);
  return names;
}

void ModelRegistry::EnsureVersionAtLeast(const std::string& ns,
                                         uint64_t version) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[ns];
  entry.version_floor = std::max(entry.version_floor, version);
}

}  // namespace learnrisk
