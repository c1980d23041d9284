// Copyright 2026 The LearnRisk Authors

#include "gateway/model_registry.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <utility>

namespace learnrisk {
namespace {

Status EnsureDirectory(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create directory '" + dir +
                           "': " + ec.message());
  }
  return Status::OK();
}

}  // namespace

ModelRegistry::ModelRegistry(ModelRegistryOptions options)
    : options_(std::move(options)) {}

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

std::string ModelRegistry::SpillPath(const std::string& ns) const {
  return options_.spill_dir + "/" + ns + ".model";
}

Result<uint64_t> ModelRegistry::Publish(
    const std::string& ns, RiskModel model,
    std::shared_ptr<const DriftBaseline> drift_baseline) {
  if (!ValidNamespace(ns)) {
    return Status::InvalidArgument("invalid namespace '" + ns + "'");
  }
  if (options_.max_resident > 0 && options_.spill_dir.empty()) {
    return Status::InvalidArgument(
        "ModelRegistryOptions.max_resident requires a spill_dir");
  }

  std::shared_ptr<ServingEngine> engine;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Entry& entry = entries_[ns];
    entry.touched = ++clock_;
    if (entry.engine == nullptr) {
      entry.engine = std::make_shared<ServingEngine>(entry.last_version + 1);
      entry.engine->set_metrics(engine_metrics_);
    }
    engine = entry.engine;
    // Pin the engine against eviction for the duration of the publish: all
    // concurrent publishers must funnel into this one engine so its counter
    // keeps versions unique, and a spill mid-flight would orphan the model.
    ++entry.publishing;
  }

  // The snapshot build (the expensive part of Publish) runs outside the
  // registry lock; concurrent publishes to the same namespace serialize
  // inside the engine's forward-only swap.
  const uint64_t version =
      engine->Publish(std::move(model), std::move(drift_baseline));

  {
    std::lock_guard<std::mutex> lock(mu_);
    Entry& entry = entries_[ns];
    --entry.publishing;
    entry.last_version = std::max(entry.last_version, version);
    // The pin kept entry.engine == engine, so a later eviction spills (and
    // a reload re-serves) the snapshot that includes this publish.
  }
  if (metrics_.publishes != nullptr) metrics_.publishes->Add(1);
  // Enforce the residency cap with the lock released during the spill IO;
  // the cap can be exceeded transiently while a spill is in flight. The
  // publish itself has already succeeded — the engine is serving the new
  // snapshot — so cap enforcement is best-effort here: reporting a spill
  // IO failure as a failed publish would invite a retry that duplicates
  // the version. The registry just stays over cap and retries the spill on
  // the next access.
  (void)SpillOverCap();
  return version;
}

Result<std::shared_ptr<ServingEngine>> ModelRegistry::ResidentEngineLocked(
    const std::string& ns, Entry* entry) {
  if (entry->engine == nullptr) {
    auto engine = std::make_shared<ServingEngine>(entry->last_version + 1);
    engine->set_metrics(engine_metrics_);
    Result<uint64_t> version = engine->LoadAndPublish(SpillPath(ns));
    if (!version.ok()) return version.status();
    entry->last_version = std::max(entry->last_version, *version);
    entry->engine = std::move(engine);
    if (metrics_.engine_reloads != nullptr) metrics_.engine_reloads->Add(1);
  } else if (metrics_.engine_hits != nullptr) {
    metrics_.engine_hits->Add(1);
  }
  return entry->engine;
}

Result<std::shared_ptr<ServingEngine>> ModelRegistry::Engine(
    const std::string& ns) {
  Result<std::shared_ptr<ServingEngine>> engine{std::shared_ptr<ServingEngine>()};
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(ns);
    if (it == entries_.end()) {
      return Status::NotFound("unknown namespace '" + ns + "'");
    }
    it->second.touched = ++clock_;
    engine = ResidentEngineLocked(ns, &it->second);
    if (!engine.ok()) return engine.status();
  }
  // Best-effort cap enforcement (see Publish): the lookup succeeded, and a
  // failure to spill some other namespace must not fail this caller.
  (void)SpillOverCap();
  return engine;
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

size_t ModelRegistry::resident_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t count = 0;
  for (const auto& [ns, entry] : entries_) {
    if (entry.engine != nullptr) ++count;
  }
  return count;
}

std::vector<ModelRegistry::SpillJob> ModelRegistry::PlanEvictionsLocked() {
  std::vector<SpillJob> jobs;
  if (options_.max_resident == 0) return jobs;
  auto resident = [this]() {
    size_t count = 0;
    for (const auto& [ns, entry] : entries_) {
      // Entries being spilled — by this plan or a concurrent caller's — are
      // already on their way out; counting them would over-evict.
      if (entry.engine != nullptr && !entry.spilling) ++count;
    }
    return count;
  };
  while (resident() > options_.max_resident) {
    // Least-recently-touched entry whose snapshot can be spilled. Engines
    // still waiting for their first publish have nothing to save and stay
    // resident (they hold no snapshot memory anyway).
    std::map<std::string, Entry>::iterator victim = entries_.end();
    bool skipped_pinned = false;
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.engine == nullptr) continue;
      if (!it->second.engine->has_model()) continue;
      if (it->second.publishing > 0 || it->second.spilling) {
        skipped_pinned = true;  // pinned by publish or an in-flight spill
        continue;
      }
      if (victim == entries_.end() ||
          it->second.touched < victim->second.touched) {
        victim = it;
      }
    }
    if (victim == entries_.end()) {
      // Every over-cap entry is pinned; the registry stays over cap until
      // the next access retries.
      if (skipped_pinned && metrics_.pinned_engine_waits != nullptr) {
        metrics_.pinned_engine_waits->Add(1);
      }
      break;
    }
    victim->second.spilling = true;
    jobs.push_back(SpillJob{victim->first, victim->second.engine,
                            victim->second.engine->version()});
  }
  return jobs;
}

Status ModelRegistry::SpillOverCap() {
  while (true) {
    std::vector<SpillJob> jobs;
    {
      std::lock_guard<std::mutex> lock(mu_);
      jobs = PlanEvictionsLocked();
    }
    if (jobs.empty()) return Status::OK();
    Status failed = Status::OK();
    for (const SpillJob& job : jobs) {
      // The expensive part — directory creation and model IO — runs with
      // the registry unlocked: publishes and engine lookups (on this and
      // every other namespace) proceed while the disk is busy.
      Status io = EnsureDirectory(options_.spill_dir);
      if (io.ok()) {
        if (options_.spill_io_hook) options_.spill_io_hook(job.ns);
        io = job.engine->SaveCurrent(SpillPath(job.ns));
      }
      if (io.ok() && metrics_.spills != nullptr) metrics_.spills->Add(1);
      bool evicted = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        Entry& entry = entries_[job.ns];
        entry.spilling = false;
        // Drop the engine only if the spill file really holds its current
        // state: a publish that landed mid-IO bumps the version, in which
        // case the namespace stays resident (the stale file is overwritten
        // by the next successful spill).
        if (io.ok() && entry.publishing == 0 && entry.engine == job.engine &&
            entry.engine->version() == job.version) {
          entry.engine = nullptr;
          evicted = true;
        }
      }
      if (evicted && metrics_.evictions != nullptr) metrics_.evictions->Add(1);
      if (!io.ok() && failed.ok()) failed = io;
    }
    LEARNRISK_RETURN_NOT_OK(failed);
  }
}

void ModelRegistry::EnsureVersionAtLeast(const std::string& ns,
                                         uint64_t version) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[ns];
  entry.last_version = std::max(entry.last_version, version);
  // The floor only takes effect when the next Publish creates the engine
  // (entry.engine == nullptr) — exactly the recovery / reload situations
  // this exists for; a resident engine keeps its own forward-only counter.
}

}  // namespace learnrisk
