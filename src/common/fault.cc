#include "common/fault.h"

#include <atomic>
#include <mutex>
#include <unordered_map>

namespace opinedb::fault {

namespace {

struct SiteState {
  uint64_t hits = 0;
  uint64_t nth = 0;
  bool armed = false;
};

struct Registry {
  std::mutex mu;
  std::unordered_map<std::string, SiteState> sites;  // Guarded by mu.
  /// Sites currently armed. The hot path loads this once and bails when
  /// zero, so an idle registry costs no locks and perturbs nothing.
  std::atomic<size_t> armed{0};
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();  // Leaked: process lifetime.
  return *registry;
}

}  // namespace

std::vector<const char*> SitesOfKind(SiteKind kind) {
  std::vector<const char*> names;
  for (const Site& site : kSites) {
    if (site.kind == kind) names.push_back(site.name);
  }
  return names;
}

bool CompiledIn() {
#if defined(OPINEDB_ENABLE_FAULT_INJECTION)
  return true;
#else
  return false;
#endif
}

void Arm(std::string_view site, uint64_t nth) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  SiteState& state = registry.sites[std::string(site)];
  if (!state.armed) {
    registry.armed.fetch_add(1, std::memory_order_relaxed);
  }
  state.armed = true;
  state.nth = nth == 0 ? 1 : nth;
  state.hits = 0;
}

void DisarmAll() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.sites.clear();
  registry.armed.store(0, std::memory_order_relaxed);
}

uint64_t HitCount(std::string_view site) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  auto it = registry.sites.find(std::string(site));
  return it == registry.sites.end() ? 0 : it->second.hits;
}

bool ShouldFail(const char* site) {
  Registry& registry = GetRegistry();
  if (registry.armed.load(std::memory_order_relaxed) == 0) return false;
  std::lock_guard<std::mutex> lock(registry.mu);
  auto it = registry.sites.find(site);
  if (it == registry.sites.end()) return false;
  SiteState& state = it->second;
  ++state.hits;
  if (!state.armed || state.hits != state.nth) return false;
  // One-shot: the site stays registered (hits keep counting) but will
  // not fire again until re-armed, so retries after the fault succeed.
  state.armed = false;
  registry.armed.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

}  // namespace opinedb::fault
