#ifndef DYNVIEW_PLAN_CACHE_PLAN_CACHE_H_
#define DYNVIEW_PLAN_CACHE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace dynview {

/// What a lookup found. kStaleMiss means the key was present but its entry
/// no longer applies: pinned to another schema epoch, or its caller's
/// validity check failed at the pinned snapshot. The entry is erased and
/// the caller recompiles.
enum class CacheLookupOutcome { kHit, kMiss, kStaleMiss };

/// A bounded, sharded LRU map from string keys to shared values, each entry
/// pinned to the catalog's schema epoch (CatalogSnapshot::schema_epoch).
/// A plan reads names and schemas, which the epoch covers, so it survives
/// commits that change rows only; what else it depends on the caller
/// re-checks on every hit through Lookup's `valid`. Repeated query traffic
/// hits in one shard lock + one hash probe; entries that no longer apply die
/// lazily at lookup. The cache keeps no counters: its caller tallies the
/// outcomes Lookup and Insert report.
///
/// Sharding keeps concurrent Answer calls on one IntegrationSystem from
/// serializing on a single mutex; within a shard, LRU order is maintained by
/// splicing a per-shard recency list. Values are shared_ptr so a hit stays
/// valid after a concurrent eviction or Clear.
template <typename V>
class ShardedLruCache {
 public:
  /// `capacity` is the total entry bound, split evenly across `num_shards`
  /// (each shard holds at least one entry).
  explicit ShardedLruCache(size_t capacity = 256, size_t num_shards = 8) {
    if (num_shards == 0) num_shards = 1;
    if (num_shards > capacity && capacity > 0) num_shards = capacity;
    per_shard_cap_ = capacity == 0 ? 1 : (capacity + num_shards - 1) / num_shards;
    shards_.reserve(num_shards);
    for (size_t i = 0; i < num_shards; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }

  /// The value under `key` when present, pinned to `epoch` AND `valid(value)`
  /// holds; nullptr otherwise. An entry failing either test is erased (lazy
  /// invalidation). `valid` runs under the shard lock, so keep it cheap.
  /// `outcome` (optional) reports which of the three cases happened.
  template <typename Valid>
  std::shared_ptr<V> Lookup(const std::string& key, uint64_t epoch,
                            const Valid& valid,
                            CacheLookupOutcome* outcome = nullptr) {
    Shard& s = ShardFor(key);
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.map.find(key);
    if (it == s.map.end()) {
      if (outcome != nullptr) *outcome = CacheLookupOutcome::kMiss;
      return nullptr;
    }
    if (it->second.epoch != epoch || !valid(*it->second.value)) {
      s.lru.erase(it->second.lru_it);
      s.map.erase(it);
      if (outcome != nullptr) *outcome = CacheLookupOutcome::kStaleMiss;
      return nullptr;
    }
    s.lru.splice(s.lru.begin(), s.lru, it->second.lru_it);
    if (outcome != nullptr) *outcome = CacheLookupOutcome::kHit;
    return it->second.value;
  }

  /// Inserts (or replaces) `key` → `value` pinned to `epoch`. Returns the
  /// number of LRU entries evicted to stay within capacity.
  size_t Insert(const std::string& key, uint64_t epoch,
                std::shared_ptr<V> value) {
    Shard& s = ShardFor(key);
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.map.find(key);
    if (it != s.map.end()) {
      it->second.epoch = epoch;
      it->second.value = std::move(value);
      s.lru.splice(s.lru.begin(), s.lru, it->second.lru_it);
      return 0;
    }
    s.lru.push_front(key);
    s.map.emplace(key, Entry{epoch, std::move(value), s.lru.begin()});
    size_t evicted = 0;
    while (s.map.size() > per_shard_cap_) {
      s.map.erase(s.lru.back());
      s.lru.pop_back();
      ++evicted;
    }
    return evicted;
  }

  /// Drops `key` if present (failpoint poisoning, explicit invalidation).
  bool Erase(const std::string& key) {
    Shard& s = ShardFor(key);
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.map.find(key);
    if (it == s.map.end()) return false;
    s.lru.erase(it->second.lru_it);
    s.map.erase(it);
    return true;
  }

  /// Drops every entry (the source, index or diagnostic universe changed).
  void Clear() {
    for (auto& sp : shards_) {
      std::lock_guard<std::mutex> lock(sp->mu);
      sp->map.clear();
      sp->lru.clear();
    }
  }

  size_t size() const {
    size_t n = 0;
    for (const auto& sp : shards_) {
      std::lock_guard<std::mutex> lock(sp->mu);
      n += sp->map.size();
    }
    return n;
  }

 private:
  struct Entry {
    uint64_t epoch = 0;
    std::shared_ptr<V> value;
    typename std::list<std::string>::iterator lru_it;
  };

  struct Shard {
    mutable std::mutex mu;
    std::list<std::string> lru;  // Front = most recently used.
    std::unordered_map<std::string, Entry> map;
  };

  Shard& ShardFor(const std::string& key) {
    return *shards_[std::hash<std::string>{}(key) % shards_.size()];
  }

  size_t per_shard_cap_ = 1;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace dynview

#endif  // DYNVIEW_PLAN_CACHE_PLAN_CACHE_H_
