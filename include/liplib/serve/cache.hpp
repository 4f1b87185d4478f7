// liplib/serve/cache.hpp
//
// The daemon's content-addressed result cache.
//
// Every cacheable analysis the server performs is a pure function of
// (topology content, protocol policy, seed, request kind, budget) — the
// repo's analyses are deterministic by construction (that is what the
// campaign determinism tests lock down) — so their serialized results
// can be memoized under a key derived from the *content* of the design,
// not its file name or request identity.  Two tenants submitting the
// same netlist text, or the same netlist with different whitespace,
// hash to the same key and the second one is served from memory,
// byte-identical to a fresh computation.
//
// Eviction is TTL + LRU: entries expire `ttl_ms` after insertion (0 =
// never), and when the byte budget overflows the least-recently-used
// entries are dropped.  Hit / miss / insertion / eviction / expiration
// counters are kept with support/metrics.hpp primitives and exported
// through the server's `status` endpoint.
//
// The clock is injectable so TTL behaviour is unit-testable without
// sleeping.

#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "liplib/graph/topology.hpp"
#include "liplib/support/json.hpp"
#include "liplib/support/metrics.hpp"

namespace liplib::serve {

/// FNV-1a 64-bit hash (the content address primitive; stable across
/// platforms and runs, unlike std::hash).
std::uint64_t fnv1a64(std::string_view bytes,
                      std::uint64_t seed = 0xcbf29ce484222325ull);

/// Content hash of a topology: FNV-1a over the canonical netlist
/// rendering (graph::write_netlist), so formatting, comments and
/// annotation whitespace in the submitted text never split the cache.
std::uint64_t topology_hash(const graph::Topology& topo);

/// Cache configuration.
struct CacheOptions {
  std::size_t capacity_bytes = 64u << 20;  ///< LRU byte budget (keys+values)
  std::uint64_t ttl_ms = 10 * 60 * 1000;   ///< entry lifetime; 0 = no expiry
};

/// Monotonic counters of one cache instance (a consistent snapshot).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;    ///< dropped by the LRU byte budget
  std::uint64_t expirations = 0;  ///< dropped because the TTL elapsed
  std::size_t entries = 0;
  std::size_t bytes = 0;
};

/// Thread-safe content-addressed result cache with TTL + LRU eviction.
class ResultCache {
 public:
  /// `now_ms` supplies the TTL clock; the default is the process
  /// steady clock.  Tests inject a fake to step time explicitly.
  explicit ResultCache(CacheOptions opts = {},
                       std::function<std::uint64_t()> now_ms = {});

  /// Returns the cached value and refreshes its LRU position, or
  /// nullopt (counting a miss; an entry past its TTL is dropped and
  /// counted as an expiration *and* a miss).
  std::optional<std::string> lookup(const std::string& key);

  /// Inserts (or overwrites) `key`, then evicts LRU entries until the
  /// byte budget holds.  A value bigger than the whole budget is
  /// accepted and evicted alone on the next insertion.  Returns the
  /// number of entries evicted by this insertion (the request handler
  /// turns a non-zero count into a "cache.evict" span event).
  std::size_t insert(const std::string& key, std::string value);

  /// Drops every entry (counters are preserved; the drop is not counted
  /// as eviction).
  void clear();

  CacheStats stats() const;
  const CacheOptions& options() const { return opts_; }

  /// Counter snapshot as a Json object (schema fragment of
  /// "liplib.serve.status/3"): hit/miss/insertion/eviction/expiration
  /// counts, entry/byte occupancy and the configured limits.
  Json stats_json() const;

 private:
  struct Entry {
    std::string key;
    std::string value;
    std::uint64_t expires_ms = 0;  ///< 0 = never
  };
  using LruList = std::list<Entry>;

  /// Caller holds mu_.  Removes `it`, adjusting occupancy.
  void erase_locked(LruList::iterator it);

  CacheOptions opts_;
  std::function<std::uint64_t()> now_ms_;

  mutable std::mutex mu_;
  LruList lru_;  ///< front = most recently used
  std::unordered_map<std::string_view, LruList::iterator> index_;
  std::size_t bytes_ = 0;
  metrics::Counter hits_, misses_, insertions_, evictions_, expirations_;
};

}  // namespace liplib::serve
