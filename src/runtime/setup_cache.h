// SetupCache — thread-safe LRU of shared, immutable solver setups.
//
// The expensive half of every SPCG run (Algorithm 2 sparsification, ILU
// factorization, level-schedule inspection) depends only on (matrix, setup
// options). The cache maps that SetupKey to a shared_ptr<const SolverSetup>
// so concurrent sessions solving the same system share one setup instead of
// rebuilding it per request.
//
// Concurrency model: each entry is a shared_future. A miss inserts the
// future under the lock, then builds *outside* the lock and fulfills it —
// other threads that race to the same key block on the future instead of
// duplicating the build. A build failure erases the entry (and rethrows to
// every waiter), so a later request retries instead of caching the error.
// Eviction drops the least-recently-used entry; in-flight users keep their
// setups alive through the shared_ptr, so eviction never invalidates a
// running solve.
//
// resolve() is the one way in: the exact entry, else (when the caller
// allows it) a private clone of a same-pattern entry with its numbers
// refreshed, else a build under the single-build rule above. It reports
// which of the three happened as one SetupPath.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/spcg.h"
#include "runtime/fingerprint.h"
#include "support/telemetry.h"
#include "support/trace.h"
#include "transient/refactorize.h"

namespace spcg {

/// A cached, immutable setup: the key it was built under plus the artifacts.
template <class T>
struct SolverSetup {
  SetupKey key;
  SpcgSetup<T> artifacts;
};

/// How a session obtained its setup.
enum class SetupPath {
  kHit,      // the exact entry was resident (or being built by another)
  kRefresh,  // private clone of a same-pattern entry, numbers refreshed
  kBuild,    // built by this call
};

/// Counter snapshot of one cache.
struct SetupCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  /// Same-pattern lookups answered from the secondary index: the exact key
  /// missed but an entry with the same pattern + options was resident — a
  /// values-only change, observable distinctly from a cold miss.
  std::uint64_t partial_hits = 0;
  std::size_t entries = 0;

  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

template <class T>
class SetupCache {
 public:
  using SetupPtr = std::shared_ptr<const SolverSetup<T>>;

  /// `capacity` = maximum retained entries (>= 1).
  explicit SetupCache(std::size_t capacity = 16)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// A setup and how it was obtained.
  struct Resolved {
    SetupPtr setup;
    SetupPath path = SetupPath::kBuild;
  };

  /// The setup for `a` under `key` (= make_setup_key(a, opt)) and how it
  /// was obtained. With `refresh` set: the exact entry (kHit), else a clone
  /// of the newest same-pattern entry with its numbers refreshed against `a`
  /// (kRefresh), else the entry, built by spcg_setup(a, opt) on a miss. The
  /// clone is private to the caller and never inserted: it reuses the
  /// donor's sparsification pattern decision, which a cold spcg_setup on the
  /// new values need not make. With `refresh` off this is exactly one
  /// exact-key lookup or build (kHit or kBuild).
  /// Every call records one "setup_cache.lookup" span, its `hit` arg true
  /// exactly for kHit.
  Resolved resolve(const Csr<T>& a, const SetupKey& key,
                   const SpcgOptions& opt, bool refresh) {
    Span lookup_span("setup_cache.lookup", "runtime");
    if (refresh) {
      if (SetupPtr exact = lookup(key)) {
        lookup_span.arg("hit", true);
        return {std::move(exact), SetupPath::kHit};
      }
      if (SetupPtr donor = lookup_same_pattern(key)) {
        lookup_span.arg("hit", false);
        lookup_span.finish();
        Span span("setup.pattern_refresh", "runtime");
        auto fresh = std::make_shared<SolverSetup<T>>();
        fresh->key = key;
        fresh->artifacts = donor->artifacts;
        NumericRefreshWorkspace ws =
            build_numeric_refresh(fresh->artifacts, a);
        refresh_setup_numerics(fresh->artifacts, a, opt, ws);
        return {std::move(fresh), SetupPath::kRefresh};
      }
    }
    bool hit = false;
    SetupPtr setup = find_or_build(
        key, [&] { return spcg_setup(a, opt); }, &hit, lookup_span);
    return {std::move(setup), hit ? SetupPath::kHit : SetupPath::kBuild};
  }

  [[nodiscard]] SetupCacheStats stats() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return {hits_.value(), misses_.value(), evictions_.value(),
            partial_hits_.value(), map_.size()};
  }

  /// Drop every entry (in-flight users keep theirs via shared_ptr).
  void clear() {
    const std::lock_guard<std::mutex> lock(mu_);
    map_.clear();
    lru_.clear();
    pattern_index_.clear();
  }

 private:
  /// The exact entry for `key`, built by `build` on a miss (one build per
  /// key however many callers race to it), under a caller-opened lookup
  /// span, which it finishes with the `hit` arg once the map has answered.
  SetupPtr find_or_build(const SetupKey& key,
                         const std::function<SpcgSetup<T>()>& build,
                         bool* was_hit, Span& lookup_span) {
    std::promise<SetupPtr> promise;
    std::shared_future<SetupPtr> future;
    std::uint64_t my_generation = 0;
    bool build_here = false;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      const auto it = map_.find(key);
      if (it != map_.end()) {
        hits_.add();
        if (was_hit) *was_hit = true;
        lru_.splice(lru_.begin(), lru_, it->second.lru_it);  // touch
        future = it->second.future;
      } else {
        misses_.add();
        if (was_hit) *was_hit = false;
        future = promise.get_future().share();
        lru_.push_front(key);
        my_generation = ++generation_;
        map_.emplace(key, Entry{future, lru_.begin(), my_generation});
        pattern_index_[pattern_key_of(key)].push_back(key);
        build_here = true;
        while (map_.size() > capacity_) {
          const SetupKey& victim = lru_.back();  // never the key just added
          drop_pattern_entry(victim);
          map_.erase(victim);
          lru_.pop_back();
          evictions_.add();
        }
      }
    }
    lookup_span.arg("hit", !build_here);
    lookup_span.finish();
    if (build_here) {
      try {
        Span build_span("setup_cache.build", "runtime");
        auto setup = std::make_shared<SolverSetup<T>>();
        setup->key = key;
        setup->artifacts = build();
        promise.set_value(std::move(setup));
      } catch (...) {
        promise.set_exception(std::current_exception());
        // Drop the poisoned entry (unless it was already evicted or
        // replaced) so the next request retries the build.
        const std::lock_guard<std::mutex> lock(mu_);
        const auto it = map_.find(key);
        if (it != map_.end() && it->second.generation == my_generation) {
          lru_.erase(it->second.lru_it);
          drop_pattern_entry(key);
          map_.erase(it);
        }
      }
    }
    // Builders resolve instantly; racing threads block here until the
    // winning build fulfills the future (or rethrows its error).
    Span wait_span("setup_cache.wait", "runtime");
    return future.get();
  }

  /// Peek: the resident setup for exactly `key`, or null. A hit counts
  /// toward hits_ and touches the LRU; a miss counts nothing (resolve()
  /// falls through and accounts for the outcome there). Blocks if the entry
  /// is still building.
  SetupPtr lookup(const SetupKey& key) {
    std::shared_future<SetupPtr> future;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      const auto it = map_.find(key);
      if (it == map_.end()) return nullptr;
      hits_.add();
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);  // touch
      future = it->second.future;
    }
    try {
      return future.get();
    } catch (...) {
      return nullptr;  // poisoned in-flight entry; treat as absent
    }
  }

  /// The refresh donor: a resident setup whose pattern + options match
  /// `key` but whose values_hash differs (the exact key is skipped).
  /// Returns the most recently inserted such entry, counting a partial hit;
  /// null when none is resident. Its *symbolic* artifacts (ILU pattern,
  /// schedules, sparsify pattern decision) are valid for `key`'s matrix;
  /// its numerics are stale.
  SetupPtr lookup_same_pattern(const SetupKey& key) {
    std::shared_future<SetupPtr> future;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      const auto it = pattern_index_.find(pattern_key_of(key));
      if (it == pattern_index_.end()) return nullptr;
      for (auto rit = it->second.rbegin(); rit != it->second.rend(); ++rit) {
        if (*rit == key) continue;  // exact key: not a *partial* hit
        const auto entry = map_.find(*rit);
        if (entry == map_.end()) continue;  // stale index slot
        partial_hits_.add();
        future = entry->second.future;
        break;
      }
    }
    if (!future.valid()) return nullptr;
    try {
      return future.get();
    } catch (...) {
      return nullptr;
    }
  }

  struct Entry {
    std::shared_future<SetupPtr> future;
    typename std::list<SetupKey>::iterator lru_it;
    std::uint64_t generation = 0;  // distinguishes re-inserts of one key
  };

  /// Remove `key` from its pattern bucket (requires mu_ held).
  void drop_pattern_entry(const SetupKey& key) {
    const auto it = pattern_index_.find(pattern_key_of(key));
    if (it == pattern_index_.end()) return;
    auto& bucket = it->second;
    for (auto bit = bucket.begin(); bit != bucket.end(); ++bit) {
      if (*bit == key) {
        bucket.erase(bit);
        break;
      }
    }
    if (bucket.empty()) pattern_index_.erase(it);
  }

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::list<SetupKey> lru_;  // front = most recently used
  std::unordered_map<SetupKey, Entry, SetupKeyHash> map_;
  /// Secondary index: pattern+options -> resident keys, insertion-ordered
  /// (back = newest). Serves lookup_same_pattern for resolve()'s refresh.
  std::unordered_map<SetupPatternKey, std::vector<SetupKey>,
                     SetupPatternKeyHash>
      pattern_index_;
  std::uint64_t generation_ = 0;
  Counter hits_, misses_, evictions_, partial_hits_;
};

}  // namespace spcg
