#ifndef DACE_CORE_PREDICTION_CACHE_H_
#define DACE_CORE_PREDICTION_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>

#include "obs/metrics.h"

namespace dace::core {

// Bounded LRU cache from plan fingerprint to predicted runtime, shared by
// the serving paths (PredictMs / PredictBatchMs). Keys are 64-bit content
// fingerprints of the featurized sub-plan tree (Featurizer::Fingerprint);
// values are the final, inverse-transformed milliseconds, so a hit skips
// featurization AND the forward pass.
//
// Staleness: every entry is implicitly versioned by the caller's epoch
// (DaceEstimator::CacheEpoch: the weights version plus the serving settings
// that shape an answer). Lookup/Insert take the caller's current version;
// when it differs from the version the cache was filled under, the whole
// cache is flushed first (weight updates and setting changes invalidate every
// prediction at once, so per-entry version tags would just waste space).
//
// Thread safety: all operations take an internal mutex. PredictBatchMs
// workers hit the cache concurrently; the critical sections are a hash
// probe + list splice, orders of magnitude cheaper than the ~100µs forward
// pass a hit avoids.
//
// Observability: hit/miss/eviction counts live in obs::Counter instances —
// per-instance ones backing GetStats() (exact per-cache, resettable), plus
// process-wide "predict.cache.{hits,misses,evictions}" registry counters
// aggregated across every cache so run reports (--metrics-json) show cache
// behaviour without bespoke plumbing. The registry counters are monotone:
// Reset() clears only the per-instance view.
class PredictionCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    size_t size = 0;
    size_t capacity = 0;
  };

  explicit PredictionCache(size_t capacity);

  PredictionCache(const PredictionCache&) = delete;
  PredictionCache& operator=(const PredictionCache&) = delete;

  // True (and *ms_out filled) on hit; promotes the entry to most-recent.
  // A miss is counted. Always misses when capacity is 0.
  bool Lookup(uint64_t version, uint64_t fingerprint, double* ms_out);

  // Inserts or refreshes fingerprint → ms, evicting the least-recently-used
  // entry if at capacity. No-op when capacity is 0.
  void Insert(uint64_t version, uint64_t fingerprint, double ms);

  // Drops all entries (counters survive; eviction count is unchanged —
  // flushes are tracked by the caller-visible version bump, not as LRU
  // pressure).
  void Clear();

  // Resets entries AND counters, and changes capacity.
  void Reset(size_t capacity);

  Stats GetStats() const;

 private:
  void FlushIfStaleLocked(uint64_t version);

  struct Entry {
    uint64_t fingerprint;
    double ms;
  };

  mutable std::mutex mu_;
  size_t capacity_;
  uint64_t version_ = 0;  // epoch the current contents belong to
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<uint64_t, std::list<Entry>::iterator> index_;
  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter evictions_;
  // Registry aggregates (shared across caches, never reset).
  obs::Counter* agg_hits_;
  obs::Counter* agg_misses_;
  obs::Counter* agg_evictions_;
};

}  // namespace dace::core

#endif  // DACE_CORE_PREDICTION_CACHE_H_
