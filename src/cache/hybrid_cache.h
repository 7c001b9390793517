// HybridCache: the CacheLib-style two-tier cache (paper Figure 1).
//
// DRAM holds the hottest items; DRAM evictions spill to the Navy flash engine
// pair (subject to admission); flash hits are promoted back into DRAM. The
// public API is CacheLib-shaped: Set / Get / Remove on string keys/values,
// with the flash layer, placement handles, and FDP entirely hidden — the
// paper's "non-invasive" design requirement.
//
// One engine serves both call styles. Every operation is an op of the async
// state machine, and a per-key pending table runs the ops on one key in
// submission order whatever their style (a Set followed by a LookupAsync of
// the same key always observes the Set), while ops on distinct keys overlap
// their flash I/O freely. DRAM evictions spill to flash as ops of their own
// on the same table, so a lookup racing a spill waits for it.
//
//   LookupAsync/InsertAsync/RemoveAsync — an op that needs a flash read
//   parks on a device CompletionToken; the callback fires inline when no
//   flash read is needed, otherwise from a later PumpAsync()/DrainAsync().
//
//   Blocking Set/Get/Remove — enqueue the same op, marked as driven by a
//   blocking caller, and pump on the calling thread until it completes. Such
//   an op (and the spills it causes) reads flash through the device's SyncIo
//   fast path instead of parking, so a purely blocking user issues the same
//   device commands at direct-call cost.
//   A callback may make blocking calls: every op hands on its key and bucket
//   claims before its callback fires, and the call pumps what it waits on.
//
// The class itself stays externally synchronized (one shard of ShardedCache,
// or a single-threaded driver): calls, pumps, and callbacks all run under
// whatever lock the owner supplies — with ONE exception: TryRamGet() is safe
// to call with no lock at all, racing the synchronized API. It rides the
// RamCache's lock-free read path, and every piece of state it touches
// (the DRAM tier, the stats counters, the pending-op gauge) is atomic.
#ifndef SRC_CACHE_HYBRID_CACHE_H_
#define SRC_CACHE_HYBRID_CACHE_H_

#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "src/cache/ram_cache.h"
#include "src/common/claim_list.h"
#include "src/navy/navy_cache.h"

namespace fdpcache {

struct HybridCacheConfig {
  uint64_t ram_bytes = 64 * 1024 * 1024;
  NavyConfig navy;
};

struct HybridCacheStats {
  uint64_t gets = 0;
  uint64_t sets = 0;
  uint64_t ram_hits = 0;
  uint64_t nvm_lookups = 0;
  uint64_t nvm_hits = 0;
  uint64_t misses = 0;

  // Overall cache hit ratio (paper Table 2 "Hit Ratio").
  double HitRatio() const {
    return gets == 0 ? 0.0
                     : static_cast<double>(ram_hits + nvm_hits) / static_cast<double>(gets);
  }
  // Hit ratio of the flash tier among lookups that missed DRAM (paper
  // Table 2 "NVM Hit Ratio").
  double NvmHitRatio() const {
    return nvm_lookups == 0 ? 0.0
                            : static_cast<double>(nvm_hits) / static_cast<double>(nvm_lookups);
  }
};

class HybridCache {
 public:
  // `device` backs the flash tier and must outlive the cache. `allocator`
  // and `admission` are optional collaborators (see NavyCache).
  HybridCache(Device* device, const HybridCacheConfig& config,
              PlacementHandleAllocator* allocator = nullptr,
              AdmissionPolicy* admission = nullptr);
  // Drains any still-pending async operations (callbacks fire).
  ~HybridCache();

  // Inserts or updates an item. Set/Get/Remove are the blocking twins of
  // InsertAsync/LookupAsync/RemoveAsync (see the class comment).
  void Set(std::string_view key, std::string_view value);

  // Looks up RAM, then flash. Flash hits are promoted to RAM.
  bool Get(std::string_view key, std::string* value);

  // Lock-free DRAM-tier probe: may be called with NO external lock, racing
  // the synchronized API on other threads. Returns true and fills `value`
  // on a RAM hit (counting a get + ram_hit); returns false — counting
  // NOTHING — when the item is not in RAM or when any async operation is
  // pending on this cache, in which case the caller must fall back to the
  // locked path. The pending-op gate preserves same-key FIFO order: a
  // parked async op means a racing lookup of its key must queue behind it,
  // not short-circuit on RAM state.
  bool TryRamGet(std::string_view key, std::string* value);

  // Removes from both tiers.
  void Remove(std::string_view key);

  // --- Asynchronous API -------------------------------------------------------
  // Callback-based counterparts of Set/Get/Remove; see the class comment for
  // the execution model. Callbacks fire inline when no flash read is needed,
  // otherwise from PumpAsync()/DrainAsync(). Statuses: Lookup → kHit/kMiss;
  // Insert → kOk/kRejected/kError; Remove → kOk (removed) / kMiss (absent).
  void LookupAsync(std::string_view key, AsyncCallback cb);
  void InsertAsync(std::string_view key, std::string_view value, AsyncCallback cb);
  void RemoveAsync(std::string_view key, AsyncCallback cb);

  // Steps parked flash reads that have completed and runs any same-key
  // operations they unblocked; their callbacks fire from inside the call.
  // `blocking` waits for at least one parked read to retire first (no-op
  // when nothing is parked). Returns the number of operations still pending.
  size_t PumpAsync(bool blocking = false);
  // Pumps until no operation is pending — the per-shard completion barrier.
  // Operations submitted by callbacks during the drain are drained too.
  void DrainAsync();
  // Async operations accepted but not yet completed (active, parked, queued
  // behind a same-key claim, and pending eviction spills). Blocking-driven
  // ops are not counted: each finishes inline, at the latest when the async
  // op it queued behind does. Lock-free; safe to read while other threads
  // operate under the owner's lock.
  size_t pending_async_ops() const {
    return pending_async_.load(std::memory_order_acquire);
  }

  // --- Warm restart ---------------------------------------------------------
  // Persists flash-tier recovery state (LOC index + metadata) into `state`;
  // a new HybridCache over the same device recovers the whole flash tier
  // with Recover(). The DRAM tier starts cold, like CacheLib restarts.
  bool PersistFlashState(std::string* state) { return navy_->Persist(state); }
  bool RecoverFlashState(const std::string& state) {
    nvm_stale_.clear();
    return navy_->Recover(state);
  }

  // Snapshot of the cache counters. The counters are relaxed atomics (the
  // lock-free hit path bumps them with no lock held), so a snapshot racing
  // operations may pair counters from adjacent operations; quiescent reads
  // are exact.
  HybridCacheStats stats() const;
  void ResetStats();
  const RamCache& ram() const { return ram_; }
  NavyCache& navy() { return *navy_; }
  const NavyCache& navy() const { return *navy_; }

 private:
  // One cache op. A blocking call's op lives in RunBlocking's frame and
  // views the caller's key and payload. Every other op is a pooled record
  // that copies its key, and its payload once it waits behind another op.
  struct QueuedOp {
    enum class Kind : uint8_t { kLookup, kInsert, kRemove, kSpill };
    Kind kind = Kind::kLookup;
    // Driven by a blocking call: flash reads run inline instead of parking,
    // and the op is not counted in pending_async_. Its spills inherit it.
    bool blocking = false;
    // RunBlocking's record, not the pool's: FinishOp leaves the result in
    // `result` and sets `done` instead of firing a callback.
    bool caller_owned = false;
    bool done = false;
    AsyncResult result;
    // kRemove: the DRAM tier held the item, which counts as removed even
    // when flash holds no copy.
    bool ram_removed = false;
    std::string_view key;
    std::string_view value;  // kInsert / kSpill payload.
    std::string key_storage;
    std::string value_storage;
    // Blocking kLookup: the caller's buffer, which a hit fills in place.
    std::string* out = nullptr;
    AsyncCallback cb;  // Null for kSpill and blocking calls.
    // Owning request trace (0 = untraced): ops cross pump/drain boundaries,
    // so the thread-local trace is re-installed from here when the op runs.
    uint64_t trace_id = 0;
    uint64_t park_start_ns = 0;  // When the flash half parked (0 = no span).
    // Same-key ops queued behind this one while it holds its key's claim
    // (FIFO). Empty, and so allocation-free, unless ops on one key overlap.
    std::vector<QueuedOp*> waiters;
  };

  // Spills a DRAM eviction to flash as an op of its own.
  void OnRamEviction(const std::string& key, const std::string& value);

  // Puts into DRAM on behalf of `op`: the evictions it causes spill in the
  // op's call style.
  bool RamPut(const QueuedOp& op, std::string_view value);
  // A pooled op record holding a copy of `key` and a view of `value`.
  QueuedOp* NewOp(QueuedOp::Kind kind, bool blocking, std::string_view key,
                  std::string_view value, AsyncCallback cb);
  // Runs an op to completion on the calling thread: the blocking API.
  AsyncResult RunBlocking(QueuedOp::Kind kind, std::string_view key,
                          std::string_view value = {}, std::string* out = nullptr);
  // Starts an op for an async entry point, wrapping `cb` in its trace.
  void StartAsync(QueuedOp::Kind kind, std::string_view key, std::string_view value,
                  AsyncCallback cb);
  // Admits an op: runs it now if no active op holds its key, queues it
  // behind the holder otherwise.
  void EnqueueOp(QueuedOp* op);
  // Runs the op's DRAM-tier half, and hands it to ToFlash when it needs
  // the flash tier.
  void RunOp(QueuedOp* op);
  // Starts the op's flash half; FlashDone continues it when that completes.
  void ToFlash(QueuedOp* op);
  // Updates the DRAM tier and the staleness table from the flash result,
  // then finishes the op.
  void FlashDone(QueuedOp* op, AsyncResult result);
  // Completes an op: hands its key claim to the first same-key waiter
  // (which becomes runnable), settles the pending count, and delivers the
  // result (recycling a pooled record before its callback fires).
  void FinishOp(QueuedOp* op, AsyncResult result);
  // nvm_stale_ lookups by a string_view key go through one reused buffer,
  // so they allocate nothing (C++17 sets have no heterogeneous lookup).
  const std::string& StaleProbe(std::string_view key) {
    stale_probe_.assign(key);
    return stale_probe_;
  }
  // Runs the oldest op whose key claim was released.
  void RunNextRunnable();
  // Runs ops whose key claim was released. Reentrancy-safe: nested calls
  // return immediately and the outermost loop drains everything.
  void DrainRunnable();

  RamCache ram_;
  std::unique_ptr<NavyCache> navy_;
  // Keys whose flash copy (if any) is stale because a newer version was
  // written to RAM and has not reached flash yet. CacheLib tracks the same
  // thing with in-memory NVM invalidation state; no device I/O involved.
  std::unordered_set<std::string> nvm_stale_;
  std::string stale_probe_;  // StaleProbe's reused buffer.

  // Relaxed atomics rather than plain counters: TryRamGet (and through it
  // ShardedCache's lock-free hit path) bumps gets/ram_hits with no external
  // lock held, racing locked-path updates.
  struct AtomicStats {
    std::atomic<uint64_t> gets{0};
    std::atomic<uint64_t> sets{0};
    std::atomic<uint64_t> ram_hits{0};
    std::atomic<uint64_t> nvm_lookups{0};
    std::atomic<uint64_t> nvm_hits{0};
    std::atomic<uint64_t> misses{0};
  };
  AtomicStats stats_;

  // The ops holding their key's claim: every active op (running, parked,
  // or runnable) holds one, and same-key ops queue on the holder.
  ClaimList<QueuedOp> claims_;
  std::deque<QueuedOp*> runnable_;
  // Finished pooled records kept for reuse: their strings keep their
  // capacity.
  std::vector<std::unique_ptr<QueuedOp>> free_ops_;
  // Atomic so TryRamGet's gate and ShardedCache's poller can read it with
  // no shard lock; still only written under the owner's synchronization.
  std::atomic<size_t> pending_async_{0};
  bool spill_blocking_ = false;  // Style of the spills RamPut causes.
  bool draining_runnable_ = false;
};

}  // namespace fdpcache

#endif  // SRC_CACHE_HYBRID_CACHE_H_
