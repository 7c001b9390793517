// NavyCache: the flash-cache engine pair (paper Figure 1/Figure 4).
//
// Routes small items to the set-associative SOC and large items to the
// log-structured LOC, allocating each engine its own placement handle so the
// two streams land in different reclaim units on FDP devices. With FDP off
// (or an FDP-less device) both engines get the default handle and behaviour
// matches stock CacheLib.
//
// One engine serves both call styles: a blocking Insert/Lookup/Remove starts
// the op its *Async twin starts, marked as driven by a blocking caller (its
// flash reads go through the device's SyncIo fast path instead of parking),
// and pumps until the op's callback fires. SOC read-modify-writes claim their
// bucket whatever their style, so overlapping rewrites never lose an update.
#ifndef SRC_NAVY_NAVY_CACHE_H_
#define SRC_NAVY_NAVY_CACHE_H_

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/claim_list.h"
#include "src/navy/admission.h"
#include "src/navy/async_result.h"
#include "src/navy/device.h"
#include "src/navy/loc.h"
#include "src/navy/placement.h"
#include "src/navy/soc.h"

namespace fdpcache {

struct NavyConfig {
  // Items at or below this size go to the SOC (key + value bytes).
  uint64_t small_item_max_bytes = 2048;
  // Fraction of the device space given to the SOC (paper default: 4%).
  double soc_fraction = 0.04;
  uint32_t soc_bucket_size = 4096;
  bool soc_bloom_filters = true;
  uint64_t loc_region_size = 2 * 1024 * 1024;
  LocEvictionPolicy loc_eviction = LocEvictionPolicy::kFifo;
  bool loc_trim_on_evict = false;
  // Asynchronous flash-write pipelining (0 = synchronous, the conservative
  // default): how many sealed LOC regions / SOC bucket rewrites may be in
  // flight on the device at once. The concurrent backend enables both.
  uint32_t loc_inflight_regions = 0;
  uint32_t soc_inflight_writes = 0;
  // Use FDP placement handles when the device offers them (the paper's
  // upstreamed CacheLib change; disable for the Non-FDP baseline).
  bool use_placement_handles = true;
  // Device queue pair the engines submit on (wrapped modulo the device's
  // queue-pair count). ShardedSimBackend maps shard index -> queue pair so
  // each shard rides its own SQ/CQ, like per-core NVMe queues.
  uint32_t queue_pair = 0;
  // Optional separate queue pair for the LOC (default: same as queue_pair).
  // The two engines address disjoint byte ranges, so splitting their streams
  // across SQs is safe — ExperimentRunner uses this to give each placement
  // stream its own queue, mirroring the per-stream RUH segregation.
  std::optional<uint32_t> loc_queue_pair;
  // Byte range of the device used by this engine pair.
  uint64_t base_offset = 0;
  uint64_t size_bytes = 0;  // 0 = whole device.
};

struct NavyStats {
  SocStats soc;
  LocStats loc;
  uint64_t admission_rejects = 0;

  double Alwa() const {
    const uint64_t item =
        soc.item_bytes_written + loc.item_bytes_written;
    const uint64_t dev = soc.bytes_written + loc.bytes_written;
    return item == 0 ? 1.0 : static_cast<double>(dev) / static_cast<double>(item);
  }
};

class NavyCache {
 public:
  // `device` and `admission` (optional) must outlive the cache. Placement
  // handles are drawn from `allocator` when provided and the config enables
  // them (one for SOC, one for LOC), implementing paper §5.3.
  NavyCache(Device* device, const NavyConfig& config,
            PlacementHandleAllocator* allocator = nullptr,
            AdmissionPolicy* admission = nullptr);
  // Completes any still-parked async operations (callbacks fire).
  ~NavyCache();

  // Blocking ops: each runs its async op to completion (see the class
  // comment). Insert returns false when admission rejects the item or the
  // write fails.
  bool Insert(std::string_view key, std::string_view value);
  std::optional<std::string> Lookup(std::string_view key);
  bool Remove(std::string_view key);

  // --- Asynchronous API -------------------------------------------------------
  // The DRAM-side state (index, bloom filters, in-flight write buffers) is
  // consulted immediately; a flash read is Submit()ted and the op parks on
  // its CompletionToken, its callback firing from a later PumpAsync() /
  // DrainAsync(). Ops that need no device read fire their callback inline.
  // Calls (pumps included) must be externally serialized. Same-key ordering
  // is the cache tier's pending-key table (HybridCache), not provided here.
  void LookupAsync(std::string_view key, AsyncCallback cb) {
    StartOp(OpKind::kLookup, key, {}, std::move(cb), /*blocking=*/false);
  }
  void InsertAsync(std::string_view key, std::string_view value, AsyncCallback cb) {
    StartOp(OpKind::kInsert, key, value, std::move(cb), /*blocking=*/false);
  }
  void RemoveAsync(std::string_view key, AsyncCallback cb) {
    StartOp(OpKind::kRemove, key, {}, std::move(cb), /*blocking=*/false);
  }

  // Steps every parked operation whose flash read has completed (their
  // callbacks fire from inside the call). Returns the number completed.
  size_t PumpAsync();
  // Runs the RMW ops a finished op handed its bucket claim to, if any;
  // otherwise blocks until the oldest parked operation's read retires, steps
  // it, then sweeps any other completions. Returns false, doing nothing,
  // when no op is runnable or parked.
  bool PumpAsyncBlocking();
  // Runs the pump to quiescence: returns once no operation is parked or
  // queued (including ones enqueued by callbacks during the drain).
  void DrainAsync();
  // Parked + queued async operations (each counted from submission until its
  // callback has fired).
  size_t pending_async_ops() const { return pending_async_; }

  // Seals the open LOC region and retires every in-flight flash write from
  // both engines — the barrier before shutdown or direct device inspection.
  // Returns false if a seal or an async write failed (state stays
  // consistent; the affected items degrade to misses).
  bool Flush();

  // Retires every in-flight flash write WITHOUT sealing the open LOC region
  // — the measurement barrier ExperimentRunner uses at sampling boundaries:
  // pending writes land, but the open region's fill state (and so DLWA /
  // byte accounting) stays exactly where a synchronous run would be.
  bool ReapPending();

  bool IsSmall(std::string_view key, std::string_view value) const {
    return key.size() + value.size() <= config_.small_item_max_bytes;
  }

  NavyStats stats() const;
  void ResetStats();

  // --- Persistence (warm restart over the same device contents) ------------
  // Seals in-flight LOC data and serializes recovery state. The SOC needs no
  // state (its on-flash format is self-describing).
  bool Persist(std::string* state);
  // Recovers a fresh instance: restores the LOC index and rescans the SOC to
  // rebuild its bloom filters. Returns false on state mismatch.
  bool Recover(const std::string& state);
  const SmallObjectCache& soc() const { return *soc_; }
  const LargeObjectCache& loc() const { return *loc_; }
  LargeObjectCache& mutable_loc() { return *loc_; }
  PlacementHandle soc_handle() const { return soc_handle_; }
  PlacementHandle loc_handle() const { return loc_handle_; }
  uint64_t soc_size_bytes() const { return soc_size_; }
  uint64_t loc_size_bytes() const { return loc_size_; }

 private:
  friend class HybridCache;  // Starts its flash halves with StartOp.

  enum class OpKind : uint8_t { kLookup, kInsert, kRemove };
  // One in-flight async operation: the stage names which flash read it is
  // parked on; `buffer` backs the submitted IoRequest.
  struct AsyncOp {
    enum class Stage : uint8_t {
      kSocLookupRead,  // SOC bucket read for a lookup.
      kLocLookupRead,  // LOC region read for a lookup.
      kSocInsertRead,  // SOC bucket read for an insert's read-modify-write.
      kSocRemoveRead,  // SOC bucket read for a remove's read-modify-write.
    };
    Stage stage = Stage::kSocLookupRead;
    bool blocking = false;  // Reads run inline (SyncIo) instead of parking.
    std::string key;
    std::string_view value;  // Insert payload: the caller's, or value_storage.
    std::string value_storage;
    AsyncCallback cb;
    CompletionToken token = kInvalidToken;
    std::vector<uint8_t> buffer;
    uint64_t bucket_id = 0;                 // SOC stages.
    SmallObjectCache::ReadPlan soc_plan;    // kSocLookupRead.
    LargeObjectCache::ReadPlan loc_plan;    // kLocLookupRead.
    bool loc_removed = false;               // kSocRemoveRead: LOC half's result.
    // RMW ops queued behind this one while it holds its bucket's claim
    // (owned: released from their unique_ptr while they wait).
    std::vector<AsyncOp*> waiters;
  };

  // Starts an op. `blocking` marks one driven by a blocking caller: its
  // reads run inline and it never parks (it may still queue behind its SOC
  // bucket's claim).
  void StartOp(OpKind kind, std::string_view key, std::string_view value, AsyncCallback cb,
               bool blocking);
  // Runs a blocking op: starts it and pumps until its callback fires.
  AsyncResult RunBlocking(OpKind kind, std::string_view key, std::string_view value = {});
  std::unique_ptr<AsyncOp> NewOp(AsyncOp::Stage stage, std::string_view key, AsyncCallback cb,
                                 bool blocking);
  // Copies the insert payload into the op, which outlives its caller's.
  void OwnValue(AsyncOp* op);
  void FinishOp(std::unique_ptr<AsyncOp> op, AsyncResult result);
  // Reads `size` bytes at `offset` for `op`: parks it on a submitted read,
  // or for a blocking op reads inline and steps it at once.
  void ParkOp(std::unique_ptr<AsyncOp> op, uint64_t offset, uint64_t size, uint32_t qp);
  // Runs/continues the SOC stage of a lookup (park, inline hit, or fall
  // through to the LOC stage); re-entered on kRetry, which does not count a
  // second lookup.
  void StartSocLookup(std::unique_ptr<AsyncOp> op, bool count_lookup = true);
  // Runs/continues the LOC half of a lookup (may park the op or finish it).
  void StartLocLookup(std::unique_ptr<AsyncOp> op, bool count_lookup = true);
  // Starts a SOC read-modify-write op: queues it behind the RMW holding its
  // bucket's claim, if any, and otherwise runs it.
  void StartSocRmw(std::unique_ptr<AsyncOp> op);
  // Runs an RMW op that holds its bucket's claim (`claimed`) or needs none
  // yet: resolves it inline from a pending write buffer, or claims the
  // bucket and parks on the bucket read.
  void RunSocRmw(std::unique_ptr<AsyncOp> op, bool claimed);
  // Settles an RMW op whose SOC half returned `ok` (`bytes_before`: the SOC
  // bytes written before it, for admission). Its claim passes to the first
  // op queued behind it before its callback fires, so a blocking call made
  // there never waits on an op held up on this stack; that op runs after.
  void FinishRmw(std::unique_ptr<AsyncOp> op, bool ok, uint64_t bytes_before, bool claimed);
  // Runs the RMW ops a finished op handed its bucket claim to.
  void RunRunnable();
  // Steps one parked op whose device read completed.
  void StepOp(std::unique_ptr<AsyncOp> op, const IoResult& io);
  // Fires a callback and settles the pending-op count.
  void Complete(AsyncCallback cb, AsyncResult result);

  Device* device_;
  NavyConfig config_;
  AdmissionPolicy* admission_;  // May be null (always admit).
  PlacementHandle soc_handle_ = kNoPlacement;
  PlacementHandle loc_handle_ = kNoPlacement;
  uint64_t soc_size_ = 0;
  uint64_t loc_size_ = 0;
  std::unique_ptr<SmallObjectCache> soc_;
  std::unique_ptr<LargeObjectCache> loc_;
  uint64_t admission_rejects_ = 0;
  uint32_t soc_qp_ = 0;
  uint32_t loc_qp_ = 0;

  // Async engine state. parked_ holds ops waiting on a device token;
  // bucket_claims_ the RMW ops holding their bucket's read-modify-write
  // cycle, each with the RMW ops queued behind it; runnable_ (owned) the
  // RMW ops handed a claim and not yet run; pending_async_ counts every op
  // until its callback fires.
  std::deque<std::unique_ptr<AsyncOp>> parked_;
  ClaimList<AsyncOp> bucket_claims_;
  std::deque<AsyncOp*> runnable_;
  // Finished op records kept for reuse: their strings and read buffer keep
  // their capacity.
  std::vector<std::unique_ptr<AsyncOp>> free_ops_;
  size_t pending_async_ = 0;
};

}  // namespace fdpcache

#endif  // SRC_NAVY_NAVY_CACHE_H_
