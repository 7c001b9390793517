#include "src/cache/hybrid_cache.h"

#include <utility>

#include "src/obs/trace.h"

namespace fdpcache {

HybridCache::HybridCache(Device* device, const HybridCacheConfig& config,
                         PlacementHandleAllocator* allocator, AdmissionPolicy* admission)
    : ram_(config.ram_bytes),
      navy_(std::make_unique<NavyCache>(device, config.navy, allocator, admission)) {
  ram_.set_eviction_callback(
      [this](const std::string& key, const std::string& value) { OnRamEviction(key, value); });
}

HybridCache::~HybridCache() { DrainAsync(); }

namespace {

// The trace op of each QueuedOp::Kind (lookup, insert, remove, spill).
constexpr obs::TraceOp kTraceOps[] = {obs::TraceOp::kGet, obs::TraceOp::kSet,
                                      obs::TraceOp::kRemove, obs::TraceOp::kSet};

// Ends `span` after the user callback's op completes; identity when this
// layer did not begin a trace (outer layer or none owns the request span).
AsyncCallback WrapTraced(obs::RequestSpan span, obs::TraceOp op, AsyncCallback cb) {
  if (!span) {
    return cb;
  }
  return [span, op, cb = std::move(cb)](AsyncResult r) {
    obs::EndRequestSpan(span, op);
    if (cb) {
      cb(std::move(r));
    }
  };
}

}  // namespace

void HybridCache::Set(std::string_view key, std::string_view value) {
  // Begins a request trace unless an outer layer (ShardedCache) already did;
  // downstream flash/device spans attach through the thread-local trace.
  obs::ScopedRequest trace(obs::TraceOp::kSet);
  RunBlocking(QueuedOp::Kind::kInsert, key, value);
}

bool HybridCache::Get(std::string_view key, std::string* value) {
  obs::ScopedRequest trace(obs::TraceOp::kGet);
  return RunBlocking(QueuedOp::Kind::kLookup, key, {}, value).hit();
}

void HybridCache::Remove(std::string_view key) {
  obs::ScopedRequest trace(obs::TraceOp::kRemove);
  RunBlocking(QueuedOp::Kind::kRemove, key);
}

bool HybridCache::TryRamGet(std::string_view key, std::string* value) {
  // Gate: any pending async op disables the fast path (see header). A racing
  // op that arrives after this load is concurrent with this lookup, so
  // serving the RAM state stays linearizable.
  if (pending_async_.load(std::memory_order_acquire) != 0) {
    return false;
  }
  if (!ram_.Get(key, value)) {
    // Counts nothing: the caller re-runs the full locked Get, which counts
    // the get and classifies the miss against nvm_stale_/flash state.
    return false;
  }
  stats_.gets.fetch_add(1, std::memory_order_relaxed);
  stats_.ram_hits.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void HybridCache::LookupAsync(std::string_view key, AsyncCallback cb) {
  StartAsync(QueuedOp::Kind::kLookup, key, {}, std::move(cb));
}

void HybridCache::InsertAsync(std::string_view key, std::string_view value, AsyncCallback cb) {
  StartAsync(QueuedOp::Kind::kInsert, key, value, std::move(cb));
}

void HybridCache::RemoveAsync(std::string_view key, AsyncCallback cb) {
  StartAsync(QueuedOp::Kind::kRemove, key, {}, std::move(cb));
}

// --- The op engine ------------------------------------------------------------

bool HybridCache::RamPut(const QueuedOp& op, std::string_view value) {
  const bool outer = std::exchange(spill_blocking_, op.blocking);
  const bool stored = ram_.Put(op.key, value);
  spill_blocking_ = outer;
  return stored;
}

HybridCache::QueuedOp* HybridCache::NewOp(QueuedOp::Kind kind, bool blocking,
                                          std::string_view key, std::string_view value,
                                          AsyncCallback cb) {
  std::unique_ptr<QueuedOp> op;
  if (free_ops_.empty()) {
    op = std::make_unique<QueuedOp>();
  } else {
    op = std::move(free_ops_.back());
    free_ops_.pop_back();
  }
  op->kind = kind;
  op->blocking = blocking;
  op->key_storage.assign(key);
  op->key = op->key_storage;
  op->value = value;
  op->cb = std::move(cb);
  op->trace_id = obs::CurrentTraceId();
  return op.release();
}

AsyncResult HybridCache::RunBlocking(QueuedOp::Kind kind, std::string_view key,
                                     std::string_view value, std::string* out) {
  QueuedOp op;
  op.kind = kind;
  op.blocking = true;
  op.caller_owned = true;
  op.key = key;
  op.value = value;
  op.out = out;
  op.trace_id = obs::CurrentTraceId();
  EnqueueOp(&op);
  // Unless queued behind a same-key op, the op has already run to the end.
  // Otherwise step parked flash reads until the claim reaches it, and run
  // released ops here rather than through DrainRunnable: this call may come
  // from a callback inside an outer DrainRunnable frame, whose guard would
  // make a nested drain return at once.
  while (!op.done) {
    if (!runnable_.empty()) {
      RunNextRunnable();
    } else if (!navy_->PumpAsyncBlocking()) {
      AbortOnStall("HybridCache");
    }
  }
  DrainRunnable();
  return std::move(op.result);
}

void HybridCache::StartAsync(QueuedOp::Kind kind, std::string_view key, std::string_view value,
                             AsyncCallback cb) {
  obs::RequestSpan span = obs::BeginRequestSpanIfIdle();
  obs::TraceScope tscope(span.id);
  EnqueueOp(NewOp(kind, /*blocking=*/false, key, value,
                  WrapTraced(span, kTraceOps[static_cast<int>(kind)], std::move(cb))));
  DrainRunnable();
}

void HybridCache::OnRamEviction(const std::string& key, const std::string& value) {
  // DRAM eviction spills to flash (subject to admission) as an op on the
  // evicted key, so a racing lookup of that key waits for the spill rather
  // than missing. It runs in the style of the op that evicted and is
  // charged to that op's request.
  EnqueueOp(NewOp(QueuedOp::Kind::kSpill, spill_blocking_, key, value, nullptr));
}

void HybridCache::EnqueueOp(QueuedOp* op) {
  if (!op->blocking) {
    pending_async_.fetch_add(1, std::memory_order_release);
  }
  if (claims_.Acquire(op, [op](const QueuedOp& holder) { return holder.key == op->key; })) {
    RunOp(op);
    return;
  }
  // An op on this key is in flight; run after it (same-key FIFO). A pooled
  // op now outlives its entry point's payload: copy it.
  if (!op->caller_owned) {
    op->value_storage.assign(op->value);
    op->value = op->value_storage;
  }
}

void HybridCache::RunOp(QueuedOp* op) {
  // Ops may have waited behind a same-key claim since their entry point
  // returned; re-install their trace so downstream spans (flash park, device
  // submit) attach to the right request.
  obs::TraceScope tscope(op->trace_id);
  AsyncResult r;
  switch (op->kind) {
    case QueuedOp::Kind::kLookup: {
      stats_.gets.fetch_add(1, std::memory_order_relaxed);
      {
        obs::ScopedSpan probe(obs::TraceStage::kRamProbe,
                              static_cast<uint8_t>(obs::TraceOp::kGet));
        r.status = ram_.Get(op->key, op->out != nullptr ? op->out : &r.value)
                       ? AsyncStatus::kHit
                       : AsyncStatus::kMiss;
      }
      if (r.hit()) {
        stats_.ram_hits.fetch_add(1, std::memory_order_relaxed);
        FinishOp(op, std::move(r));
        return;
      }
      stats_.nvm_lookups.fetch_add(1, std::memory_order_relaxed);
      if (nvm_stale_.count(StaleProbe(op->key)) > 0) {
        stats_.misses.fetch_add(1, std::memory_order_relaxed);
        FinishOp(op, std::move(r));
        return;
      }
      ToFlash(op);
      return;
    }
    case QueuedOp::Kind::kInsert:
      stats_.sets.fetch_add(1, std::memory_order_relaxed);
      // The freshest copy now lives in RAM; any flash copy is stale until
      // the item is spilled again.
      nvm_stale_.insert(std::string(op->key));
      if (RamPut(*op, op->value)) {
        r.status = AsyncStatus::kOk;
        FinishOp(op, std::move(r));
        return;
      }
      // Item larger than the whole DRAM budget: write straight to flash, and
      // drop any older (smaller) RAM copy that would otherwise serve stale.
      ram_.Remove(op->key);
      ToFlash(op);
      return;
    case QueuedOp::Kind::kRemove:
      op->ram_removed = ram_.Remove(op->key);
      ToFlash(op);
      return;
    case QueuedOp::Kind::kSpill:
      ToFlash(op);
      return;
  }
}

void HybridCache::ToFlash(QueuedOp* op) {
  // Only a parked read is a flash park; a blocking op's inline read is
  // covered by the device's own span.
  op->park_start_ns =
      (!op->blocking && op->trace_id != 0 && obs::TracingEnabled()) ? obs::NowNs() : 0;
  using Kind = NavyCache::OpKind;  // A spill is a flash insert.
  const Kind kind = op->kind == QueuedOp::Kind::kLookup   ? Kind::kLookup
                    : op->kind == QueuedOp::Kind::kRemove ? Kind::kRemove
                                                          : Kind::kInsert;
  navy_->StartOp(kind, op->key, op->value,
                 [this, op](AsyncResult r) { FlashDone(op, std::move(r)); }, op->blocking);
}

void HybridCache::FlashDone(QueuedOp* op, AsyncResult r) {
  obs::TraceScope cb_scope(op->trace_id);
  if (op->park_start_ns != 0) {
    obs::RecordSpan(op->trace_id, obs::TraceStage::kFlashPark, op->park_start_ns, obs::NowNs(),
                    static_cast<uint8_t>(kTraceOps[static_cast<int>(op->kind)]));
  }
  switch (op->kind) {
    case QueuedOp::Kind::kLookup:
      if (r.hit()) {
        stats_.nvm_hits.fetch_add(1, std::memory_order_relaxed);
        // Promote to DRAM, like CacheLib's NVM-hit insertion. The promoted
        // copy matches flash, so the flash copy stays current.
        RamPut(*op, r.value);
        if (op->out != nullptr) {
          op->out->assign(r.value);  // Keeps the caller's buffer, and its capacity.
        }
      } else {
        stats_.misses.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    case QueuedOp::Kind::kRemove:
      nvm_stale_.erase(StaleProbe(op->key));
      if (op->ram_removed && r.status == AsyncStatus::kMiss) {
        r.status = AsyncStatus::kOk;
      }
      break;
    case QueuedOp::Kind::kInsert:
    case QueuedOp::Kind::kSpill:
      // On success the flash copy is current again.
      if (r.ok()) {
        nvm_stale_.erase(StaleProbe(op->key));
      }
      break;
  }
  FinishOp(op, std::move(r));
}

void HybridCache::FinishOp(QueuedOp* op, AsyncResult result) {
  // The next same-key op takes the claim; it runs from DrainRunnable.
  if (QueuedOp* next = claims_.Release(op)) {
    runnable_.push_back(next);
  }
  if (!op->blocking) {
    pending_async_.fetch_sub(1, std::memory_order_release);
  }
  if (op->caller_owned) {
    op->result = std::move(result);
    op->done = true;
    return;
  }
  AsyncCallback cb = std::move(op->cb);
  op->cb = nullptr;
  free_ops_.emplace_back(op);
  if (cb) {
    cb(std::move(result));
  }
}

void HybridCache::RunNextRunnable() {
  QueuedOp* op = runnable_.front();
  runnable_.pop_front();
  RunOp(op);
}

void HybridCache::DrainRunnable() {
  if (draining_runnable_) {
    return;  // The outermost frame owns the loop.
  }
  draining_runnable_ = true;
  while (!runnable_.empty()) {
    RunNextRunnable();
  }
  draining_runnable_ = false;
}

size_t HybridCache::PumpAsync(bool blocking) {
  if (blocking) {
    navy_->PumpAsyncBlocking();
  } else {
    navy_->PumpAsync();
  }
  DrainRunnable();
  // Ride the pending-op pump for deferred reclamation: free DRAM nodes whose
  // readers have all exited. Memory-only — no observable cache state
  // changes, so blocking-path determinism is unaffected.
  if (ram_.deferred_nodes() > 0) {
    ram_.ReapDeferred();
  }
  return pending_async_.load(std::memory_order_relaxed);
}

void HybridCache::DrainAsync() {
  // Runs released ops itself, not through DrainRunnable, whose guard returns
  // at once in a drain called from a callback. Stops early only when the
  // ops still pending are on the stack (such a drain runs inside one of
  // their callbacks).
  while (pending_async_.load(std::memory_order_relaxed) != 0) {
    if (!runnable_.empty()) {
      RunNextRunnable();
    } else if (!navy_->PumpAsyncBlocking()) {
      break;
    }
  }
  if (ram_.deferred_nodes() > 0) {
    ram_.ReapDeferred();
  }
}

HybridCacheStats HybridCache::stats() const {
  HybridCacheStats snapshot;
  snapshot.gets = stats_.gets.load(std::memory_order_relaxed);
  snapshot.sets = stats_.sets.load(std::memory_order_relaxed);
  snapshot.ram_hits = stats_.ram_hits.load(std::memory_order_relaxed);
  snapshot.nvm_lookups = stats_.nvm_lookups.load(std::memory_order_relaxed);
  snapshot.nvm_hits = stats_.nvm_hits.load(std::memory_order_relaxed);
  snapshot.misses = stats_.misses.load(std::memory_order_relaxed);
  return snapshot;
}

void HybridCache::ResetStats() {
  stats_.gets.store(0, std::memory_order_relaxed);
  stats_.sets.store(0, std::memory_order_relaxed);
  stats_.ram_hits.store(0, std::memory_order_relaxed);
  stats_.nvm_lookups.store(0, std::memory_order_relaxed);
  stats_.nvm_hits.store(0, std::memory_order_relaxed);
  stats_.misses.store(0, std::memory_order_relaxed);
  navy_->ResetStats();
}

}  // namespace fdpcache
