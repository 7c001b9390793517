#include "src/navy/navy_cache.h"

#include <algorithm>

#include "src/common/units.h"

namespace fdpcache {

namespace {

AsyncResult MakeHit(std::string value) {
  AsyncResult r;
  r.status = AsyncStatus::kHit;
  r.value = std::move(value);
  return r;
}

AsyncResult MakeStatus(AsyncStatus status) {
  AsyncResult r;
  r.status = status;
  return r;
}

}  // namespace

NavyCache::NavyCache(Device* device, const NavyConfig& config,
                     PlacementHandleAllocator* allocator, AdmissionPolicy* admission)
    : device_(device), config_(config), admission_(admission) {
  const uint64_t total = config_.size_bytes == 0 ? device_->size_bytes() : config_.size_bytes;
  // SOC gets its fraction rounded to whole buckets; LOC gets whole regions.
  soc_size_ = RoundUp(static_cast<uint64_t>(static_cast<double>(total) * config_.soc_fraction),
                      config_.soc_bucket_size);
  const uint64_t loc_space = total - soc_size_;
  loc_size_ = loc_space / config_.loc_region_size * config_.loc_region_size;

  if (config_.use_placement_handles && allocator != nullptr) {
    soc_handle_ = allocator->Allocate();
    loc_handle_ = allocator->Allocate();
  }

  soc_qp_ = config_.queue_pair;
  loc_qp_ = config_.loc_queue_pair.value_or(config_.queue_pair);

  SocConfig soc;
  soc.base_offset = config_.base_offset;
  soc.size_bytes = soc_size_;
  soc.bucket_size = config_.soc_bucket_size;
  soc.placement = soc_handle_;
  soc.use_bloom_filters = config_.soc_bloom_filters;
  soc.inflight_writes = config_.soc_inflight_writes;
  soc.queue_pair = soc_qp_;
  soc_ = std::make_unique<SmallObjectCache>(device_, soc);

  LocConfig loc;
  loc.base_offset = config_.base_offset + soc_size_;
  loc.size_bytes = loc_size_;
  loc.region_size = config_.loc_region_size;
  loc.placement = loc_handle_;
  loc.eviction = config_.loc_eviction;
  loc.trim_on_evict = config_.loc_trim_on_evict;
  loc.inflight_regions = config_.loc_inflight_regions;
  loc.queue_pair = loc_qp_;
  loc_ = std::make_unique<LargeObjectCache>(device_, loc);
}

NavyCache::~NavyCache() { DrainAsync(); }

AsyncResult NavyCache::RunBlocking(OpKind kind, std::string_view key, std::string_view value) {
  std::optional<AsyncResult> result;
  StartOp(kind, key, value, [&result](AsyncResult r) { result = std::move(r); },
          /*blocking=*/true);
  // Only an op queued behind another op's bucket claim is still running.
  while (!result.has_value()) {
    if (!PumpAsyncBlocking()) {
      AbortOnStall("NavyCache");
    }
  }
  return std::move(*result);
}

bool NavyCache::Insert(std::string_view key, std::string_view value) {
  return RunBlocking(OpKind::kInsert, key, value).ok();
}

std::optional<std::string> NavyCache::Lookup(std::string_view key) {
  AsyncResult r = RunBlocking(OpKind::kLookup, key);
  return r.hit() ? std::optional<std::string>(std::move(r.value)) : std::nullopt;
}

bool NavyCache::Remove(std::string_view key) { return RunBlocking(OpKind::kRemove, key).ok(); }

// --- Asynchronous engine ------------------------------------------------------

void NavyCache::Complete(AsyncCallback cb, AsyncResult result) {
  --pending_async_;
  if (cb) {
    cb(std::move(result));
  }
}

std::unique_ptr<NavyCache::AsyncOp> NavyCache::NewOp(AsyncOp::Stage stage, std::string_view key,
                                                     AsyncCallback cb, bool blocking) {
  std::unique_ptr<AsyncOp> op;
  if (free_ops_.empty()) {
    op = std::make_unique<AsyncOp>();
  } else {
    op = std::move(free_ops_.back());
    free_ops_.pop_back();
  }
  op->stage = stage;
  op->blocking = blocking;
  op->key.assign(key);
  op->value = {};  // A reused record's view may name a finished caller's bytes.
  op->cb = std::move(cb);
  op->loc_removed = false;
  return op;
}

void NavyCache::OwnValue(AsyncOp* op) {
  if (op->stage == AsyncOp::Stage::kSocInsertRead &&
      op->value.data() != op->value_storage.data()) {
    op->value_storage.assign(op->value);
    op->value = op->value_storage;
  }
}

void NavyCache::FinishOp(std::unique_ptr<AsyncOp> op, AsyncResult result) {
  AsyncCallback cb = std::move(op->cb);
  op->cb = nullptr;
  free_ops_.push_back(std::move(op));
  Complete(std::move(cb), std::move(result));
}

void NavyCache::ParkOp(std::unique_ptr<AsyncOp> op, uint64_t offset, uint64_t size,
                       uint32_t qp) {
  op->buffer.resize(size);
  const IoRequest read = IoRequest::MakeRead(offset, op->buffer.data(), size, qp);
  if (op->blocking) {
    const IoResult io = device_->SyncIo(read);
    StepOp(std::move(op), io);
    return;
  }
  op->token = device_->Submit(read);
  parked_.push_back(std::move(op));
}

void NavyCache::StartOp(OpKind kind, std::string_view key, std::string_view value,
                        AsyncCallback cb, bool blocking) {
  ++pending_async_;
  if (kind == OpKind::kLookup) {
    StartSocLookup(NewOp(AsyncOp::Stage::kSocLookupRead, key, std::move(cb), blocking));
    return;
  }
  if (kind == OpKind::kRemove) {
    const bool loc_removed = loc_->Remove(key);
    auto op = NewOp(AsyncOp::Stage::kSocRemoveRead, key, std::move(cb), blocking);
    op->loc_removed = loc_removed;
    StartSocRmw(std::move(op));
    return;
  }
  if (admission_ != nullptr && !admission_->Accept(key, key.size() + value.size())) {
    ++admission_rejects_;
    Complete(std::move(cb), MakeStatus(AsyncStatus::kRejected));
    return;
  }
  if (IsSmall(key, value)) {
    auto op = NewOp(AsyncOp::Stage::kSocInsertRead, key, std::move(cb), blocking);
    // A blocking op reads `value` only while its caller waits; one that
    // parks or queues outlives the caller's bytes.
    op->value = value;
    if (!blocking) {
      OwnValue(op.get());
    }
    StartSocRmw(std::move(op));
    return;
  }
  const uint64_t bytes_before = loc_->stats().bytes_written;
  const bool ok = loc_->Insert(key, value);
  if (admission_ != nullptr) {
    admission_->OnBytesWritten(loc_->stats().bytes_written - bytes_before);
  }
  if (ok && soc_->MayContain(key)) {
    // A large item supersedes any stale small copy: scrub it through the
    // RMW machinery; the insert's callback fires once the scrub resolves.
    // loc_removed = true forces the final status to kOk — the insert itself
    // succeeded whether or not the SOC really held a stale copy.
    auto op = NewOp(AsyncOp::Stage::kSocRemoveRead, key, std::move(cb), blocking);
    op->loc_removed = true;
    StartSocRmw(std::move(op));
    return;
  }
  Complete(std::move(cb), MakeStatus(ok ? AsyncStatus::kOk : AsyncStatus::kError));
}

void NavyCache::StartSocLookup(std::unique_ptr<AsyncOp> op, bool count_lookup) {
  SmallObjectCache::ReadPlan plan = soc_->LookupStart(op->key, count_lookup);
  if (plan.needs_read) {
    op->stage = AsyncOp::Stage::kSocLookupRead;
    op->bucket_id = plan.bucket_id;
    op->soc_plan = plan;
    ParkOp(std::move(op), plan.offset, config_.soc_bucket_size, soc_qp_);
    return;
  }
  if (plan.value.has_value()) {
    FinishOp(std::move(op), MakeHit(std::move(*plan.value)));
    return;
  }
  StartLocLookup(std::move(op));
}

void NavyCache::StartLocLookup(std::unique_ptr<AsyncOp> op, bool count_lookup) {
  LargeObjectCache::ReadPlan plan = loc_->LookupStart(op->key, count_lookup);
  if (plan.kind == LargeObjectCache::ReadPlan::Kind::kMiss) {
    FinishOp(std::move(op), MakeStatus(AsyncStatus::kMiss));
    return;
  }
  if (plan.kind == LargeObjectCache::ReadPlan::Kind::kReady) {
    FinishOp(std::move(op), MakeHit(std::move(plan.value)));
    return;
  }
  op->stage = AsyncOp::Stage::kLocLookupRead;
  op->loc_plan = plan;
  ParkOp(std::move(op), plan.offset, plan.size, loc_qp_);
}

void NavyCache::StartSocRmw(std::unique_ptr<AsyncOp> op) {
  // Only a held claim is worth hashing the key for here; the SOC hashes it
  // again to plan the rewrite.
  bool claimed = false;
  if (!bucket_claims_.empty()) {
    op->bucket_id = soc_->BucketOf(op->key);
    const uint64_t bucket_id = op->bucket_id;
    if (!bucket_claims_.Acquire(op.get(), [bucket_id](const AsyncOp& holder) {
          return holder.bucket_id == bucket_id;
        })) {
      // Another RMW holds this bucket's read-modify-write cycle; run after
      // it so neither rewrite loses the other's update.
      OwnValue(op.release());
      return;
    }
    claimed = true;
  }
  RunSocRmw(std::move(op), claimed);
}

void NavyCache::RunSocRmw(std::unique_ptr<AsyncOp> op, bool claimed) {
  const uint64_t bytes_before = soc_->stats().bytes_written;
  const SmallObjectCache::ReadPlan plan = op->stage == AsyncOp::Stage::kSocInsertRead
                                              ? soc_->InsertStart(op->key, op->value)
                                              : soc_->RemoveStart(op->key);
  if (!plan.needs_read) {
    // Resolved from a pending write buffer (or an unconfigured SOC): the
    // rewrite, if any, is already submitted; no bucket read needed.
    FinishRmw(std::move(op), plan.ok, bytes_before, claimed);
    return;
  }
  op->bucket_id = plan.bucket_id;
  if (!claimed) {
    bucket_claims_.Claim(op.get());
  }
  ParkOp(std::move(op), plan.offset, config_.soc_bucket_size, soc_qp_);
}

void NavyCache::FinishRmw(std::unique_ptr<AsyncOp> op, bool ok, uint64_t bytes_before,
                          bool claimed) {
  AsyncStatus status = ok || op->loc_removed ? AsyncStatus::kOk : AsyncStatus::kMiss;
  if (op->stage == AsyncOp::Stage::kSocInsertRead) {
    if (admission_ != nullptr) {
      admission_->OnBytesWritten(soc_->stats().bytes_written - bytes_before);
    }
    if (ok) {
      loc_->Remove(op->key);  // A small item supersedes any stale large copy.
    }
    status = ok ? AsyncStatus::kOk : AsyncStatus::kError;
  }
  if (claimed) {
    if (AsyncOp* next = bucket_claims_.Release(op.get())) {
      runnable_.push_back(next);
    }
  }
  FinishOp(std::move(op), MakeStatus(status));
  RunRunnable();
}

void NavyCache::RunRunnable() {
  // Reentrant: a blocking call from a callback runs the next op itself.
  while (!runnable_.empty()) {
    std::unique_ptr<AsyncOp> op(runnable_.front());
    runnable_.pop_front();
    RunSocRmw(std::move(op), /*claimed=*/true);
  }
}

void NavyCache::StepOp(std::unique_ptr<AsyncOp> op, const IoResult& io) {
  switch (op->stage) {
    case AsyncOp::Stage::kSocLookupRead: {
      std::string value;
      switch (soc_->LookupFinish(op->key, op->soc_plan, op->buffer.data(), io.ok, &value)) {
        case SmallObjectCache::FinishStatus::kHit:
          FinishOp(std::move(op), MakeHit(std::move(value)));
          return;
        case SmallObjectCache::FinishStatus::kMiss:
          StartLocLookup(std::move(op));
          return;
        case SmallObjectCache::FinishStatus::kRetry:
          // The bucket was rewritten-and-retired while the read was parked;
          // restart the SOC stage from fresh state (bloom filters and the
          // pending list now reflect the rewrite).
          StartSocLookup(std::move(op), /*count_lookup=*/false);
          return;
      }
      return;
    }
    case AsyncOp::Stage::kLocLookupRead: {
      std::string value;
      switch (loc_->LookupFinish(op->key, op->loc_plan, op->buffer.data(), io.ok, &value)) {
        case LargeObjectCache::FinishStatus::kHit:
          FinishOp(std::move(op), MakeHit(std::move(value)));
          return;
        case LargeObjectCache::FinishStatus::kMiss:
          FinishOp(std::move(op), MakeStatus(AsyncStatus::kMiss));
          return;
        case LargeObjectCache::FinishStatus::kRetry:
          // The entry moved while the read was parked; restart from the
          // fresh index state (usually resolves from a RAM buffer now).
          StartLocLookup(std::move(op), /*count_lookup=*/false);
          return;
      }
      return;
    }
    case AsyncOp::Stage::kSocInsertRead:
    case AsyncOp::Stage::kSocRemoveRead: {
      const uint64_t bytes_before = soc_->stats().bytes_written;
      const bool ok =
          op->stage == AsyncOp::Stage::kSocInsertRead
              ? soc_->InsertFinish(op->key, op->value, op->bucket_id, op->buffer.data(), io.ok)
              : soc_->RemoveFinish(op->key, op->bucket_id, op->buffer.data(), io.ok);
      FinishRmw(std::move(op), ok, bytes_before, /*claimed=*/true);
      return;
    }
  }
}

size_t NavyCache::PumpAsync() {
  size_t completed = 0;
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t i = 0; i < parked_.size(); ++i) {
      const std::optional<IoResult> io = device_->Poll(parked_[i]->token);
      if (!io.has_value()) {
        continue;
      }
      std::unique_ptr<AsyncOp> op = std::move(parked_[i]);
      parked_.erase(parked_.begin() + static_cast<long>(i));
      StepOp(std::move(op), *io);
      ++completed;
      progress = true;
      break;  // Stepping may mutate parked_ (callbacks re-enter); rescan.
    }
  }
  return completed;
}

bool NavyCache::PumpAsyncBlocking() {
  if (!runnable_.empty()) {
    RunRunnable();
    return true;
  }
  if (parked_.empty()) {
    return false;
  }
  std::unique_ptr<AsyncOp> op = std::move(parked_.front());
  parked_.pop_front();
  const IoResult io = device_->Wait(op->token);
  StepOp(std::move(op), io);
  PumpAsync();
  return true;
}

void NavyCache::DrainAsync() {
  // Stops early only when the ops still pending are on the stack (a drain
  // called from inside one of their callbacks).
  while (pending_async_ > 0 && PumpAsyncBlocking()) {
  }
}

// --- Barriers / persistence ---------------------------------------------------

bool NavyCache::Flush() {
  DrainAsync();
  const bool soc_ok = soc_->Flush();
  return loc_->Flush() && soc_ok;
}

bool NavyCache::ReapPending() {
  DrainAsync();
  // SOC Flush only retires pending bucket rewrites (there is no open-region
  // equivalent to seal), so it is already the drain-only barrier.
  const bool soc_ok = soc_->Flush();
  return loc_->RetireInFlight() && soc_ok;
}

bool NavyCache::Persist(std::string* state) {
  DrainAsync();
  soc_->Flush();  // Everything referenced by the persisted state is on-device.
  return loc_->SerializeState(state);
}

bool NavyCache::Recover(const std::string& state) {
  DrainAsync();
  if (!loc_->RestoreState(state)) {
    return false;
  }
  soc_->RecoverBloomFilters();
  return true;
}

void NavyCache::ResetStats() {
  soc_->ResetStats();
  loc_->ResetStats();
  admission_rejects_ = 0;
}

NavyStats NavyCache::stats() const {
  NavyStats stats;
  stats.soc = soc_->stats();
  stats.loc = loc_->stats();
  stats.admission_rejects = admission_rejects_;
  return stats;
}

}  // namespace fdpcache
