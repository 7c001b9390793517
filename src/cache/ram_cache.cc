#include "src/cache/ram_cache.h"

#include <thread>
#include <utility>
#include <vector>

#include "src/common/epoch_reclaim.h"
#include "src/common/hash.h"

namespace fdpcache {

namespace {
// Decorrelates the in-shard bucket index from ShardedCache's shard routing
// (which mixes with its own seed) and from SOC bucket placement.
constexpr uint64_t kBucketSeed = 0xb10cf00dcafe5eedull;

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

RamCache::RamCache(uint64_t budget_bytes, size_t num_buckets)
    : budget_(budget_bytes),
      num_buckets_(RoundUpPow2(num_buckets == 0 ? 1 : num_buckets)),
      buckets_(new Bucket[num_buckets_]) {}

RamCache::~RamCache() {
  // Destruction contract: no concurrent readers of THIS cache remain, so
  // chains and limbo can be freed unconditionally (no grace period).
  for (size_t i = 0; i < num_buckets_; ++i) {
    Node* n = buckets_[i].head.load(std::memory_order_relaxed);
    while (n != nullptr) {
      Node* next = n->next.load(std::memory_order_relaxed);
      delete n;
      n = next;
    }
  }
  Node* n = limbo_head_;
  while (n != nullptr) {
    Node* next = n->limbo_next;
    delete n;
    n = next;
  }
}

RamCache::Bucket& RamCache::BucketFor(std::string_view key) const {
  const uint64_t h = Mix64(HashString(key) ^ kBucketSeed);
  return buckets_[h & (num_buckets_ - 1)];
}

RamCache::Node* RamCache::FindLocked(Bucket& bucket, std::string_view key,
                                     Node** pred) {
  // Writers are serialized on bucket.mu, and any node already in the chain
  // was published by a prior writer under the same mutex, so relaxed loads
  // suffice here.
  Node* prev = nullptr;
  Node* cur = bucket.head.load(std::memory_order_relaxed);
  while (cur != nullptr && cur->key != key) {
    prev = cur;
    cur = cur->next.load(std::memory_order_relaxed);
  }
  if (pred != nullptr) *pred = prev;
  return cur;
}

RamCache::Node* RamCache::PredOfLocked(Bucket& bucket, const Node* node) {
  Node* prev = nullptr;
  Node* cur = bucket.head.load(std::memory_order_relaxed);
  while (cur != node) {
    prev = cur;
    cur = cur->next.load(std::memory_order_relaxed);
  }
  return prev;
}

void RamCache::UnlinkLocked(Bucket& bucket, Node* node, Node* pred) {
  // Odd version = unlink in progress; a reader that misses while this is
  // odd (or sees it change) retries instead of reporting a false miss.
  bucket.version.fetch_add(1, std::memory_order_acq_rel);
  Node* successor = node->next.load(std::memory_order_relaxed);
  if (pred == nullptr) {
    bucket.head.store(successor, std::memory_order_release);
  } else {
    pred->next.store(successor, std::memory_order_release);
  }
  // node->next is deliberately left intact: a reader parked on `node` keeps
  // walking into the live suffix of the chain.
  node->unlinked = true;
  bucket.version.fetch_add(1, std::memory_order_release);
}

bool RamCache::Put(std::string_view key, std::string_view value) {
  stats_.puts.fetch_add(1, std::memory_order_relaxed);
  const uint64_t need = ItemBytes(key, value);
  if (need > budget_) {
    stats_.rejected_too_large.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const uint64_t stamp = NextTick();
  Node* fresh = new Node(key, value, stamp);
  Bucket& bucket = BucketFor(key);
  Node* old = nullptr;
  {
    // Link and index the new node in one critical section. Were the two
    // split, a concurrent Put or Remove of the same key could unlink and
    // retire the node in between — finding no index entry to drop — and
    // the index would then point at a node reclamation frees.
    CountLockAcquisition();
    fdp::MutexLock evict_lock(&evict_mu_);
    CountLockAcquisition();
    fdp::MutexLock lock(&bucket.mu);
    Node* pred = nullptr;
    old = FindLocked(bucket, key, &pred);
    if (old != nullptr) {
      // Update = replace: unlink the old node (readers mid-walk retry via
      // the version bump) and publish the immutable replacement at head.
      UnlinkLocked(bucket, old, pred);
      used_.fetch_sub(ItemBytes(old->key, old->value),
                      std::memory_order_relaxed);
      if (old->in_lru) {
        lru_by_stamp_.erase(old->lru_key);
        old->in_lru = false;
      }
    } else {
      count_.fetch_add(1, std::memory_order_relaxed);
    }
    fresh->next.store(bucket.head.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    bucket.head.store(fresh, std::memory_order_release);
    used_.fetch_add(need, std::memory_order_relaxed);
    lru_by_stamp_.emplace(stamp, fresh);
    fresh->lru_key = stamp;
    fresh->in_lru = true;
  }
  if (old != nullptr) Retire(old);
  if (used_.load(std::memory_order_relaxed) > budget_) EvictToBudget();
  if (limbo_count_.load(std::memory_order_relaxed) >= kReapThreshold) {
    ReapDeferred();
  }
  return true;
}

bool RamCache::Get(std::string_view key, std::string* value) {
  stats_.gets.fetch_add(1, std::memory_order_relaxed);
  EpochRegistry::ReadGuard guard;
  Bucket& bucket = BucketFor(key);
  for (uint64_t spins = 0;; ++spins) {
    const uint64_t v1 = bucket.version.load(std::memory_order_acquire);
    Node* n = bucket.head.load(std::memory_order_acquire);
    while (n != nullptr && n->key != key) {
      n = n->next.load(std::memory_order_acquire);
    }
    if (n != nullptr) {
      // Hits need no validation: the node is immutable and was published
      // with a release store, so its key/value are fully constructed, and
      // the epoch guard keeps it allocated even if concurrently unlinked.
      if (value != nullptr) value->assign(n->value);
      n->stamp.store(NextTick(), std::memory_order_relaxed);  // LRU touch.
      stats_.hits.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    // A miss is only trustworthy if no writer unlinked during the walk: an
    // in-progress (odd) or changed version could have hidden a key that was
    // continuously present (e.g. an update swapping old node for new).
#ifdef FDPCACHE_TEST_HOOKS
    if (read_window_hook_) read_window_hook_(key);
#endif
    if ((v1 & 1) == 0 &&
        bucket.version.load(std::memory_order_acquire) == v1) {
      return false;
    }
    stats_.optimistic_retries.fetch_add(1, std::memory_order_relaxed);
    if ((spins & 63) == 63) std::this_thread::yield();
  }
}

bool RamCache::Contains(std::string_view key) const {
  EpochRegistry::ReadGuard guard;
  Bucket& bucket = BucketFor(key);
  for (uint64_t spins = 0;; ++spins) {
    const uint64_t v1 = bucket.version.load(std::memory_order_acquire);
    Node* n = bucket.head.load(std::memory_order_acquire);
    while (n != nullptr && n->key != key) {
      n = n->next.load(std::memory_order_acquire);
    }
    if (n != nullptr) return true;
#ifdef FDPCACHE_TEST_HOOKS
    if (read_window_hook_) read_window_hook_(key);
#endif
    if ((v1 & 1) == 0 &&
        bucket.version.load(std::memory_order_acquire) == v1) {
      return false;
    }
    stats_.optimistic_retries.fetch_add(1, std::memory_order_relaxed);
    if ((spins & 63) == 63) std::this_thread::yield();
  }
}

bool RamCache::Remove(std::string_view key) {
  Bucket& bucket = BucketFor(key);
  Node* victim = nullptr;
  {
    CountLockAcquisition();
    fdp::MutexLock lock(&bucket.mu);
    Node* pred = nullptr;
    victim = FindLocked(bucket, key, &pred);
    if (victim == nullptr) return false;
    UnlinkLocked(bucket, victim, pred);
    used_.fetch_sub(ItemBytes(victim->key, victim->value),
                    std::memory_order_relaxed);
    count_.fetch_sub(1, std::memory_order_relaxed);
  }
  {
    CountLockAcquisition();
    fdp::MutexLock lock(&evict_mu_);
    if (victim->in_lru) {
      lru_by_stamp_.erase(victim->lru_key);
      victim->in_lru = false;
    }
  }
  Retire(victim);
  return true;
}

void RamCache::EvictToBudget() {
  // Victim key/value are copied out under the locks (another writer could
  // retire the node the moment we release them); callbacks fire at the end,
  // outside all locks, in eviction order.
  std::vector<std::pair<std::string, std::string>> victims;
  {
    CountLockAcquisition();
    fdp::MutexLock evict_lock(&evict_mu_);
    while (used_.load(std::memory_order_relaxed) > budget_ &&
           !lru_by_stamp_.empty()) {
      const auto it = lru_by_stamp_.begin();
      const uint64_t recorded = it->first;
      Node* node = it->second;
      Bucket& bucket = BucketFor(node->key);
      CountLockAcquisition();
      fdp::MutexLock bucket_lock(&bucket.mu);
      if (node->unlinked) {
        // A concurrent Remove/update beat us to it; drop the stale entry.
        node->in_lru = false;
        lru_by_stamp_.erase(it);
        continue;
      }
      const uint64_t actual = node->stamp.load(std::memory_order_relaxed);
      if (actual != recorded) {
        // Lazy repair: the node was touched since it was indexed. Re-file
        // it at its actual stamp and re-pick. The loop terminates at a node
        // whose recorded == actual stamp, which is then <= every other
        // recorded key <= its node's actual stamp — the global minimum, so
        // eviction order matches exact LRU whenever calls are serialized.
        bucket_lock.Unlock();
        lru_by_stamp_.erase(it);
        lru_by_stamp_.emplace(actual, node);
        node->lru_key = actual;
        continue;
      }
      UnlinkLocked(bucket, node, PredOfLocked(bucket, node));
      used_.fetch_sub(ItemBytes(node->key, node->value),
                      std::memory_order_relaxed);
      count_.fetch_sub(1, std::memory_order_relaxed);
      stats_.evictions.fetch_add(1, std::memory_order_relaxed);
      victims.emplace_back(node->key, node->value);
      bucket_lock.Unlock();
      node->in_lru = false;
      lru_by_stamp_.erase(it);
      Retire(node);
    }
  }
  if (on_evict_) {
    for (const auto& kv : victims) on_evict_(kv.first, kv.second);
  }
}

void RamCache::Retire(Node* node) {
  node->retire_epoch = EpochRegistry::Instance().CurrentEpoch();
  CountLockAcquisition();
  fdp::MutexLock lock(&limbo_mu_);
  node->limbo_next = limbo_head_;
  limbo_head_ = node;
  limbo_count_.fetch_add(1, std::memory_order_relaxed);
}

size_t RamCache::ReapDeferred() {
  EpochRegistry& registry = EpochRegistry::Instance();
  registry.AdvanceEpoch();
  const uint64_t min_active = registry.MinActiveEpoch();
  Node* reclaimable = nullptr;
  {
    CountLockAcquisition();
    fdp::MutexLock lock(&limbo_mu_);
    Node** link = &limbo_head_;
    while (*link != nullptr) {
      Node* n = *link;
      if (n->retire_epoch + 2 <= min_active) {
        *link = n->limbo_next;
        n->limbo_next = reclaimable;
        reclaimable = n;
        limbo_count_.fetch_sub(1, std::memory_order_relaxed);
      } else {
        link = &n->limbo_next;
      }
    }
  }
  size_t freed = 0;
  while (reclaimable != nullptr) {
    Node* n = reclaimable;
    reclaimable = n->limbo_next;
    delete n;
    ++freed;
  }
  return freed;
}

RamCacheStats RamCache::stats() const {
  RamCacheStats snapshot;
  snapshot.puts = stats_.puts.load(std::memory_order_relaxed);
  snapshot.gets = stats_.gets.load(std::memory_order_relaxed);
  snapshot.hits = stats_.hits.load(std::memory_order_relaxed);
  snapshot.evictions = stats_.evictions.load(std::memory_order_relaxed);
  snapshot.rejected_too_large =
      stats_.rejected_too_large.load(std::memory_order_relaxed);
  snapshot.optimistic_retries =
      stats_.optimistic_retries.load(std::memory_order_relaxed);
  snapshot.lock_acquisitions =
      stats_.lock_acquisitions.load(std::memory_order_relaxed);
  return snapshot;
}

}  // namespace fdpcache
