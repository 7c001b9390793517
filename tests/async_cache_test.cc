// Asynchronous cache-tier API: callback-based Lookup/Insert/Remove on
// NavyCache / HybridCache / ShardedCache.
//
// Covers the headline contract — a flash LookupAsync does NOT hold the shard
// mutex while the device works (a concurrent same-shard RAM hit completes
// while the flash read is parked at a gate) — plus: callbacks fire exactly
// once per op, same-key Insert→Lookup ordering through the pending-key
// table, Flush/Drain as completion barriers, ShardedCacheStats::pending_ops,
// Flush() failure propagation, SOC-bucket RMW serialization, LOC region
// reads parked asynchronously, and a multi-submitter stress with Drain
// racing callbacks (run under TSan in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/cache/sharded_cache.h"
#include "src/harness/concurrent_replay.h"
#include "src/workload/workload.h"

namespace fdpcache {
namespace {

// A QueuedDevice over a plain byte array whose reads can be gated: while the
// read gate is closed every device read parks inside the backend, so tests
// can hold an async cache op "in flight on the device" indefinitely and
// observe what the cache tier does meanwhile. Writes can be made to fail for
// flush-propagation tests.
class GatedMemDevice final : public QueuedDevice {
 public:
  explicit GatedMemDevice(uint64_t size_bytes,
                          const IoQueueConfig& config = IoQueueConfig{})
      : QueuedDevice(config), data_(size_bytes, 0) {}
  ~GatedMemDevice() override {
    OpenReadGate();
    StopQueue();
  }

  void CloseReadGate() {
    std::lock_guard<std::mutex> lock(mu_);
    read_gate_open_ = false;
  }
  void OpenReadGate() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      read_gate_open_ = true;
    }
    gate_cv_.notify_all();
  }
  // Waits until a read is parked at the closed gate (the dispatcher popped
  // it and is inside the backend).
  bool WaitUntilReadParked() {
    std::unique_lock<std::mutex> lock(mu_);
    return parked_cv_.wait_for(lock, std::chrono::seconds(10),
                               [this] { return parked_reads_ > 0; });
  }
  void SetFailWrites(bool fail) {
    std::lock_guard<std::mutex> lock(mu_);
    fail_writes_ = fail;
  }

  uint64_t size_bytes() const override { return data_.size(); }
  uint64_t page_size() const override { return 4096; }

 protected:
  IoResult ExecuteWrite(uint64_t offset, const void* data, uint64_t size,
                        PlacementHandle) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (fail_writes_) {
        return IoResult{false, 0};
      }
    }
    std::memcpy(&data_[offset], data, size);
    return IoResult{true, 1000};
  }
  IoResult ExecuteRead(uint64_t offset, void* out, uint64_t size) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++parked_reads_;
      parked_cv_.notify_all();
      gate_cv_.wait(lock, [this] { return read_gate_open_; });
      --parked_reads_;
    }
    std::memcpy(out, &data_[offset], size);
    return IoResult{true, 1000};
  }
  IoResult ExecuteTrim(uint64_t offset, uint64_t size) override {
    std::memset(&data_[offset], 0, size);
    return IoResult{true, 100};
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable gate_cv_;
  std::condition_variable parked_cv_;
  bool read_gate_open_ = true;
  bool fail_writes_ = false;
  uint32_t parked_reads_ = 0;
  std::vector<uint8_t> data_;
};

HybridCacheConfig GatedCacheConfig(uint64_t ram_bytes) {
  HybridCacheConfig config;
  config.ram_bytes = ram_bytes;
  config.navy.soc_fraction = 0.5;
  config.navy.loc_region_size = 256 * 1024;
  config.navy.small_item_max_bytes = 2048;
  config.navy.use_placement_handles = false;
  return config;
}

std::unique_ptr<ShardedCache> OneShardOver(GatedMemDevice* device,
                                           const HybridCacheConfig& config) {
  auto cache = std::make_unique<ShardedCache>(1, [&](uint32_t) {
    return std::make_unique<HybridCache>(device, config);
  });
  cache->AttachDevice(device);
  return cache;
}

// Spins until `done` or the deadline; async completions ride the poller.
bool AwaitTrue(const std::atomic<bool>& done, int seconds = 10) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  while (!done.load()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// --- The acceptance contract: no shard lock across flash I/O -----------------

TEST(AsyncCacheTest, FlashLookupReleasesShardLockWhileReadParked) {
  GatedMemDevice device(4 * 1024 * 1024);
  auto cache = OneShardOver(&device, GatedCacheConfig(/*ram_bytes=*/64 * 1024));

  // Key A lives in flash only (inserted beneath the DRAM tier); key B is a
  // RAM resident of the SAME shard.
  const std::string value_a(256, 'a');
  ASSERT_TRUE(cache->shard(0).navy().Insert("keyA", value_a));
  cache->Set("keyB", "ram-resident");

  device.CloseReadGate();
  std::atomic<bool> done{false};
  AsyncResult out;
  cache->LookupAsync("keyA", [&](AsyncResult r) {
    out = std::move(r);
    done.store(true);
  });
  // The SOC bucket read is now parked INSIDE the device backend...
  ASSERT_TRUE(device.WaitUntilReadParked());
  EXPECT_FALSE(done.load());

  // ...and the shard is still usable: a concurrent same-shard RAM hit
  // completes while the flash read is parked. If LookupAsync held the shard
  // mutex across the I/O, this future would time out.
  auto ram_hit = std::async(std::launch::async, [&] {
    std::string value;
    return cache->Get("keyB", &value) && value == "ram-resident";
  });
  ASSERT_EQ(ram_hit.wait_for(std::chrono::seconds(10)), std::future_status::ready)
      << "same-shard RAM hit blocked while a flash LookupAsync was parked — "
         "the shard mutex was held across device I/O";
  EXPECT_TRUE(ram_hit.get());
  EXPECT_FALSE(done.load());
  EXPECT_EQ(cache->Stats().TotalPendingOps(), 1u);

  device.OpenReadGate();
  ASSERT_TRUE(AwaitTrue(done));
  EXPECT_EQ(out.status, AsyncStatus::kHit);
  EXPECT_EQ(out.value, value_a);
  EXPECT_EQ(cache->Stats().TotalPendingOps(), 0u);
}

// A key that hashes to the same SOC bucket as `key` (a different key).
std::string SameBucketKey(const NavyCache& navy, const std::string& key) {
  for (int i = 0;; ++i) {
    std::string other = "other" + std::to_string(i);
    if (navy.soc().BucketOf(other) == navy.soc().BucketOf(key)) {
      return other;
    }
  }
}

TEST(AsyncCacheTest, BlockingSetDuringParkedLookupIsNotClobberedByPromotion) {
  GatedMemDevice device(4 * 1024 * 1024);
  auto cache = OneShardOver(&device, GatedCacheConfig(/*ram_bytes=*/64 * 1024));
  ASSERT_TRUE(cache->shard(0).navy().Insert("keyA", "v1-old-flash"));

  device.CloseReadGate();
  std::atomic<bool> done{false};
  AsyncResult out;
  cache->LookupAsync("keyA", [&](AsyncResult r) {
    out = std::move(r);
    done.store(true);
  });
  ASSERT_TRUE(device.WaitUntilReadParked());

  // A blocking Set of the SAME key from another thread orders after the
  // parked lookup: it cannot return until the lookup has completed. (The
  // lookup's callback may still be in delivery on the poller thread, so
  // completion is read from the pending-op count, which drops first.)
  std::atomic<bool> set_returned{false};
  std::atomic<size_t> pending_at_return{1};
  std::thread setter([&] {
    cache->Set("keyA", "v2-newer");
    pending_at_return.store(cache->Stats().TotalPendingOps());
    set_returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(set_returned.load()) << "blocking Set overtook a parked lookup of its key";
  EXPECT_FALSE(done.load());

  device.OpenReadGate();
  setter.join();
  EXPECT_EQ(pending_at_return.load(), 0u);
  ASSERT_TRUE(AwaitTrue(done));
  // The lookup was issued first, so it sees the old value...
  EXPECT_EQ(out.status, AsyncStatus::kHit);
  EXPECT_EQ(out.value, "v1-old-flash");
  // ...and its promotion does not clobber the Set: the newer value wins.
  std::string value;
  ASSERT_TRUE(cache->Get("keyA", &value));
  EXPECT_EQ(value, "v2-newer");
  cache->Flush();
  ASSERT_TRUE(cache->Get("keyA", &value));
  EXPECT_EQ(value, "v2-newer");
}

TEST(AsyncCacheTest, BlockingRemoveDuringParkedLookupDoesNotResurrectValue) {
  // HybridCache directly (no poller): completions only advance when pumped,
  // so the test controls exactly when the parked lookup is stepped.
  GatedMemDevice device(4 * 1024 * 1024);
  HybridCache cache(&device, GatedCacheConfig(/*ram_bytes=*/64 * 1024));
  ASSERT_TRUE(cache.navy().Insert("keyA", "flash-value"));

  std::atomic<bool> done{false};
  AsyncResult out;
  cache.LookupAsync("keyA", [&](AsyncResult r) {
    out = std::move(r);
    done.store(true);
  });
  // The bucket read executes (gate open) and its completion is parked,
  // un-pumped. A blocking Remove of the same key orders after the lookup:
  // it steps the lookup (which hits and promotes) before it removes.
  device.Drain();
  EXPECT_FALSE(done.load());
  cache.Remove("keyA");
  ASSERT_TRUE(done.load()) << "blocking Remove returned before the earlier lookup";
  EXPECT_EQ(out.status, AsyncStatus::kHit);
  EXPECT_EQ(out.value, "flash-value");

  std::string value;
  EXPECT_FALSE(cache.Get("keyA", &value)) << "removed value was resurrected";
  cache.DrainAsync();
  cache.navy().Flush();
  EXPECT_FALSE(cache.Get("keyA", &value)) << "removed value was resurrected";
}

TEST(AsyncCacheTest, ParkedSocLookupRetriesAfterSameBucketRemove) {
  GatedMemDevice device(4 * 1024 * 1024);
  HybridCache cache(&device, GatedCacheConfig(/*ram_bytes=*/64 * 1024));
  const std::string other = SameBucketKey(cache.navy(), "keyA");
  ASSERT_TRUE(cache.navy().Insert("keyA", "flash-value"));
  ASSERT_TRUE(cache.navy().Insert(other, "other-value"));

  std::atomic<bool> done{false};
  AsyncResult out;
  cache.LookupAsync("keyA", [&](AsyncResult r) {
    out = std::move(r);
    done.store(true);
  });
  device.Drain();
  const uint64_t reads_before = device.stats().reads;
  const uint64_t lookups_before = cache.navy().stats().soc.lookups;
  // A blocking Remove of a different key in the same bucket runs at once:
  // it rewrites the bucket, and the rewrite retires, while the lookup's read
  // is parked.
  cache.Remove(other);
  EXPECT_FALSE(done.load());

  // Stepping the lookup detects the retired rewrite (the bucket generation
  // moved) and restarts from fresh state instead of parsing the pre-remove
  // image: one more bucket read, still one counted lookup.
  cache.DrainAsync();
  ASSERT_TRUE(done.load());
  EXPECT_EQ(out.status, AsyncStatus::kHit);
  EXPECT_EQ(out.value, "flash-value");
  EXPECT_EQ(device.stats().reads, reads_before + 2);  // The remove's, the retry's.
  EXPECT_EQ(cache.navy().stats().soc.lookups, lookups_before);
  std::string value;
  EXPECT_FALSE(cache.Get(other, &value));
}

TEST(AsyncCacheTest, BlockingCallFromCallbackWaitsForClaimedKey) {
  GatedMemDevice device(4 * 1024 * 1024);
  HybridCache cache(&device, GatedCacheConfig(/*ram_bytes=*/64 * 1024));
  ASSERT_TRUE(cache.navy().Insert("keyA", "value-a"));
  ASSERT_TRUE(cache.navy().Insert("keyB", "value-b"));

  // keyB's first lookup reads (completion parked, un-pumped); keyA's lookup
  // parks at the closed gate and holds keyA's claim.
  cache.LookupAsync("keyB", AsyncCallback{});
  device.Drain();
  device.CloseReadGate();
  cache.LookupAsync("keyA", AsyncCallback{});
  ASSERT_TRUE(device.WaitUntilReadParked());

  // keyB's second lookup queues behind the first, so it runs from
  // DrainRunnable once the first completes; its callback makes a blocking
  // Get of keyA, whose claim the gated lookup still holds.
  bool nested_hit = false;
  std::string nested_value;
  cache.LookupAsync("keyB", [&](AsyncResult r) {
    EXPECT_EQ(r.value, "value-b");
    nested_hit = cache.Get("keyA", &nested_value);
  });
  std::thread opener([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    device.OpenReadGate();
  });
  cache.PumpAsync();
  opener.join();
  EXPECT_TRUE(nested_hit);
  EXPECT_EQ(nested_value, "value-a");
  cache.DrainAsync();
  EXPECT_EQ(cache.pending_async_ops(), 0u);
}

TEST(AsyncCacheTest, BlockingInsertIntoClaimedBucketLosesNoUpdate) {
  GatedMemDevice device(4 * 1024 * 1024);
  NavyConfig config = GatedCacheConfig(/*ram_bytes=*/0).navy;
  NavyCache navy(&device, config);
  const std::string other = SameBucketKey(navy, "keyA");

  // The async insert claims the bucket; its read executes but its step is
  // left parked. The blocking insert into the same bucket queues behind the
  // claim and steps it, so each rewrite starts from the other's result.
  std::atomic<bool> done{false};
  navy.InsertAsync("keyA", "value-a", [&](AsyncResult r) {
    EXPECT_EQ(r.status, AsyncStatus::kOk);
    done.store(true);
  });
  device.Drain();
  EXPECT_FALSE(done.load());
  ASSERT_TRUE(navy.Insert(other, "value-other"));
  EXPECT_TRUE(done.load());

  EXPECT_EQ(navy.Lookup("keyA"), std::optional<std::string>("value-a"));
  EXPECT_EQ(navy.Lookup(other), std::optional<std::string>("value-other"));
}

// Checked by the sanitizer build: a reused op record must not copy the
// payload of the blocking insert that used it last, which its caller has
// freed.
TEST(AsyncCacheTest, QueuedRemoveDoesNotReadAFinishedBlockingInsertsPayload) {
  GatedMemDevice device(4 * 1024 * 1024);
  NavyCache navy(&device, GatedCacheConfig(/*ram_bytes=*/0).navy);
  const std::string other = SameBucketKey(navy, "keyA");
  std::string elsewhere = "elsewhere";
  while (navy.soc().BucketOf(elsewhere) == navy.soc().BucketOf("keyA")) {
    elsewhere += "x";
  }

  // An async insert claims keyA's bucket; its read executes, un-stepped.
  navy.InsertAsync("keyA", "value-a", AsyncCallback{});
  device.Drain();
  // A blocking insert into another bucket runs to completion at once; its
  // op record goes back to the pool, still viewing the caller's payload.
  auto payload = std::make_unique<std::string>(200, 'p');
  ASSERT_TRUE(navy.Insert(elsewhere, *payload));
  payload.reset();
  // The remove reuses that record and queues behind the claim.
  AsyncResult removed;
  navy.RemoveAsync(other, [&](AsyncResult r) { removed = std::move(r); });
  navy.DrainAsync();
  EXPECT_EQ(removed.status, AsyncStatus::kMiss);
  EXPECT_EQ(navy.Lookup("keyA"), std::optional<std::string>("value-a"));
  EXPECT_EQ(navy.Lookup(elsewhere), std::optional<std::string>(std::string(200, 'p')));
}

// An RMW finishing with ops queued behind its bucket claim fires its own
// callback before they run, and neither side's callback can wait on the
// other forever: a blocking call made from a waiter's callback on the
// holder's key, or from the holder's callback on a waiter's key, completes.
// (Write pipelining makes the waiter resolve inline from the pending write
// buffer.)
TEST(AsyncCacheTest, BlockingCallFromBucketWaiterCallbackOnHolderKeyCompletes) {
  GatedMemDevice device(4 * 1024 * 1024);
  // DRAM budget below any item: every insert goes straight to flash.
  HybridCacheConfig config = GatedCacheConfig(/*ram_bytes=*/16);
  config.navy.soc_inflight_writes = 4;
  HybridCache cache(&device, config);
  const std::string other = SameBucketKey(cache.navy(), "keyA");

  cache.InsertAsync("keyA", "value-a", AsyncCallback{});
  device.Drain();
  bool nested_hit = false;
  std::string nested_value;
  cache.RemoveAsync(other, [&](AsyncResult r) {
    EXPECT_EQ(r.status, AsyncStatus::kMiss);
    nested_hit = cache.Get("keyA", &nested_value);
  });
  cache.DrainAsync();
  EXPECT_TRUE(nested_hit);
  EXPECT_EQ(nested_value, "value-a");
  EXPECT_EQ(cache.pending_async_ops(), 0u);
}

TEST(AsyncCacheTest, BlockingCallFromBucketHolderCallbackOnWaiterKeyCompletes) {
  GatedMemDevice device(4 * 1024 * 1024);
  HybridCacheConfig config = GatedCacheConfig(/*ram_bytes=*/16);
  config.navy.soc_inflight_writes = 4;
  HybridCache cache(&device, config);
  const std::string other = SameBucketKey(cache.navy(), "keyA");

  bool nested_hit = false;
  std::string nested_value;
  cache.InsertAsync("keyA", "value-a", [&](AsyncResult r) {
    EXPECT_EQ(r.status, AsyncStatus::kOk);
    nested_hit = cache.Get(other, &nested_value);
  });
  device.Drain();
  cache.InsertAsync(other, "value-other", AsyncCallback{});
  cache.DrainAsync();
  // The insert of `other` was issued before the Get, so the Get sees it.
  EXPECT_TRUE(nested_hit);
  EXPECT_EQ(nested_value, "value-other");
  EXPECT_EQ(cache.pending_async_ops(), 0u);
}

TEST(AsyncCacheTest, LocRegionReadParksAndCompletes) {
  GatedMemDevice device(4 * 1024 * 1024);
  auto cache = OneShardOver(&device, GatedCacheConfig(/*ram_bytes=*/64 * 1024));

  // Two large items: the second seals the first one's region, so keyL1 is on
  // flash (not in the open-region RAM buffer) and its lookup needs a read.
  const std::string large1(200 * 1024, 'x');
  const std::string large2(200 * 1024, 'y');
  ASSERT_TRUE(cache->shard(0).navy().Insert("keyL1", large1));
  ASSERT_TRUE(cache->shard(0).navy().Insert("keyL2", large2));
  ASSERT_GE(cache->shard(0).navy().stats().loc.regions_sealed, 1u);

  device.CloseReadGate();
  std::atomic<bool> done{false};
  AsyncResult out;
  cache->LookupAsync("keyL1", [&](AsyncResult r) {
    out = std::move(r);
    done.store(true);
  });
  ASSERT_TRUE(device.WaitUntilReadParked());
  EXPECT_FALSE(done.load());
  device.OpenReadGate();
  ASSERT_TRUE(AwaitTrue(done));
  EXPECT_EQ(out.status, AsyncStatus::kHit);
  EXPECT_EQ(out.value, large1);
}

// --- Same-key ordering through the pending-key table -------------------------

TEST(AsyncCacheTest, SameKeyInsertThenLookupCompleteInSubmissionOrder) {
  GatedMemDevice device(4 * 1024 * 1024);
  // DRAM budget below any item: every InsertAsync goes straight to flash and
  // parks on its SOC bucket read while the gate is closed.
  HybridCacheConfig config = GatedCacheConfig(/*ram_bytes=*/16);
  config.navy.soc_inflight_writes = 4;
  auto cache = OneShardOver(&device, config);

  device.CloseReadGate();
  std::mutex order_mu;
  std::vector<std::string> order;
  const auto record = [&](std::string tag) {
    return [&, tag = std::move(tag)](AsyncResult r) {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(tag + "=" +
                      (r.hit() ? r.value.substr(0, 2) : (r.ok() ? "ok" : "miss")));
    };
  };
  cache->InsertAsync("hotkey", "v1-payload", record("insert1"));
  ASSERT_TRUE(device.WaitUntilReadParked());
  cache->LookupAsync("hotkey", record("lookup1"));
  cache->InsertAsync("hotkey", "v2-payload", record("insert2"));
  cache->LookupAsync("hotkey", record("lookup2"));
  {
    std::lock_guard<std::mutex> lock(order_mu);
    EXPECT_TRUE(order.empty()) << "ops completed while the flash read was parked";
  }
  EXPECT_EQ(cache->Stats().TotalPendingOps(), 4u);

  device.OpenReadGate();
  cache->Drain();
  std::lock_guard<std::mutex> lock(order_mu);
  ASSERT_EQ(order.size(), 4u);
  // FIFO per key: each lookup observes exactly the preceding insert's value.
  EXPECT_EQ(order[0], "insert1=ok");
  EXPECT_EQ(order[1], "lookup1=v1");
  EXPECT_EQ(order[2], "insert2=ok");
  EXPECT_EQ(order[3], "lookup2=v2");
}

// --- Barriers ----------------------------------------------------------------

TEST(AsyncCacheTest, RemoveAsyncReportsRamOnlyRemovalAsOk) {
  GatedMemDevice device(4 * 1024 * 1024);
  auto cache = OneShardOver(&device, GatedCacheConfig(/*ram_bytes=*/64 * 1024));
  cache->Set("ramkey", "never-spilled");  // DRAM only; flash holds nothing.

  std::atomic<bool> done{false};
  AsyncResult removed;
  cache->RemoveAsync("ramkey", [&](AsyncResult r) {
    removed = std::move(r);
    done.store(true);
  });
  ASSERT_TRUE(AwaitTrue(done));
  EXPECT_EQ(removed.status, AsyncStatus::kOk) << "RAM-only removal must report kOk";

  std::atomic<bool> done_absent{false};
  AsyncResult absent;
  cache->RemoveAsync("never-existed", [&](AsyncResult r) {
    absent = std::move(r);
    done_absent.store(true);
  });
  ASSERT_TRUE(AwaitTrue(done_absent));
  EXPECT_EQ(absent.status, AsyncStatus::kMiss);
}

TEST(AsyncCacheTest, FlushIsACompletionBarrierForParkedOps) {
  GatedMemDevice device(4 * 1024 * 1024);
  auto cache = OneShardOver(&device, GatedCacheConfig(/*ram_bytes=*/64 * 1024));
  ASSERT_TRUE(cache->shard(0).navy().Insert("keyA", std::string(256, 'a')));
  ASSERT_TRUE(cache->shard(0).navy().Insert("keyC", std::string(256, 'c')));

  device.CloseReadGate();
  std::atomic<int> completions{0};
  cache->LookupAsync("keyA", [&](AsyncResult) { ++completions; });
  cache->LookupAsync("keyC", [&](AsyncResult) { ++completions; });
  ASSERT_TRUE(device.WaitUntilReadParked());

  std::atomic<bool> flushed{false};
  std::atomic<bool> flush_ok{false};
  std::thread flusher([&] {
    flush_ok.store(cache->Flush());
    flushed.store(true);
  });
  // Flush must wait for the parked ops — it cannot finish at a closed gate.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(flushed.load());
  device.OpenReadGate();
  flusher.join();
  EXPECT_TRUE(flush_ok.load());
  // Barrier contract: every callback fired before Flush returned.
  EXPECT_EQ(completions.load(), 2);
  EXPECT_EQ(cache->Stats().TotalPendingOps(), 0u);
}

TEST(AsyncCacheTest, PendingOpsGaugeTracksParkedOps) {
  GatedMemDevice device(4 * 1024 * 1024);
  auto cache = OneShardOver(&device, GatedCacheConfig(/*ram_bytes=*/64 * 1024));
  ASSERT_TRUE(cache->shard(0).navy().Insert("keyA", std::string(256, 'a')));
  ASSERT_TRUE(cache->shard(0).navy().Insert("keyC", std::string(256, 'c')));

  EXPECT_EQ(cache->Stats().pending_ops.size(), 1u);
  EXPECT_EQ(cache->Stats().TotalPendingOps(), 0u);
  device.CloseReadGate();
  cache->LookupAsync("keyA", nullptr);
  cache->LookupAsync("keyC", nullptr);
  ASSERT_TRUE(device.WaitUntilReadParked());
  EXPECT_EQ(cache->Stats().TotalPendingOps(), 2u);
  device.OpenReadGate();
  cache->Drain();
  EXPECT_EQ(cache->Stats().TotalPendingOps(), 0u);
}

TEST(AsyncCacheTest, FlushPropagatesFailedAsyncWrites) {
  GatedMemDevice device(4 * 1024 * 1024);
  HybridCacheConfig config = GatedCacheConfig(/*ram_bytes=*/16);
  config.navy.soc_inflight_writes = 4;
  auto cache = OneShardOver(&device, config);

  // The bucket rewrite is submitted asynchronously and fails on the device;
  // the failure must surface at the flush barrier instead of vanishing.
  device.SetFailWrites(true);
  std::atomic<bool> done{false};
  cache->InsertAsync("doomed", "payload", [&](AsyncResult) { done.store(true); });
  ASSERT_TRUE(AwaitTrue(done));
  EXPECT_FALSE(cache->Flush());
  // The failed generation degrades to misses, never stale data.
  std::string value;
  EXPECT_FALSE(cache->Get("doomed", &value));
  device.SetFailWrites(false);
  EXPECT_TRUE(cache->Flush());
}

// --- Exactly-once callbacks + blocking/async equivalence ---------------------

TEST(AsyncCacheTest, CallbackFiresExactlyOncePerOpAcrossMixedOutcomes) {
  ShardedBackendConfig backend_config;
  backend_config.num_shards = 2;
  backend_config.ssd.geometry.num_superblocks = 32;
  backend_config.ssd.geometry.pages_per_block = 16;
  backend_config.ssd.store_data = true;
  backend_config.cache.ram_bytes = 32 * 1024;
  ShardedSimBackend backend(backend_config);
  ShardedCache& cache = backend.cache();

  constexpr int kOps = 600;
  std::vector<std::atomic<int>> fired(kOps);
  for (auto& f : fired) {
    f.store(0);
  }
  for (int i = 0; i < kOps; ++i) {
    const std::string key = KeyString(static_cast<uint64_t>(i % 97));
    const auto cb = [&fired, i](AsyncResult) { ++fired[i]; };
    switch (i % 3) {
      case 0:
        cache.InsertAsync(key, ValuePayload(static_cast<uint64_t>(i % 97), 0, 300), cb);
        break;
      case 1:
        cache.LookupAsync(key, cb);
        break;
      default:
        cache.RemoveAsync(key, cb);
        break;
    }
  }
  cache.Drain();
  for (int i = 0; i < kOps; ++i) {
    EXPECT_EQ(fired[i].load(), 1) << "op " << i;
  }
}

TEST(AsyncCacheTest, AsyncLookupResultsMatchBlockingLookups) {
  ShardedBackendConfig backend_config;
  backend_config.num_shards = 2;
  backend_config.ssd.geometry.num_superblocks = 32;
  backend_config.ssd.geometry.pages_per_block = 16;
  backend_config.ssd.store_data = true;
  backend_config.cache.ram_bytes = 32 * 1024;
  ShardedSimBackend backend(backend_config);
  ShardedCache& cache = backend.cache();

  for (uint64_t id = 0; id < 200; ++id) {
    cache.Set(KeyString(id), ValuePayload(id, 0, 400));
  }
  // Every key resolves identically through both APIs (flash hits included).
  for (uint64_t id = 0; id < 220; ++id) {
    std::string sync_value;
    const bool sync_hit = cache.Get(KeyString(id), &sync_value);
    std::atomic<bool> done{false};
    AsyncResult async_result;
    cache.LookupAsync(KeyString(id), [&](AsyncResult r) {
      async_result = std::move(r);
      done.store(true);
    });
    ASSERT_TRUE(AwaitTrue(done)) << "key " << id;
    EXPECT_EQ(async_result.hit(), sync_hit) << "key " << id;
    if (sync_hit) {
      EXPECT_EQ(async_result.value, sync_value) << "key " << id;
    }
  }
}

// --- Multi-submitter stress with Drain racing callbacks ----------------------

TEST(AsyncCacheTest, MultiSubmitterStressWithDrainRacingCallbacks) {
  ShardedBackendConfig backend_config;
  backend_config.num_shards = 4;
  backend_config.ssd.geometry.num_superblocks = 64;
  backend_config.ssd.geometry.pages_per_block = 16;
  backend_config.ssd.store_data = true;
  backend_config.cache.ram_bytes = 48 * 1024;
  ShardedSimBackend backend(backend_config);
  ShardedCache& cache = backend.cache();

  constexpr uint32_t kThreads = 4;
  constexpr uint64_t kOpsPerThread = 1500;
  std::atomic<uint64_t> completions{0};
  std::atomic<bool> stop_drainer{false};
  std::thread drainer([&] {
    while (!stop_drainer.load()) {
      cache.Drain();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::vector<std::thread> submitters;
  for (uint32_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (uint64_t i = 0; i < kOpsPerThread; ++i) {
        const uint64_t id = (t * 131 + i * 7) % 509;
        const std::string key = KeyString(id);
        const auto cb = [&completions](AsyncResult) { ++completions; };
        switch (i % 4) {
          case 0:
          case 1:
            cache.LookupAsync(key, cb);
            break;
          case 2:
            cache.InsertAsync(key, ValuePayload(id, 0, 350), cb);
            break;
          default:
            cache.RemoveAsync(key, cb);
            break;
        }
      }
    });
  }
  for (auto& thread : submitters) {
    thread.join();
  }
  stop_drainer.store(true);
  drainer.join();
  cache.Drain();
  EXPECT_EQ(completions.load(), kThreads * kOpsPerThread);
  EXPECT_EQ(cache.Stats().TotalPendingOps(), 0u);
  // The shard counters saw every op exactly once.
  const ShardedCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.gets + stats.sets + stats.removes, kThreads * kOpsPerThread);
}

// --- Async replay through the concurrent driver ------------------------------

TEST(AsyncCacheTest, ConcurrentReplayDriverRunsAtCacheQueueDepth) {
  ShardedBackendConfig backend_config;
  backend_config.num_shards = 4;
  backend_config.ssd.geometry.num_superblocks = 64;
  backend_config.ssd.geometry.pages_per_block = 16;
  backend_config.ssd.store_data = true;
  backend_config.cache.ram_bytes = 48 * 1024;
  ShardedSimBackend backend(backend_config);

  ConcurrentReplayConfig replay;
  replay.num_threads = 2;
  replay.total_ops = 6000;
  replay.async_cache_queue_depth = 8;
  replay.workload.num_keys = 2000;
  replay.workload.small_value_min = 64;
  replay.workload.small_value_max = 512;
  replay.workload.large_value_min = 4096;
  replay.workload.large_value_max = 16384;
  ConcurrentReplayDriver driver(&backend.cache(), replay);
  const ConcurrentReplayReport report = driver.Run();
  EXPECT_EQ(report.ops_executed, replay.total_ops);
  EXPECT_GT(report.cache.gets, 0u);
  EXPECT_GT(report.cache.HitRatio(), 0.0);
  // The run drained: the pending gauge reads back empty.
  EXPECT_EQ(report.cache.TotalPendingOps(), 0u);
  EXPECT_EQ(backend.cache().Stats().TotalPendingOps(), 0u);
}

}  // namespace
}  // namespace fdpcache
