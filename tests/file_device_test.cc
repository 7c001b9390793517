// File-backed device backends: async contract conformance on a tmpfs file
// for all three engines (FileDevice's synchronous pipeline, UringFileDevice's
// io_uring ring, UringFileDevice's ring-less execution lanes), open-without-
// truncate / validation semantics of the shared FileBacking layer, trim
// punch-hole behaviour, a ShardedCache round-trip with self-validating
// payloads on the file backend, uring-vs-fallback equivalence, and the
// acceptance check that a parked async cache lookup completes via the
// CompletionToken/hook path on a thread that is NOT the submitter. io_uring
// specifics SKIP cleanly on kernels without it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/cache/sharded_cache.h"
#include "src/navy/file_device.h"
#include "src/navy/uring_file_device.h"

namespace fdpcache {
namespace {

constexpr uint64_t kPage = 4096;

enum class Backend { kFileSync, kUringFallback, kUring };

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kFileSync:
      return "FileSync";
    case Backend::kUringFallback:
      return "UringFallback";
    case Backend::kUring:
      return "Uring";
  }
  return "?";
}

std::unique_ptr<Device> MakeBackend(Backend backend, const std::string& path,
                                    uint64_t size_bytes, const IoQueueConfig& queue) {
  if (backend == Backend::kFileSync) {
    auto device = std::make_unique<FileDevice>(path, size_bytes, kPage, queue);
    if (!device->ok()) {
      ADD_FAILURE() << "FileDevice open failed: " << device->error();
      return nullptr;
    }
    return device;
  }
  UringFileDevice::Options options;
  options.backing.path = path;
  options.backing.size_bytes = size_bytes;
  options.backing.page_size = kPage;
  options.prefer_uring = backend == Backend::kUring;
  // The ring-less engine runs on execution lanes routed by offset stripe;
  // a page stripe spreads this suite's page-sized I/O across all of them.
  IoQueueConfig device_queue = queue;
  if (backend == Backend::kUringFallback) {
    device_queue.lane_stripe_bytes = kPage;
  }
  auto device = std::make_unique<UringFileDevice>(options, device_queue);
  if (!device->ok()) {
    ADD_FAILURE() << "UringFileDevice open failed: " << device->error();
    return nullptr;
  }
  if (backend == Backend::kUring) {
    EXPECT_TRUE(device->using_uring());
  } else {
    EXPECT_FALSE(device->using_uring());
    if (queue.exec_lanes == 0) {
      EXPECT_EQ(device->PerLaneStats().size(), 4u);  // The default ring-less pool.
    }
  }
  return device;
}

bool AwaitTrue(const std::atomic<bool>& flag, int seconds = 30) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  while (!flag.load()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

class FileBackendConformanceTest : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    if (GetParam() == Backend::kUring && !UringFileDevice::KernelSupportsIoUring()) {
      GTEST_SKIP() << "io_uring unavailable on this kernel";
    }
    path_ = testing::TempDir() + "/fdp_conformance_" +
            std::string(BackendName(GetParam())) + ".bin";
    std::remove(path_.c_str());
  }

  void TearDown() override { std::remove(path_.c_str()); }

  std::unique_ptr<Device> Make(const IoQueueConfig& queue,
                               uint64_t size_bytes = 8 * 1024 * 1024) {
    return MakeBackend(GetParam(), path_, size_bytes, queue);
  }

  std::string path_;
};

TEST_P(FileBackendConformanceTest, SubmitPollWaitDrainRoundTrip) {
  auto device = Make(IoQueueConfig{});
  ASSERT_NE(device, nullptr);
  constexpr uint32_t kPages = 32;
  std::vector<std::vector<uint8_t>> payloads;
  std::vector<CompletionToken> tokens;
  for (uint32_t i = 0; i < kPages; ++i) {
    payloads.emplace_back(kPage, static_cast<uint8_t>(0x40 + i));
    tokens.push_back(device->Submit(IoRequest::MakeWrite(
        static_cast<uint64_t>(i) * kPage, payloads[i].data(), kPage, kNoPlacement)));
    ASSERT_NE(tokens.back(), kInvalidToken);
  }
  // Reap half through Wait, the rest through Drain + Poll.
  for (uint32_t i = 0; i < kPages / 2; ++i) {
    EXPECT_TRUE(device->Wait(tokens[i]).ok) << i;
  }
  device->Drain();
  EXPECT_EQ(device->InFlight(), 0u);
  for (uint32_t i = kPages / 2; i < kPages; ++i) {
    const std::optional<IoResult> result = device->Poll(tokens[i]);
    ASSERT_TRUE(result.has_value()) << i;
    EXPECT_TRUE(result->ok) << i;
  }
  // A reaped token reaps exactly once, and bad tokens fail fast.
  EXPECT_FALSE(device->Poll(tokens[0]).has_value());
  EXPECT_FALSE(device->Wait(kInvalidToken).ok);
  // Data round-trip, async reads.
  for (uint32_t i = 0; i < kPages; ++i) {
    std::vector<uint8_t> out(kPage, 0);
    const IoResult read = device->Wait(device->Submit(
        IoRequest::MakeRead(static_cast<uint64_t>(i) * kPage, out.data(), kPage)));
    EXPECT_TRUE(read.ok) << i;
    EXPECT_EQ(out, payloads[i]) << i;
  }
  EXPECT_EQ(device->stats().writes, kPages);
  EXPECT_EQ(device->stats().reads, kPages);
}

TEST_P(FileBackendConformanceTest, CrossQpWaitFromAnyThread) {
  IoQueueConfig queue;
  queue.num_queue_pairs = 4;
  auto device = Make(queue);
  ASSERT_NE(device, nullptr);
  std::vector<std::vector<uint8_t>> payloads;
  std::vector<CompletionToken> tokens;
  for (uint32_t qp = 0; qp < 4; ++qp) {
    payloads.emplace_back(kPage, static_cast<uint8_t>(0x80 + qp));
    IoRequest request = IoRequest::MakeWrite(static_cast<uint64_t>(qp) * 16 * kPage,
                                             payloads[qp].data(), kPage, kNoPlacement);
    request.qp = qp;
    tokens.push_back(device->Submit(request));
  }
  // A different thread reaps tokens from every queue pair.
  std::thread reaper([&] {
    for (uint32_t qp = 0; qp < 4; ++qp) {
      EXPECT_TRUE(device->Wait(tokens[qp]).ok) << "qp " << qp;
    }
  });
  reaper.join();
  for (uint32_t qp = 0; qp < 4; ++qp) {
    std::vector<uint8_t> out(kPage, 0);
    ASSERT_TRUE(device->Read(static_cast<uint64_t>(qp) * 16 * kPage, out.data(), kPage));
    EXPECT_EQ(out, payloads[qp]) << qp;
  }
}

// Overlapping same-QP requests must retire in submission order even when the
// backend completes out of order (the uring reaper and pool workers may
// finish whatever lands first) — the async conflict tracker's guarantee.
TEST_P(FileBackendConformanceTest, OverlapOrderingPerQp) {
  auto device = Make(IoQueueConfig{});
  ASSERT_NE(device, nullptr);
  constexpr int kRounds = 40;
  for (int round = 0; round < kRounds; ++round) {
    // Burst of writes to ONE page, reaped only afterwards: the last
    // submitted fill must win.
    std::vector<std::vector<uint8_t>> fills;
    std::vector<CompletionToken> tokens;
    for (int i = 0; i < 6; ++i) {
      fills.emplace_back(kPage, static_cast<uint8_t>(round * 8 + i));
      tokens.push_back(
          device->Submit(IoRequest::MakeWrite(0, fills[i].data(), kPage, kNoPlacement)));
    }
    for (const CompletionToken token : tokens) {
      EXPECT_TRUE(device->Wait(token).ok);
    }
    std::vector<uint8_t> out(kPage, 0);
    ASSERT_TRUE(device->Read(0, out.data(), kPage));
    EXPECT_EQ(out, fills.back()) << "round " << round;
  }
  // Write-trim-write interleave on one page: submission order decides.
  const std::vector<uint8_t> a(kPage, 0xaa);
  const std::vector<uint8_t> b(kPage, 0xbb);
  std::vector<CompletionToken> tokens;
  tokens.push_back(device->Submit(IoRequest::MakeWrite(kPage, a.data(), kPage, kNoPlacement)));
  tokens.push_back(device->Submit(IoRequest::MakeTrim(kPage, kPage)));
  tokens.push_back(device->Submit(IoRequest::MakeWrite(kPage, b.data(), kPage, kNoPlacement)));
  for (const CompletionToken token : tokens) {
    EXPECT_TRUE(device->Wait(token).ok);
  }
  std::vector<uint8_t> out(kPage, 0);
  ASSERT_TRUE(device->Read(kPage, out.data(), kPage));
  EXPECT_EQ(out, b);
}

TEST_P(FileBackendConformanceTest, DrainRacesFourSubmitters) {
  IoQueueConfig queue;
  queue.num_queue_pairs = 4;
  auto device = Make(queue);
  ASSERT_NE(device, nullptr);
  constexpr uint32_t kThreads = 4;
  constexpr uint32_t kWritesPerThread = 150;
  const uint64_t span = device->size_bytes() / kThreads / kPage * kPage;
  ASSERT_GE(span, kWritesPerThread * kPage);
  std::atomic<bool> stop{false};
  std::atomic<uint32_t> failures{0};

  // Drain() continuously while submitters churn: it must never hang and
  // never observe negative accounting (a hang here times out the test).
  std::thread drainer([&] {
    while (!stop.load()) {
      device->Drain();
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> submitters;
  for (uint32_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      std::vector<uint8_t> data(kPage, static_cast<uint8_t>(0x30 + t));
      std::vector<CompletionToken> window;
      for (uint32_t i = 0; i < kWritesPerThread; ++i) {
        IoRequest request = IoRequest::MakeWrite(
            t * span + static_cast<uint64_t>(i) * kPage, data.data(), kPage, kNoPlacement);
        request.qp = t;
        window.push_back(device->Submit(request));
        if (window.size() >= 8) {
          for (const CompletionToken token : window) {
            if (!device->Wait(token).ok) {
              ++failures;
            }
          }
          window.clear();
        }
      }
      for (const CompletionToken token : window) {
        if (!device->Wait(token).ok) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& submitter : submitters) {
    submitter.join();
  }
  stop.store(true);
  drainer.join();
  device->Drain();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(device->InFlight(), 0u);
  EXPECT_EQ(device->stats().writes, kThreads * kWritesPerThread);
  for (uint32_t t = 0; t < kThreads; ++t) {
    std::vector<uint8_t> out(kPage, 0);
    ASSERT_TRUE(device->Read(t * span, out.data(), kPage));
    EXPECT_EQ(out[0], static_cast<uint8_t>(0x30 + t)) << "thread " << t;
  }
}

TEST_P(FileBackendConformanceTest, TrimReadsBackZeroes) {
  auto device = Make(IoQueueConfig{});
  ASSERT_NE(device, nullptr);
  const std::vector<uint8_t> data(2 * kPage, 0xcd);
  ASSERT_TRUE(device->Write(0, data.data(), 2 * kPage, kNoPlacement));
  ASSERT_TRUE(device->Trim(0, 2 * kPage));
  std::vector<uint8_t> out(2 * kPage, 1);
  ASSERT_TRUE(device->Read(0, out.data(), 2 * kPage));
  EXPECT_EQ(out, std::vector<uint8_t>(2 * kPage, 0));
}

INSTANTIATE_TEST_SUITE_P(AllBackends, FileBackendConformanceTest,
                         ::testing::Values(Backend::kFileSync, Backend::kUringFallback,
                                           Backend::kUring),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return BackendName(info.param);
                         });

// --- FileBacking open/validate semantics -------------------------------------

TEST(FileBackingTest, OpensExistingFileWithoutTruncating) {
  const std::string path = testing::TempDir() + "/fdp_backing_keep.bin";
  std::remove(path.c_str());
  const std::vector<uint8_t> data(kPage, 0x77);
  {
    FileDevice device(path, 1 * 1024 * 1024);
    ASSERT_TRUE(device.ok());
    ASSERT_TRUE(device.Write(3 * kPage, data.data(), kPage, kNoPlacement));
  }
  // Reopen the same path: the old contents must survive (the seed ctor
  // ftruncated unconditionally, destroying them).
  FileDevice reopened(path, 1 * 1024 * 1024);
  ASSERT_TRUE(reopened.ok());
  std::vector<uint8_t> out(kPage, 0);
  ASSERT_TRUE(reopened.Read(3 * kPage, out.data(), kPage));
  EXPECT_EQ(out, data);
  std::remove(path.c_str());
}

TEST(FileBackingTest, SizeZeroAdoptsExistingFileSize) {
  const std::string path = testing::TempDir() + "/fdp_backing_adopt.bin";
  std::remove(path.c_str());
  {
    FileDevice device(path, 2 * 1024 * 1024);
    ASSERT_TRUE(device.ok());
  }
  FileBackingOptions options;
  options.path = path;
  options.size_bytes = 0;  // Use whatever the file holds.
  FileDevice device(options);
  ASSERT_TRUE(device.ok()) << device.error();
  EXPECT_EQ(device.size_bytes(), 2 * 1024 * 1024u);
  std::remove(path.c_str());
}

TEST(FileBackingTest, GrowsButNeverShrinksExistingFile) {
  const std::string path = testing::TempDir() + "/fdp_backing_grow.bin";
  std::remove(path.c_str());
  {
    FileDevice device(path, 1 * 1024 * 1024);
    ASSERT_TRUE(device.ok());
  }
  {
    // Larger request grows the file.
    FileDevice device(path, 4 * 1024 * 1024);
    ASSERT_TRUE(device.ok());
    EXPECT_EQ(device.size_bytes(), 4 * 1024 * 1024u);
  }
  {
    // Smaller request bounds the device without shrinking the file.
    FileDevice device(path, 1 * 1024 * 1024);
    ASSERT_TRUE(device.ok());
    EXPECT_EQ(device.size_bytes(), 1 * 1024 * 1024u);
  }
  FileBackingOptions adopt;
  adopt.path = path;
  FileDevice device(adopt);
  ASSERT_TRUE(device.ok());
  EXPECT_EQ(device.size_bytes(), 4 * 1024 * 1024u);  // Still 4 MiB on disk.
  std::remove(path.c_str());
}

TEST(FileBackingTest, ValidationFailuresCarryClearErrors) {
  {
    FileBackingOptions options;  // Empty path.
    FileDevice device(options);
    EXPECT_FALSE(device.ok());
    EXPECT_NE(device.error().find("path is empty"), std::string::npos) << device.error();
  }
  {
    FileBackingOptions options;
    options.path = testing::TempDir() + "/fdp_backing_missing.bin";
    options.create_if_missing = false;
    FileDevice device(options);
    EXPECT_FALSE(device.ok());
    EXPECT_NE(device.error().find("does not exist"), std::string::npos) << device.error();
  }
  {
    FileBackingOptions options;
    options.path = testing::TempDir() + "/fdp_backing_nocreate.bin";
    options.size_bytes = 0;  // Cannot create a file of unknown size.
    FileDevice device(options);
    EXPECT_FALSE(device.ok());
    EXPECT_NE(device.error().find("size_bytes required"), std::string::npos)
        << device.error();
  }
  {
    FileBackingOptions options;
    options.path = testing::TempDir() + "/fdp_backing_misaligned.bin";
    options.size_bytes = kPage + 100;  // Not a multiple of page_size.
    FileDevice device(options);
    EXPECT_FALSE(device.ok());
    EXPECT_NE(device.error().find("not a multiple of page_size"), std::string::npos)
        << device.error();
    std::remove(options.path.c_str());
  }
  {
    FileBackingOptions options;
    options.path = testing::TempDir();  // A directory.
    options.size_bytes = kPage;
    FileDevice device(options);
    EXPECT_FALSE(device.ok());
    EXPECT_FALSE(device.error().empty());
  }
}

// --- ShardedCache on the file backend ----------------------------------------

std::string SelfValidatingValue(int i, size_t size) {
  std::string value(size, '\0');
  for (size_t j = 0; j < size; ++j) {
    value[j] = static_cast<char>('a' + (i * 31 + j * 7) % 26);
  }
  return value;
}

TEST(FileBackendCacheTest, ShardedCacheRoundTripOnFileBackend) {
  const std::string path = testing::TempDir() + "/fdp_sharded_file.bin";
  std::remove(path.c_str());
  constexpr uint32_t kShards = 4;
  constexpr uint64_t kShardBytes = 8 * 1024 * 1024;
  FileDevice device(path, kShards * kShardBytes, kPage);
  ASSERT_TRUE(device.ok()) << device.error();
  PlacementHandleAllocator allocator(device);

  // Each shard owns a disjoint byte-range partition of the one file, exactly
  // as the sim backend partitions the one SSD.
  ShardedCache cache(kShards, [&](uint32_t shard_index) {
    HybridCacheConfig config;
    config.ram_bytes = 256 * 1024;
    config.navy.base_offset = shard_index * kShardBytes;
    config.navy.size_bytes = kShardBytes;
    config.navy.loc_region_size = 512 * 1024;
    return std::make_unique<HybridCache>(&device, config, &allocator);
  });
  cache.AttachDevice(&device);

  constexpr int kItems = 120;
  for (int i = 0; i < kItems; ++i) {
    const size_t size = i % 3 == 0 ? 48 * 1024 : 256;  // LOC and SOC mix.
    cache.Set("file-key-" + std::to_string(i), SelfValidatingValue(i, size));
  }
  ASSERT_TRUE(cache.Flush());
  int hits = 0;
  for (int i = 0; i < kItems; ++i) {
    std::string value;
    if (cache.Get("file-key-" + std::to_string(i), &value)) {
      const size_t size = i % 3 == 0 ? 48 * 1024 : 256;
      EXPECT_EQ(value, SelfValidatingValue(i, size)) << "corrupt payload for item " << i;
      ++hits;
    }
  }
  // Caches may evict, but most of a working set this small must survive, and
  // nothing may come back corrupt.
  EXPECT_GE(hits, kItems / 2);
  std::remove(path.c_str());
}

// --- uring vs fallback equivalence -------------------------------------------

TEST(FileBackendCacheTest, UringAndFallbackProduceIdenticalContents) {
  if (!UringFileDevice::KernelSupportsIoUring()) {
    GTEST_SKIP() << "io_uring unavailable: " << UringFileDevice::KernelIoUringFeatureString();
  }
  const std::string uring_path = testing::TempDir() + "/fdp_equiv_uring.bin";
  const std::string pool_path = testing::TempDir() + "/fdp_equiv_pool.bin";
  std::remove(uring_path.c_str());
  std::remove(pool_path.c_str());
  constexpr uint64_t kBytes = 4 * 1024 * 1024;

  const auto run = [&](const std::string& path, bool prefer_uring) {
    UringFileDevice::Options options;
    options.backing.path = path;
    options.backing.size_bytes = kBytes;
    options.backing.page_size = kPage;
    options.prefer_uring = prefer_uring;
    UringFileDevice device(options, IoQueueConfig{});
    EXPECT_TRUE(device.ok()) << device.error();
    EXPECT_EQ(device.using_uring(), prefer_uring);
    // Deterministic op sequence: strided writes, overlapping rewrites, a
    // trim, async reads.
    std::vector<CompletionToken> tokens;
    std::vector<std::vector<uint8_t>> payloads;
    for (int i = 0; i < 64; ++i) {
      payloads.emplace_back(kPage, static_cast<uint8_t>(i * 3 + 1));
      tokens.push_back(device.Submit(IoRequest::MakeWrite(
          static_cast<uint64_t>(i % 32) * kPage, payloads[i].data(), kPage, kNoPlacement)));
    }
    tokens.push_back(device.Submit(IoRequest::MakeTrim(0, 4 * kPage)));
    for (const CompletionToken token : tokens) {
      EXPECT_TRUE(device.Wait(token).ok);
    }
    device.Drain();
    std::vector<uint8_t> contents(kBytes, 0);
    EXPECT_TRUE(device.Read(0, contents.data(), kBytes));
    return contents;
  };

  const std::vector<uint8_t> via_uring = run(uring_path, true);
  const std::vector<uint8_t> via_pool = run(pool_path, false);
  EXPECT_EQ(via_uring, via_pool);
  std::remove(uring_path.c_str());
  std::remove(pool_path.c_str());
}

// --- acceptance: parked lookup completes via the hook path -------------------

// A flash LookupAsync on the uring backend parks on a CompletionToken; the
// CQE is reaped by the device's reaper thread, the completion hook wakes the
// cache's poller, and the callback fires there — NEVER on the submitting
// thread, which returned long before and does nothing to drive the I/O. A
// submitter blocked in the kernel would resolve the op inline instead.
TEST(FileBackendCacheTest, ParkedAsyncLookupCompletesOffSubmitterThread) {
  const std::string path = testing::TempDir() + "/fdp_parked_lookup.bin";
  std::remove(path.c_str());
  UringFileDevice::Options options;
  options.backing.path = path;
  options.backing.size_bytes = 32 * 1024 * 1024;
  options.backing.page_size = kPage;
  UringFileDevice device(options, IoQueueConfig{});
  ASSERT_TRUE(device.ok()) << device.error();
  if (UringFileDevice::KernelSupportsIoUring()) {
    ASSERT_TRUE(device.using_uring());
  }
  PlacementHandleAllocator allocator(device);
  ShardedCache cache(1, [&](uint32_t) {
    HybridCacheConfig config;
    config.ram_bytes = 64 * 1024;  // Tiny RAM tier: big values evict fast.
    config.navy.loc_region_size = 256 * 1024;
    return std::make_unique<HybridCache>(&device, config, &allocator);
  });
  cache.AttachDevice(&device);

  const std::string value = SelfValidatingValue(1, 100 * 1024);
  cache.Set("parked-key", value);
  for (int i = 0; i < 4; ++i) {
    // Push the key out of RAM so the lookup must go to flash.
    cache.Set("evictor-" + std::to_string(i), SelfValidatingValue(i + 2, 100 * 1024));
  }
  ASSERT_TRUE(cache.Flush());  // Seal regions: reads hit the device, not buffers.

  std::atomic<bool> done{false};
  std::thread::id callback_tid;
  AsyncResult result;
  cache.LookupAsync("parked-key", [&](AsyncResult r) {
    callback_tid = std::this_thread::get_id();
    result = std::move(r);
    done.store(true);
  });
  // From here the submitting thread only watches a flag: every kernel
  // interaction (SQE submit already done, CQE reap, hook, poller) happens on
  // background threads, or this wait times out.
  ASSERT_TRUE(AwaitTrue(done));
  ASSERT_EQ(result.status, AsyncStatus::kHit);
  EXPECT_EQ(result.value, value);
  // The thread id is the race-free proof of parking: a tmpfs read can retire
  // before LookupAsync even returns, but as long as the callback ran on the
  // reaper/poller — not here — the submitter provably never blocked on the
  // flash read. Inline RAM resolution would run it on this thread.
  EXPECT_NE(callback_tid, std::this_thread::get_id())
      << "parked lookup resolved on the submitting thread";
  cache.Drain();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fdpcache
