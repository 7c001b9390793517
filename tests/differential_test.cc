// Reference-model differential test for the cache tier.
//
// Replays seeded prefixes of the paper's three workloads (Meta KV Cache,
// Twitter cluster12, WO KV Cache) through one HybridCache over the simulated
// FDP SSD in four call styles — blocking Set/Get/Remove, async at cache queue
// depth 1, async at cache queue depth 8, and a mix where blocking and async
// ops interleave on the same cache — at 1 and 4 device queue pairs, with
// flash-write pipelining off and at 8.
//
// The model is sequential and checks safety, not hit rate: the cache may miss
// whenever it likes, but every hit must return the newest value of that key
// issued before the lookup (same-key FIFO, whatever the call style), and a
// removed key must not come back until it is set again. Every replay ends
// with a lookup of every key it touched, so the write-only workload is
// checked too.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cache/hybrid_cache.h"
#include "src/common/clock.h"
#include "src/navy/sim_ssd_device.h"
#include "src/ssd/ssd.h"
#include "src/workload/workload.h"

namespace fdpcache {
namespace {

constexpr uint64_t kOps = 5000;
constexpr uint64_t kNumKeys = 3000;
// Every 16th op of the prefix becomes a remove (the presets issue none).
constexpr uint64_t kRemoveEvery = 16;

enum class Mode { kBlocking, kAsyncQd1, kAsyncQd8, kMixed };

struct Params {
  const char* workload;
  Mode mode;
  uint32_t queue_pairs;
  uint32_t pipelining;
};

KvWorkloadConfig WorkloadFor(const std::string& name) {
  KvWorkloadConfig config = name == "kvcache"   ? KvWorkloadConfig::MetaKvCache(7)
                            : name == "twitter" ? KvWorkloadConfig::TwitterCluster12(7)
                                                : KvWorkloadConfig::WriteOnlyKvCache(7);
  config.num_keys = kNumKeys;
  return config;
}

// The seeded prefix, with removes mixed in and a lookup of every touched key
// appended.
std::vector<Op> BuildOps(const KvWorkloadConfig& config) {
  KvTraceGenerator generator(config);
  std::vector<Op> ops;
  std::vector<uint64_t> touched;
  std::unordered_map<uint64_t, bool> seen;
  for (uint64_t i = 0; i < kOps; ++i) {
    Op op = *generator.Next();
    if (i % kRemoveEvery == kRemoveEvery - 1) {
      op.type = OpType::kDelete;
    }
    if (!seen[op.key_id]) {
      seen[op.key_id] = true;
      touched.push_back(op.key_id);
    }
    ops.push_back(op);
  }
  for (const uint64_t key_id : touched) {
    Op op;
    op.type = OpType::kGet;
    op.key_id = key_id;
    op.value_size = generator.ValueSizeOf(key_id);
    ops.push_back(op);
  }
  return ops;
}

struct Outcome {
  uint64_t hits = 0;
  uint64_t lookups = 0;
  uint64_t violations = 0;
  double dlwa = 0.0;
  double hit_ratio = 0.0;
  std::string first_violation;
};

class Replay {
 public:
  explicit Replay(const Params& params) : params_(params) {
    SsdConfig ssd_config;
    ssd_config.geometry.pages_per_block = 16;
    ssd_config.geometry.planes_per_die = 2;
    ssd_config.geometry.num_dies = 4;
    ssd_config.geometry.num_superblocks = 48;
    ssd_config.op_fraction = 0.15;
    ssd_ = std::make_unique<SimulatedSsd>(ssd_config);
    const uint32_t nsid = *ssd_->CreateNamespace(ssd_->logical_capacity_bytes());
    IoQueueConfig queue;
    queue.num_queue_pairs = params.queue_pairs;
    device_ = std::make_unique<SimSsdDevice>(ssd_.get(), nsid, &clock_, queue);
    allocator_ = std::make_unique<PlacementHandleAllocator>(*device_);

    HybridCacheConfig config;
    config.ram_bytes = 256 * 1024;
    config.navy.small_item_max_bytes = 2048;
    config.navy.soc_fraction = 0.10;
    config.navy.loc_region_size = 256 * 1024;
    config.navy.queue_pair = 0;
    config.navy.loc_queue_pair = 1 % params.queue_pairs;
    config.navy.soc_inflight_writes = params.pipelining;
    config.navy.loc_inflight_regions = params.pipelining;
    cache_ = std::make_unique<HybridCache>(device_.get(), config, allocator_.get());
  }

  Outcome Run(const std::vector<Op>& ops) {
    for (uint64_t i = 0; i < ops.size(); ++i) {
      Issue(i, ops[i]);
    }
    cache_->DrainAsync();
    EXPECT_EQ(cache_->pending_async_ops(), 0u);
    cache_->navy().Flush();
    outcome_.dlwa = ssd_->GetFdpStatisticsLog().Dlwa();
    outcome_.hit_ratio = cache_->stats().HitRatio();
    return outcome_;
  }

 private:
  uint32_t Window() const { return params_.mode == Mode::kAsyncQd1 ? 1 : 8; }

  bool IssuesBlocking(uint64_t index) const {
    switch (params_.mode) {
      case Mode::kBlocking:
        return true;
      case Mode::kAsyncQd1:
      case Mode::kAsyncQd8:
        return false;
      case Mode::kMixed:
        // A fixed pseudo-random interleaving, so blocking ops regularly
        // land while async ops on the same hot keys are still pending.
        return (index * 0x9e3779b97f4a7c15ull >> 61) < 4;
    }
    return true;
  }

  // Checks one lookup result against the model state captured at issue.
  void Check(uint64_t index, const Op& op, uint64_t expected_version, bool hit,
             const std::string& value) {
    ++outcome_.lookups;
    if (!hit) {
      return;
    }
    ++outcome_.hits;
    const bool ok = expected_version != 0 &&
                    value == ValuePayload(op.key_id, expected_version, op.value_size);
    if (!ok) {
      if (outcome_.violations == 0) {
        outcome_.first_violation =
            "op " + std::to_string(index) + " key " + std::to_string(op.key_id) +
            (expected_version == 0 ? ": hit on a removed/never-set key"
                                   : ": hit returned a value other than version " +
                                         std::to_string(expected_version));
      }
      ++outcome_.violations;
    }
  }

  void Issue(uint64_t index, const Op& op) {
    const std::string key = KeyString(op.key_id);
    const bool blocking = IssuesBlocking(index);
    switch (op.type) {
      case OpType::kSet: {
        // Versions are op indices + 1, unique per write.
        newest_[op.key_id] = index + 1;
        const std::string value = ValuePayload(op.key_id, index + 1, op.value_size);
        if (blocking) {
          cache_->Set(key, value);
        } else {
          cache_->InsertAsync(key, value, AsyncCallback{});
        }
        break;
      }
      case OpType::kDelete:
        newest_[op.key_id] = 0;
        if (blocking) {
          cache_->Remove(key);
        } else {
          cache_->RemoveAsync(key, AsyncCallback{});
        }
        break;
      case OpType::kGet: {
        const auto it = newest_.find(op.key_id);
        const uint64_t expected = it == newest_.end() ? 0 : it->second;
        if (blocking) {
          std::string value;
          const bool hit = cache_->Get(key, &value);
          Check(index, op, expected, hit, value);
        } else {
          cache_->LookupAsync(key, [this, index, op, expected](AsyncResult r) {
            Check(index, op, expected, r.hit(), r.value);
          });
        }
        break;
      }
    }
    if (!blocking) {
      // A completion may start an eviction spill, so pump while flash work
      // is parked rather than until the count drops.
      while (cache_->pending_async_ops() >= Window() && cache_->navy().pending_async_ops() > 0) {
        cache_->PumpAsync(/*blocking=*/true);
      }
    }
  }

  Params params_;
  VirtualClock clock_;
  std::unique_ptr<SimulatedSsd> ssd_;
  std::unique_ptr<SimSsdDevice> device_;
  std::unique_ptr<PlacementHandleAllocator> allocator_;
  std::unique_ptr<HybridCache> cache_;
  // Newest write issued per key: its version, or 0 after a remove.
  std::unordered_map<uint64_t, uint64_t> newest_;
  Outcome outcome_;
};

Outcome RunReplay(const Params& params) {
  Replay replay(params);
  return replay.Run(BuildOps(WorkloadFor(params.workload)));
}

class DifferentialTest : public ::testing::TestWithParam<Params> {};

TEST_P(DifferentialTest, EveryHitReturnsTheNewestIssuedValue) {
  const Outcome out = RunReplay(GetParam());
  EXPECT_EQ(out.violations, 0u) << out.first_violation;
  EXPECT_GT(out.lookups, 0u);
  // The check must actually see hits, or it proves nothing.
  EXPECT_GT(out.hits, out.lookups / 20) << out.hits << " hits of " << out.lookups;
}

std::vector<Params> AllParams() {
  std::vector<Params> params;
  for (const char* workload : {"kvcache", "twitter", "wokv"}) {
    for (const Mode mode : {Mode::kBlocking, Mode::kAsyncQd1, Mode::kAsyncQd8, Mode::kMixed}) {
      for (const uint32_t qps : {1u, 4u}) {
        for (const uint32_t pipelining : {0u, 8u}) {
          params.push_back(Params{workload, mode, qps, pipelining});
        }
      }
    }
  }
  return params;
}

std::string ParamName(const ::testing::TestParamInfo<Params>& info) {
  static const char* const kModes[] = {"Blocking", "AsyncQd1", "AsyncQd8", "Mixed"};
  const Params& p = info.param;
  return std::string(p.workload) + "_" + kModes[static_cast<int>(p.mode)] + "_Qp" +
         std::to_string(p.queue_pairs) + "_Pipe" + std::to_string(p.pipelining);
}

INSTANTIATE_TEST_SUITE_P(Replays, DifferentialTest, ::testing::ValuesIn(AllParams()),
                         ParamName);

// The blocking path drives the device through its idle SyncIo fast path, so
// spreading the engines over more queue pairs must not move a single byte.
// With write pipelining the hit ratio still may not move, but the order in
// which the device arbitrates the SOC and LOC queue pairs' outstanding writes
// sets the FTL's write order, so DLWA is compared without pipelining only.
TEST(DifferentialQueuePairTest, BlockingRunsAreIdenticalAcrossQueuePairs) {
  for (const char* workload : {"kvcache", "twitter", "wokv"}) {
    for (const uint32_t pipelining : {0u, 8u}) {
      const Outcome one = RunReplay(Params{workload, Mode::kBlocking, 1, pipelining});
      const Outcome four = RunReplay(Params{workload, Mode::kBlocking, 4, pipelining});
      EXPECT_EQ(one.hit_ratio, four.hit_ratio) << workload << " pipelining " << pipelining;
      if (pipelining == 0) {
        EXPECT_EQ(one.dlwa, four.dlwa) << workload;
      }
    }
  }
}

}  // namespace
}  // namespace fdpcache
