#include "src/workloads.h"

#include <algorithm>
#include <cmath>

namespace fdpperf {

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = {
      {"kv-read", WorkloadKind::kKvRead,
       "read path: RAM tier, SOC bloom/bucket and LOC lookups over SyncIo; GC idle, so "
       "device-pipeline and FTL/GC changes should not move it",
       9},
      {"twitter-write-gc", WorkloadKind::kTwitterWriteGc,
       "write path: LOC seals, SOC bucket rewrites, FTL mapping and GC relocation, FDP off, "
       ">=2 overwrite passes; catches read gains that cost writes",
       5},
      {"kv-async", WorkloadKind::kKvAsync,
       "async path: kv-read traffic with 8 async ops outstanding; queue-pair pipeline, "
       "dispatcher thread and pumped completion callbacks on the critical path",
       9},
  };
  return workloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

fdpcache::ExperimentConfig DeploymentFor(WorkloadKind kind, uint64_t seed, double seconds) {
  fdpcache::ExperimentConfig config;
  config.utilization = 1.0;
  config.seed = seed;
  switch (kind) {
    case WorkloadKind::kKvRead:
    case WorkloadKind::kKvAsync:
      config.workload = fdpcache::KvWorkloadConfig::MetaKvCache(seed);
      config.fdp = true;
      config.gc_mode = fdpcache::GcMode::kOff;
      config.total_ops =
          static_cast<uint64_t>(std::max(1.0, std::ceil(seconds * kKvReadOpsPerSecond)));
      if (kind == WorkloadKind::kKvAsync) {
        config.ram_bytes = kAsyncRamBytes;
        config.cache_queue_depth = kAsyncWindow;
      }
      break;
    case WorkloadKind::kTwitterWriteGc:
      config.workload = fdpcache::KvWorkloadConfig::TwitterCluster12(seed);
      config.fdp = false;
      config.gc_mode = fdpcache::GcMode::kFeedback;
      config.overwrite_passes = std::max(2.0, seconds * kTwitterPassesPerSecond);
      break;
  }
  return config;
}

}  // namespace fdpperf
