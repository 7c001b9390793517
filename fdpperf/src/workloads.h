// The benchmark's workloads. Each is configured only through settings a user
// of the library sets — traffic preset, deployment size, FDP on/off, GC
// mode and the client's window — never through internal path selectors.
#ifndef FDPPERF_SRC_WORKLOADS_H_
#define FDPPERF_SRC_WORKLOADS_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/harness/experiment.h"

namespace fdpperf {

enum class WorkloadKind : uint8_t { kKvRead, kTwitterWriteGc, kKvAsync };

struct WorkloadSpec {
  const char* name;
  WorkloadKind kind;
  const char* why;
  // Stacks an untraced run builds and measures in turn, each for an equal
  // share of the run's seconds (see main.cc).
  int stacks;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(std::string_view name);

// The deployment (device, cache, traffic, run length) of a workload.
// `seconds`, the length of one stack's phase, sizes the prefix over which
// the virtual-clock metrics are taken: kv-read and kv-async issue
// kKvReadOpsPerSecond ops per second of the phase, twitter-write-gc runs
// kTwitterPassesPerSecond device overwrite passes per second (never fewer
// than two).
fdpcache::ExperimentConfig DeploymentFor(WorkloadKind kind, uint64_t seed, double seconds);

constexpr double kKvReadOpsPerSecond = 40'000;
constexpr double kTwitterPassesPerSecond = 0.4;

// kv-async: the client keeps this many async ops outstanding.
constexpr uint32_t kAsyncWindow = 8;
// kv-async's DRAM tier. With kv-read's 21 MiB about half of the gets hit
// DRAM, so the median get sits on the edge between the inline DRAM path and
// the flash round trip; at 64 MiB the median get is a DRAM hit and the
// async flash path sets the tail.
constexpr uint64_t kAsyncRamBytes = 64ull << 20;

// Ops pre-generated per second of a stack's phase: about 1.5 times the
// fastest workload's rate today (twitter-write-gc, ~130k ops/s at its best
// on the reference host). A client that uses them all ends its phase early.
constexpr double kStreamOpsPerSecond = 200'000;
// Never fewer: twitter-write-gc's shortest prefix (two overwrite passes) is
// about 254k ops.
constexpr double kMinStreamOps = 600'000;

}  // namespace fdpperf

#endif  // FDPPERF_SRC_WORKLOADS_H_
