// What one measured phase of a workload produces.
#ifndef FDPPERF_SRC_PHASE_H_
#define FDPPERF_SRC_PHASE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/client_data.h"
#include "src/host_gauge.h"
#include "src/layers.h"

namespace fdpperf {

struct PhasePlan {
  // Wall seconds the phase runs for. Virtual-clock workloads first complete
  // their deterministic prefix, then keep going until this much wall time
  // has passed; 0 stops right at the prefix end.
  double seconds = 0.0;
  // Record spans and the per-layer classifications.
  bool trace = false;
  // When set, probed after each wall window once no client op is in flight;
  // the probe's time belongs to no window and extends the phase.
  HostGauge* gauge = nullptr;
};

struct PhaseResult {
  // --- whole phase (wall clock) ---------------------------------------------
  uint64_t ops = 0;  // Client ops completed.
  double wall_s = 0.0;  // Host-gauge probes left out.
  uint32_t windows = 0;  // Wall windows and prefix chunks (see WindowsFor).
  std::vector<double> window_ops_per_s;
  LatencyLog get;  // Call -> return (blocking) or call -> callback (async).
  LatencyLog set;  // Set and miss-fill calls.
  uint64_t mismatches = 0;      // Hits that did not return the last acknowledged value.
  uint64_t failed_ops = 0;      // Ops that completed with an error status.
  uint64_t flush_failures = 0;  // Failed flush/reap barriers.
  int threads = 0;              // Process threads, sampled mid-phase.
  double steal_share = 0.0;     // Host steal share of all CPU time (guest view).
  bool stream_exhausted = false;  // The phase ended early: no pre-generated op left.
  LayerSnapshot begin;
  LayerSnapshot end;

  // --- deterministic prefix (virtual clock) ---------------------------------
  // For the single-client virtual-clock workloads, the first `prefix_ops` ops
  // replay exactly what ExperimentRunner::Run() measures; every virtual
  // metric is taken over them. On kv-async the prefix is the same number of
  // issued ops, but its virtual metrics are not bit-reproducible.
  uint64_t prefix_ops = 0;
  LayerSnapshot prefix_end;
  std::vector<uint64_t> vread_ns;  // Exact virtual device latencies.
  std::vector<uint64_t> vwrite_ns;

  // --- traced run only --------------------------------------------------------
  LatencyLog get_ram_hit;      // Blocking Gets classified by hit-counter deltas.
  LatencyLog get_nvm_hit;
  LatencyLog get_miss;
  LatencyLog async_get_flash;  // LookupAsync -> callback, callback after return.
  std::vector<double> async_pending;  // Cache's pending async ops, sampled at issue.
  std::vector<uint64_t> submit_to_reap_ns;  // Async device commands, wall.
};

// Equal wall windows a phase is cut into for the median ops/s, and equal
// op chunks the prefix is cut into for the median latency percentiles: one
// per second of the phase, at least 5.
uint32_t WindowsFor(double seconds);

// Cuts a phase into equal wall windows. A short tail (under half a window)
// is folded into the last full window instead of standing alone.
class WindowClock {
 public:
  WindowClock(uint64_t start_ns, uint64_t window_ns)
      : start_ns_(start_ns), window_ns_(window_ns) {}
  bool Due(uint64_t now_ns) const { return now_ns - start_ns_ >= window_ns_; }
  // Closes the current window at `now_ns`, after `ops` ops in the phase.
  void Close(uint64_t now_ns, uint64_t ops);
  // Starts the next window `ns` later.
  void Skip(uint64_t ns) { start_ns_ += ns; }
  // Closes the tail and fills out->window_ops_per_s.
  void Finish(uint64_t now_ns, uint64_t ops, PhaseResult* out);

 private:
  uint64_t start_ns_;
  uint64_t window_ns_;
  uint64_t first_op_ = 0;
  std::vector<std::pair<uint64_t, uint64_t>> windows_;  // (ops, ns) per window.
};

// Aggregate CPU time counters of the machine (first line of /proc/stat).
struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTimes ReadCpuTimes();
// Share of CPU time the hypervisor stole between two readings.
double StealShare(const CpuTimes& a, const CpuTimes& b);

// Restricts the calling thread — and every thread it creates afterwards —
// to the lowest-numbered CPU it may run on. Returns that CPU, or -1 when the
// affinity cannot be read or set.
int ConfineToOneCpu();
// CPUs the calling thread may run on (0 if unknown).
int AllowedCpus();

// Threads of this process right now (from /proc/self/status; 0 if unknown).
int ProcessThreads();
// Peak resident set of this process in MiB (VmHWM; 0 if unknown).
double PeakRssMb();

}  // namespace fdpperf

#endif  // FDPPERF_SRC_PHASE_H_
