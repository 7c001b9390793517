// Turns measured phases into the benchmark's named metrics and prints them.
#ifndef FDPPERF_SRC_REPORT_H_
#define FDPPERF_SRC_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/phase.h"

namespace fdpperf {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

using Metrics = std::vector<Metric>;

// Correctness accounting of measured phases, together.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = false;
  std::string detail;
};
Outcome Judge(const std::vector<PhaseResult>& runs);

// The end-to-end metrics of an untraced run: each is the median of its
// values on the run's stacks, except ok_ratio (over all of their ops),
// setup_s (median of `setup_s`, each stack's set-up wall time) and
// peak_rss_mb (the process). The wall-clock ones are scaled from
// `host_speed` (HostGauge::speed) to host speed 1.
Metrics EndToEnd(const std::vector<PhaseResult>& stacks, const std::vector<double>& setup_s,
                 double host_speed);

// The gauge's probes, and the wall metrics of `scaled` (EndToEnd's result)
// as they were measured.
void PrintHostGauge(const HostGauge& gauge, const Metrics& scaled);

// The per-layer metrics of a traced run. The tracing overhead compares the
// best ops/s of the traced and of the untraced runs of the same workload.
Metrics PerLayer(const PhaseResult& traced, double untraced_ops_per_s, double traced_ops_per_s);

// Median of the per-window ops/s.
double OpsPerSecond(const PhaseResult& r);

// Human-readable breakdown of a traced run (self time per layer, the
// unattributed remainder, and the virtual-clock ssd/ftl/nand split).
void PrintLayerTable(const PhaseResult& traced, const Metrics& per_layer);

// Percentile sample counts of a run, one line.
void PrintSampleCounts(const PhaseResult& r);

// The result line: {"correct", "attempted", "failed", "metrics"}.
void PrintResultJson(const Outcome& outcome, const Metrics& metrics);

}  // namespace fdpperf

#endif  // FDPPERF_SRC_REPORT_H_
