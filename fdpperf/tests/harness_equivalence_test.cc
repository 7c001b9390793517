// Harness-equivalence self-test.
//
// The benchmark's blocking client loop (ClientBench, window 1) must reproduce
// ExperimentRunner::Run() — the paper harness behind `fdpbench --qd=1` and
// the figure benches — exactly: same DLWA, ALWA, hit ratio, measured op
// count and p99 device read/write latency, on the kv-read and
// twitter-write-gc deployments reduced to a 128 MiB device, with the same
// seed. The exact-sample virtual percentiles the benchmark reports must
// agree with the harness's bucketed histograms to within bucket error.
//
// Exit status 0 when every check holds; 1 otherwise.
#include <cmath>
#include <cstdio>
#include <string>

#include "src/client_bench.h"
#include "src/harness/experiment.h"
#include "src/layers.h"
#include "src/workloads.h"

namespace fdpperf {
namespace {

int failures = 0;

void Check(const char* name, const char* what, bool ok, double expected, double actual) {
  std::printf("%-18s %-22s %s  harness=%.9g bench=%.9g\n", name, what, ok ? "ok  " : "FAIL",
              expected, actual);
  if (!ok) {
    ++failures;
  }
}

double ExactP99Us(std::vector<uint64_t> ns) {
  std::vector<double> values(ns.begin(), ns.end());
  return Percentile(&values, 99) / 1e3;
}

void RunCase(const char* name, fdpcache::ExperimentConfig config) {
  config.num_superblocks = 64;  // 128 MiB device.

  fdpcache::ExperimentRunner runner(config);
  const fdpcache::MetricsReport report = runner.Run();

  ClientBench bench(config, /*stream_ops=*/1 << 20);
  const PhaseResult r = bench.Run(PhasePlan{});
  const LayerDelta prefix{r.begin, r.prefix_end};
  const uint64_t p99_read = r.prefix_end.device.read_latency_ns.Percentile(99);
  const uint64_t p99_write = r.prefix_end.device.write_latency_ns.Percentile(99);

  Check(name, "measured ops", report.ops_executed == r.prefix_ops,
        static_cast<double>(report.ops_executed), static_cast<double>(r.prefix_ops));
  Check(name, "dlwa", report.final_dlwa == prefix.Dlwa(), report.final_dlwa, prefix.Dlwa());
  Check(name, "alwa", report.alwa == prefix.Alwa(), report.alwa, prefix.Alwa());
  Check(name, "hit_ratio", report.hit_ratio == prefix.HitRatio(), report.hit_ratio,
        prefix.HitRatio());
  Check(name, "p99 read ns", report.p99_read_ns == p99_read,
        static_cast<double>(report.p99_read_ns), static_cast<double>(p99_read));
  Check(name, "p99 write ns", report.p99_write_ns == p99_write,
        static_cast<double>(report.p99_write_ns), static_cast<double>(p99_write));
  Check(name, "virtual elapsed ns", report.elapsed_virtual_ns == prefix.velapsed_ns(),
        static_cast<double>(report.elapsed_virtual_ns), static_cast<double>(prefix.velapsed_ns()));

  // Exact-sample p99 vs the bucketed histogram: within two buckets (~3.2%).
  const double exact_read = ExactP99Us(r.vread_ns);
  const double exact_write = ExactP99Us(r.vwrite_ns);
  Check(name, "exact p99 read us",
        std::fabs(exact_read - p99_read / 1e3) <= 0.032 * (p99_read / 1e3),
        p99_read / 1e3, exact_read);
  Check(name, "exact p99 write us",
        std::fabs(exact_write - p99_write / 1e3) <= 0.032 * (p99_write / 1e3),
        p99_write / 1e3, exact_write);
  Check(name, "value mismatches", r.mismatches == 0, 0, static_cast<double>(r.mismatches));
}

}  // namespace
}  // namespace fdpperf

int main() {
  using fdpperf::DeploymentFor;
  using fdpperf::WorkloadKind;
  fdpcache::ExperimentConfig kv = DeploymentFor(WorkloadKind::kKvRead, 7, 0);
  kv.total_ops = 30'000;
  fdpperf::RunCase("kv-read", kv);
  fdpperf::RunCase("twitter-write-gc", DeploymentFor(WorkloadKind::kTwitterWriteGc, 7, 0));
  std::printf("%s (%d failed check%s)\n", fdpperf::failures == 0 ? "PASS" : "FAIL",
              fdpperf::failures, fdpperf::failures == 1 ? "" : "s");
  return fdpperf::failures == 0 ? 0 : 1;
}
