// fdpperf_bench: one workload run of the fdpcache benchmark.
//
//   fdpperf_bench --workload=kv-read|twitter-write-gc|kv-async --seed=N
//                 --seconds=S --trace=0|1 [--commit=ID] [--out-dir=DIR]
//
// --trace=0 builds and measures the workload's stacks in turn, each with its
// own seed derived from N, and prints the end-to-end metrics: the median of
// each over the stacks (set-up time: the median of the stacks' set-ups),
// the wall-clock ones scaled to host speed 1 (see HostGauge).
// --trace=1 measures fresh stacks alternately untraced and traced (two of
// each, for a quarter of the seconds each), prints the per-layer breakdown of the
// last traced one and the tracing overhead (best traced vs best untraced
// ops/s), and writes its spans to DIR/spans-<workload>.csv.
//
// The last line of standard output is the JSON result; the process exits 1
// when any output failed verification and 2 on bad arguments.
#include <sys/stat.h>
#include <sys/utsname.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/client_bench.h"
#include "src/report.h"
#include "src/spans.h"
#include "src/workloads.h"

namespace fdpperf {
namespace {

// Untraced/traced pairs of a traced run, for the tracing overhead.
constexpr int kOverheadPairs = 2;
// Spans of one client op in this many are written out (all are aggregated).
constexpr uint64_t kSpanWriteSample = 16;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  std::string out_dir = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    }
    if (arg == "--workload") {
      args->workload = value;
    } else if (arg == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      args->trace = value == "1";
    } else if (arg == "--commit") {
      args->commit = value;
    } else if (arg == "--out-dir") {
      args->out_dir = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return false;
    }
  }
  return FindWorkload(args->workload) != nullptr && args->seconds >= 1;
}

std::unique_ptr<ClientBench> Build(const fdpcache::ExperimentConfig& config, double seconds) {
  return std::make_unique<ClientBench>(
      config, static_cast<size_t>(std::max(seconds * kStreamOpsPerSecond, kMinStreamOps)));
}

void PrintMetadata(const Args& args, const WorkloadSpec& spec) {
  utsname uts{};
  uname(&uts);
  std::printf("# fdpperf workload=%s seed=%llu seconds=%g trace=%d commit=%s nproc=%u "
              "kernel=%s compiler=\"%s\"\n",
              spec.name, static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.commit.c_str(), std::thread::hardware_concurrency(),
              uts.release, __VERSION__);
  std::printf("# why: %s\n", spec.why);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: fdpperf_bench --workload=kv-read|twitter-write-gc|kv-async "
                 "--seed=N --seconds=S(>=1) --trace=0|1 [--commit=ID] [--out-dir=DIR]\n");
    return 2;
  }
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  PrintMetadata(args, spec);
  // An untraced run splits its seconds among its stacks: stacks built
  // seconds apart in one process differ in wall speed by up to a quarter
  // (63k-80k ops/s across 6 stacks of one twitter-write-gc process; 49k-72k
  // on kv-async, whose client and dispatcher threads hand every flash op to
  // each other), about as much as whole runs do, while the windows of one
  // stack's phase agree far better, so the median over stacks is what
  // steadies a run. A traced run splits its seconds among its phases.
  const double phase_seconds =
      args.trace ? args.seconds / (2 * kOverheadPairs) : args.seconds / spec.stacks;
  PhasePlan plan;
  plan.seconds = phase_seconds;

  std::vector<PhaseResult> runs;  // Every measured phase, in order.
  Metrics metrics;
  if (!args.trace) {
    // The async client, its device dispatcher threads and the gauge's
    // handoff partner share one CPU (see ClientBench).
    const bool async_client =
        DeploymentFor(spec.kind, args.seed, phase_seconds).cache_queue_depth > 1;
    if (async_client) {
      ConfineToOneCpu();
    }
    HostGauge gauge(async_client);
    plan.gauge = &gauge;
    std::vector<double> setup_s;
    for (int i = 0; i < spec.stacks; ++i) {
      const uint64_t stack_seed = args.seed * spec.stacks + static_cast<uint64_t>(i);
      gauge.Sample();
      const uint64_t t0 = NowNs();
      std::unique_ptr<ClientBench> bench =
          Build(DeploymentFor(spec.kind, stack_seed, phase_seconds), phase_seconds);
      setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
      runs.push_back(bench->Run(plan));
    }
    metrics = EndToEnd(runs, setup_s, gauge.speed());
    PrintHostGauge(gauge, metrics);
  } else {
    const fdpcache::ExperimentConfig config = DeploymentFor(spec.kind, args.seed, phase_seconds);
    std::vector<double> untraced_rates;
    std::vector<double> traced_rates;
    for (int i = 0; i < kOverheadPairs; ++i) {
      plan.trace = false;
      runs.push_back(Build(config, phase_seconds)->Run(plan));
      untraced_rates.push_back(OpsPerSecond(runs.back()));
      plan.trace = true;
      runs.push_back(Build(config, phase_seconds)->Run(plan));
      traced_rates.push_back(OpsPerSecond(runs.back()));
    }
    const PhaseResult& result = runs.back();
    const double best_untraced = *std::max_element(untraced_rates.begin(), untraced_rates.end());
    const double best_traced = *std::max_element(traced_rates.begin(), traced_rates.end());
    std::printf("# ops/s, alternating untraced/traced runs:");
    for (int i = 0; i < kOverheadPairs; ++i) {
      std::printf(" %.0f/%.0f", untraced_rates[i], traced_rates[i]);
    }
    std::printf(" (overhead = 1 - best traced / best untraced)\n");
    metrics = PerLayer(result, best_untraced, best_traced);
    PrintLayerTable(result, metrics);
    ::mkdir(args.out_dir.c_str(), 0755);
    const std::string path = args.out_dir + "/spans-" + spec.name + ".csv";
    if (SpanRecorder::Instance().WriteCsv(path, kSpanWriteSample)) {
      std::printf("# spans of 1 in %llu ops written to %s\n",
                  static_cast<unsigned long long>(kSpanWriteSample), path.c_str());
    }
  }
  const Outcome outcome = Judge(runs);
  for (size_t i = 0; i < runs.size(); ++i) {
    const PhaseResult& r = runs[i];
    std::printf("# phase %zu of %zu:%s\n", i + 1, runs.size(),
                r.stream_exhausted ? " the pre-generated op stream ran out; it ended early" : "");
    std::printf("# threads during measured phase: %d on %d allowed CPU(s) (nproc %u)\n",
                r.threads, AllowedCpus(), std::thread::hardware_concurrency());
    PrintSampleCounts(r);
  }
  std::printf("# verification: %s -> %s\n", outcome.detail.c_str(),
              outcome.correct ? "correct" : "INCORRECT");
  PrintResultJson(outcome, metrics);
  return outcome.correct ? 0 : 1;
}

}  // namespace
}  // namespace fdpperf

int main(int argc, char** argv) { return fdpperf::Main(argc, argv); }
