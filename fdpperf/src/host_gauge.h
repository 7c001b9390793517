// HostGauge: how fast the shared host runs the stack's kind of work now.
//
// The benchmark runs on a few vCPUs of a host shared with other guests.
// Their load moves the memory latency and the cost of a thread handoff this
// guest sees by a third within minutes, and every wall metric of a run
// moves with them, in the same direction; the hypervisor steals almost no
// CPU time. The gauge times a fixed probe that does not depend on the
// program under test, before each set-up and once per wall window of each
// measured phase while no client op is in flight:
//
//  * always, a dependent pointer chase through a 64 MiB random cycle — DRAM
//    latency, which bounds the stack's index, item and simulated-NAND
//    accesses;
//  * with `handoffs` (the async client, whose every flash op passes between
//    it and the device dispatcher thread on one CPU), also round trips
//    between the probing thread and a partner thread on the same CPU(s).
//
// speed() is the reference probe time over the run's median probe time.
// The benchmark reports its wall metrics at speed 1 (throughput / speed,
// times x speed): a change of the program moves them one for one, a change
// of the host much less.
#ifndef FDPPERF_SRC_HOST_GAUGE_H_
#define FDPPERF_SRC_HOST_GAUGE_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace fdpperf {

class HostGauge {
 public:
  // Probe times at speed 1, about the medians on a 4-vCPU Intel Xeon KVM
  // guest at 2.1 GHz with the chase's memory on transparent huge pages (as
  // run.py sets the allocator up): the chase, and the handoff round trips.
  static constexpr double kChaseReferenceNs = 3.0e6;
  static constexpr double kHandoffReferenceNs = 2.5e6;

  // Builds the cycle (under a second; not part of any timed span). With
  // `handoffs`, the partner thread starts here and shares the caller's CPUs.
  explicit HostGauge(bool handoffs);
  ~HostGauge();
  HostGauge(const HostGauge&) = delete;
  HostGauge& operator=(const HostGauge&) = delete;

  // Times one probe.
  void Sample();

  // Reference probe time / median probe time (1 before the first probe).
  double speed() const;
  double reference_ns() const;
  const std::vector<double>& samples_ns() const { return samples_ns_; }

 private:
  void Partner();

  std::vector<uint32_t> next_;
  uint32_t at_ = 0;
  std::vector<double> samples_ns_;

  const bool handoffs_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool partner_turn_ = false;  // Guarded by mu_.
  bool stop_ = false;          // Guarded by mu_.
  std::thread partner_;
};

}  // namespace fdpperf

#endif  // FDPPERF_SRC_HOST_GAUGE_H_
