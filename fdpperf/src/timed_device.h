// TimedDevice: the benchmark's Device decorator, placed between NavyCache
// and the SimSsdDevice it would otherwise call directly.
//
// Every call is forwarded unchanged (SyncIo stays SyncIo, so the inner
// device keeps its idle inline fast path). On the way through it:
//
//  * counts device commands and their bytes (always on; relaxed atomics),
//  * keeps the exact virtual-clock latency of every successful read and
//    write (IoResult::latency_ns) while virtual sampling is on — exact
//    values rather than a bucketed histogram, so percentiles keep every
//    digit,
//  * records a span around every call while the span recorder is enabled,
//    and, for asynchronously submitted commands, the wall time from Submit
//    to the Poll/Wait that reaped it.
#ifndef FDPPERF_SRC_TIMED_DEVICE_H_
#define FDPPERF_SRC_TIMED_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/navy/device.h"

namespace fdpperf {

class TimedDevice final : public fdpcache::Device {
 public:
  struct Counters {
    uint64_t commands = 0;  // Submit + SyncIo calls.
    uint64_t read_bytes = 0;
    uint64_t write_bytes = 0;
    uint64_t failed = 0;  // Completions reaped with ok == false.
  };

  // `inner` must outlive this device.
  explicit TimedDevice(fdpcache::Device* inner) : inner_(inner) {}

  fdpcache::CompletionToken Submit(const fdpcache::IoRequest& request) override;
  std::optional<fdpcache::IoResult> Poll(fdpcache::CompletionToken token) override;
  fdpcache::IoResult Wait(fdpcache::CompletionToken token) override;
  void Drain() override;
  uint32_t InFlight() const override { return inner_->InFlight(); }
  fdpcache::IoResult SyncIo(const fdpcache::IoRequest& request) override;

  uint64_t size_bytes() const override { return inner_->size_bytes(); }
  uint64_t page_size() const override { return inner_->page_size(); }
  fdpcache::FdpCapabilities QueryFdp() const override { return inner_->QueryFdp(); }
  uint32_t NumPlacementHandles() const override { return inner_->NumPlacementHandles(); }
  uint32_t num_queue_pairs() const override { return inner_->num_queue_pairs(); }
  std::vector<fdpcache::QueuePairStats> PerQueuePairStats() const override {
    return inner_->PerQueuePairStats();
  }
  std::vector<fdpcache::LaneStats> PerLaneStats() const override {
    return inner_->PerLaneStats();
  }
  void ResetStats() override { inner_->ResetStats(); }

  Counters counters() const;

  // Exact virtual latencies of successful reads/writes completed while
  // sampling is on.
  void SetVirtualSampling(bool on) { sample_virtual_.store(on, std::memory_order_relaxed); }
  std::vector<uint64_t> virtual_read_ns() const;
  std::vector<uint64_t> virtual_write_ns() const;

  // Wall Submit -> reap times of async commands, recorded while the span
  // recorder is enabled.
  std::vector<uint64_t> submit_to_reap_ns() const;

 private:
  void Account(const fdpcache::IoRequest& request);
  void Complete(fdpcache::IoOp op, const fdpcache::IoResult& result);
  void Reaped(fdpcache::CompletionToken token, const fdpcache::IoResult& result);

  fdpcache::Device* inner_;

  std::atomic<uint64_t> commands_{0};
  std::atomic<uint64_t> read_bytes_{0};
  std::atomic<uint64_t> write_bytes_{0};
  std::atomic<uint64_t> failed_{0};

  std::atomic<bool> sample_virtual_{false};
  mutable std::mutex samples_mu_;
  std::vector<uint64_t> virtual_read_ns_;
  std::vector<uint64_t> virtual_write_ns_;

  // The client op that submitted `token` (0 if unknown), for reap spans on
  // other threads.
  uint64_t OpOf(fdpcache::CompletionToken token) const;

  struct Inflight {
    uint64_t submit_ns = 0;
    uint64_t op_id = 0;
    fdpcache::IoOp op = fdpcache::IoOp::kRead;
  };
  mutable std::mutex tokens_mu_;
  std::unordered_map<fdpcache::CompletionToken, Inflight> inflight_;
  std::vector<uint64_t> submit_to_reap_ns_;
};

}  // namespace fdpperf

#endif  // FDPPERF_SRC_TIMED_DEVICE_H_
