// The benchmark's client: one thread driving one HybridCache over one
// simulated SSD (every workload).
//
// Builds the same stack ExperimentRunner builds for one simulated-SSD
// tenant, from public classes — SimulatedSsd, SimSsdDevice, HybridCache —
// with the TimedDevice decorator between the cache and the device, and runs
// the same op loop: advance the virtual clock by the modelled host CPU cost,
// issue the op, fill on a miss, apply device backpressure.
//
// The client's window is `config.cache_queue_depth`:
//
//  * 1 — blocking Set/Get/Remove. Device I/O takes the SyncIo fast path. The
//    deterministic prefix is, op for op, the measured phase of
//    ExperimentRunner::Run() for the same ExperimentConfig; the
//    harness-equivalence self-test holds it to that.
//
//  * N > 1 — LookupAsync/InsertAsync/RemoveAsync with up to N ops
//    outstanding, flash writes pipelined through the device queue pair (the
//    ShardedSimBackend defaults), and completions pumped by the client
//    thread (HybridCache::PumpAsync) while its window is full, as
//    ExperimentRunner does at cache-QD N. Flash reads and writes go Submit
//    -> device dispatcher thread -> Poll/Wait, so the queue-pair pipeline
//    and async completion delivery are on the measured path. A Get that
//    misses issues its fill InsertAsync from its callback. The dispatcher
//    runs beside the client, so the virtual-clock metrics are steady but
//    not bit-reproducible.
#ifndef FDPPERF_SRC_CLIENT_BENCH_H_
#define FDPPERF_SRC_CLIENT_BENCH_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/cache/hybrid_cache.h"
#include "src/client_data.h"
#include "src/common/clock.h"
#include "src/harness/experiment.h"
#include "src/navy/placement.h"
#include "src/navy/sim_ssd_device.h"
#include "src/phase.h"
#include "src/ssd/ssd.h"
#include "src/timed_device.h"

namespace fdpperf {

enum class OpKind : uint8_t { kGet, kSet, kFill, kRemove };

class ClientBench {
 public:
  // Builds the stack, fills it (warm-up), and pre-generates `stream_ops`
  // ops of the measured phase plus their key strings and value templates —
  // the whole set-up. Reads only the backend-independent, user-facing
  // fields of `config` (device geometry, FDP, GC mode, deployment, workload,
  // run length, client window); the measured prefix is `config.total_ops`
  // ops, or, when `config.overwrite_passes` > 0, ExperimentRunner's
  // overwrite-pass rule. Throws when the stream is shorter than the prefix.
  ClientBench(const fdpcache::ExperimentConfig& config, size_t stream_ops);
  ~ClientBench();

  // Measures one phase (see PhasePlan).
  PhaseResult Run(const PhasePlan& plan);

  StackView view();

 private:
  // One async op in flight (window > 1).
  struct Slot {
    ClientBench* bench = nullptr;
    OpKind kind = OpKind::kGet;
    uint64_t key_id = 0;
    uint32_t version = 0;  // Written (Set/fill) or expected (Get).
    uint32_t value_size = 0;
    uint64_t op_id = 0;
    uint64_t start_ns = 0;
    Slot* next_free = nullptr;
  };

  void Execute(const fdpcache::Op& op, uint64_t op_id);
  void ExecuteAsync(const fdpcache::Op& op, uint64_t op_id);
  void Issue(Slot* slot);
  void Completed(Slot* slot, const fdpcache::AsyncResult& result);
  Slot* AcquireSlot();
  void ReleaseSlot(Slot* slot);
  // Pumps completions until fewer than the window's ops are outstanding.
  void PumpWindow();
  // Completes every outstanding async op and retires pipelined writes;
  // false when a flush barrier failed.
  bool Barrier();
  void MaybeBackpressure();
  uint64_t HostBytesWritten() const;
  bool PrefixDone(uint64_t executed, uint64_t written) const;

  fdpcache::ExperimentConfig config_;
  uint32_t window_ = 1;
  fdpcache::VirtualClock clock_;
  std::unique_ptr<fdpcache::SimulatedSsd> ssd_;
  std::unique_ptr<fdpcache::PlacementHandleAllocator> allocator_;
  std::unique_ptr<fdpcache::SimSsdDevice> device_;
  std::unique_ptr<TimedDevice> boundary_;
  std::unique_ptr<fdpcache::HybridCache> cache_;
  std::unique_ptr<fdpcache::KvTraceGenerator> generator_;
  std::unique_ptr<KeyTable> keys_;
  std::unique_ptr<ValueTemplates> templates_;
  std::unique_ptr<PregenOps> stream_;
  std::vector<uint32_t> versions_;  // Last acknowledged version per key; 0 = absent.
  std::string value_buf_;
  std::deque<Slot> slots_;  // Grows only when every slot is in use.
  Slot* free_slots_ = nullptr;
  Slot* issuing_slot_ = nullptr;  // The op whose cache call is on the stack.
  uint64_t warmup_mismatches_ = 0;
  uint64_t warmup_failed_ops_ = 0;
  uint64_t warmup_flush_failures_ = 0;
  uint64_t num_keys_ = 0;
  uint64_t cache_bytes_ = 0;
  uint64_t logical_bytes_ = 0;

  // The phase being measured (or the warm-up's scratch result).
  PhaseResult* out_ = nullptr;
  bool classify_ = false;
  bool fill_misses_ = true;            // Cleared at the end of the phase.
  uint64_t deadline_ns_ = UINT64_MAX;  // Completions after it are not measured.
  uint64_t completed_ = 0;             // Async client ops completed in the phase.
};

// The SSD configuration ExperimentRunner derives from an ExperimentConfig.
fdpcache::SsdConfig MakeSsdConfig(const fdpcache::ExperimentConfig& config);
// ExperimentRunner's key-space sizing: ~0.9 x logical capacity of items.
uint64_t AutoNumKeys(const fdpcache::ExperimentConfig& config, uint64_t logical_bytes);

}  // namespace fdpperf

#endif  // FDPPERF_SRC_CLIENT_BENCH_H_
