// QueuedDevice: the multi-queue-pair submission/completion pipeline every
// concrete device builds on.
//
// Models an NVMe controller's queue-pair structure in host software: the
// device owns N independent IoQueuePairs (each its own mutex-guarded SQ ring
// and completion table), Submit() routes a request to the queue pair named
// by IoRequest::qp (wrapped modulo N) and applies backpressure when that
// ring is full, and ONE dispatcher thread arbitrates across the SQs —
// round-robin by default, weighted-round-robin via IoQueueConfig weights,
// optionally serving reads ahead of queued writes within the selected QP's
// slot.
//
// Every popped request takes the same path:
//
//   dispatcher pop -> StartAsync (per-QP conflict tracker: issue, or park
//   behind an overlapping same-QP request) -> IssueAsync -> BeginExecute
//
//   BeginExecute is the one execution contract. A derived device with a real
//   kernel queue (UringFileDevice) overrides it to start the I/O there; the
//   base version hands the request to an execution lane when the device has
//   lanes (IoQueueConfig::exec_lanes > 0) and declines otherwise. A declined
//   request runs inline on the calling thread (the dispatcher, or the
//   completion context that promoted it).
//
//   exec_lanes == 0 over a blocking backend (sim, file): every request runs
//   inline on the dispatcher and retires before the next pop, so the
//   tracker never parks anything and execution is strict per-QP FIFO.
//
//   exec_lanes > 0: N lane worker threads, each a FIFO fed by die-affine
//   routing on the request offset (lane = offset / lane_stripe_bytes % N),
//   so independent byte ranges execute concurrently while the tracker keeps
//   overlapping same-QP requests in submission order.
//
// The SyncIo idle fast path bypasses all of it: an idle pipeline executes a
// blocking call directly on the caller's thread.
//
// Completions land in the owning QP's table keyed by token; tokens encode
// their queue pair, so Poll()/Wait() work from any thread on any token
// (cross-QP reaping is fine).
//
// Ordering: overlapping requests on the SAME queue pair retire in submission
// order; ordering across queue pairs is up to the arbiter. Concurrent
// submitters therefore still get a device that behaves like one NVMe SSD —
// which is what lets every ShardedCache shard share ONE simulated FDP device
// on its own queue pair and genuinely interleave placement streams on the
// same NAND geometry.
#ifndef SRC_NAVY_QUEUED_DEVICE_H_
#define SRC_NAVY_QUEUED_DEVICE_H_

#include <deque>
#include <memory>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/thread_annotations.h"
#include "src/navy/device.h"

namespace fdpcache {

// How the dispatcher picks the next submission queue to serve (NVMe command
// arbitration, Base spec §4.13).
enum class QueueArbitration : uint8_t {
  kRoundRobin,          // One request per QP per turn (NVMe RR).
  kWeightedRoundRobin,  // Up to weight[qp] consecutive requests per turn (NVMe WRR).
};

struct IoQueueConfig {
  // Per-queue-pair submission ring capacity; Submit() blocks (backpressure)
  // when the target QP has this many requests queued and not yet picked up
  // by the dispatcher.
  uint32_t sq_depth = 256;
  // Independent SQ/CQ pairs. 1 reproduces the single-queue PR 2 pipeline.
  uint32_t num_queue_pairs = 1;
  QueueArbitration arbitration = QueueArbitration::kRoundRobin;
  // Per-QP weights for kWeightedRoundRobin (missing/zero entries count as 1;
  // ignored under kRoundRobin).
  std::vector<uint32_t> wrr_weights;
  // Serve the first queued read of the selected QP ahead of earlier queued
  // writes/trims in that QP's slot (read latency over write throughput).
  // This relaxes per-QP FIFO for reads ONLY — safe for the cache engines,
  // which never issue a device read for an offset with an in-flight write
  // (in-flight LOC regions and pending SOC buckets are served from host
  // buffers) — and leaves write/trim relative order untouched.
  bool read_priority = false;
  // Execution lanes: worker threads behind the arbiter that run the
  // blocking backend ops. 0 = the dispatcher executes every popped request
  // inline (strict per-QP FIFO); N > 0 routes each popped request to one of
  // N lanes by offset stripe, with the conflict tracker keeping overlapping
  // same-QP requests in submission order.
  uint32_t exec_lanes = 0;
  // Die-affine stripe size for lane routing: lane = (offset /
  // lane_stripe_bytes) % exec_lanes. Pick the device's natural write unit
  // (region/RU size) so consecutive regions fan out across lanes the way
  // they fan out across dies. 0 falls back to the 256 KiB default.
  uint64_t lane_stripe_bytes = 256 * 1024;
  // Congestion window: cap on the bytes a queue pair may have outstanding
  // (queued or executing, counted from admission to completion). Submit()
  // holds excess requests at the door instead of letting a deep SQ convoy
  // the backend — the fix for the measured QD-64 throughput collapse, where
  // 64 queued 256 KiB writes per submitter serialized into one giant backlog
  // and p99 exploded without any throughput gain over QD 16. A request
  // larger than the whole window is still admitted once the QP is empty
  // (no starvation). 0 disables the window (ring depth alone gates).
  uint64_t qp_window_bytes = 4 * 1024 * 1024;
  // Completion-hook coalescing: fire the owner's completion hook (the
  // cache-tier poller wakeup) once per this many completions instead of per
  // completion, cutting cross-layer wakeup traffic at high cache-QD. The
  // device always flushes a partial batch when the pipeline goes idle — and
  // does so BEFORE releasing its last active slot, so the Drain() teardown
  // contract ("after Drain(), no hook invocation is in flight") still
  // holds. Per-token Wait()/Poll() waiters are woken per completion
  // regardless; only the hook is batched. 0 is treated as 1 (fire every
  // completion, the pre-batching behaviour).
  uint32_t completion_batch = 16;
};

// One arbitrated request on its way through the backend. `qp` is the
// normalized queue-pair index the request was popped from (what the
// completion needs to file the result into the right CQ).
struct ExecTask {
  CompletionToken token = kInvalidToken;
  IoRequest request;
  uint32_t qp = 0;
  // Wall-clock instant execution of a traced request began (0 = untraced);
  // CompleteTask turns it into the request's one device_execute span.
  uint64_t issue_ns = 0;
};

class QueuedDevice : public Device {
 public:
  explicit QueuedDevice(const IoQueueConfig& queue_config = IoQueueConfig{});
  ~QueuedDevice() override;

  QueuedDevice(const QueuedDevice&) = delete;
  QueuedDevice& operator=(const QueuedDevice&) = delete;

  CompletionToken Submit(const IoRequest& request) override;
  std::optional<IoResult> Poll(CompletionToken token) override;
  // Blocking reap. A token that is neither in flight nor parked (never
  // submitted, already reaped, kInvalidToken, or naming a queue pair this
  // device does not have) returns ok=false immediately instead of blocking
  // forever. Any thread may wait on any token regardless of which QP it was
  // submitted to.
  IoResult Wait(CompletionToken token) override;
  // Blocks until every submitted request on every queue pair has executed.
  void Drain() override;
  uint32_t InFlight() const override;

  // Synchronous I/O fast path: when the whole pipeline is idle the calling
  // thread executes the request inline — no tokens, no dispatcher handoff —
  // which keeps single-threaded callers of the Write/Read/Trim shim at
  // direct-call cost. Requests submitted by other threads while an inline
  // execution is in progress may run concurrently against the backend (the
  // backends are thread-safe); same-caller ordering is unaffected.
  IoResult SyncIo(const IoRequest& request) override;

  uint32_t num_queue_pairs() const override {
    return static_cast<uint32_t>(qps_.size());
  }
  std::vector<QueuePairStats> PerQueuePairStats() const override;
  // Per-lane dispatch/busy/queue-depth stats; empty when the device runs no
  // execution lanes.
  std::vector<LaneStats> PerLaneStats() const override;
  void ResetStats() override;

  const IoQueueConfig& queue_config() const { return queue_config_; }

 protected:
  // Blocking backend ops: run by a lane worker, inline by the dispatcher or
  // a completion context for declined requests, or inline by SyncIo.
  // Implementations validate alignment/bounds themselves, report failures
  // through IoResult::ok, and must tolerate concurrent calls.
  virtual IoResult ExecuteWrite(uint64_t offset, const void* data, uint64_t size,
                                PlacementHandle handle) = 0;
  virtual IoResult ExecuteRead(uint64_t offset, void* out, uint64_t size) = 0;
  virtual IoResult ExecuteTrim(uint64_t offset, uint64_t size) = 0;

  // Starts one popped request without blocking. The contract:
  //
  //   - Called once per issued request, from the dispatcher thread or from a
  //     completion context whose retirement unblocked a parked request —
  //     implementations must tolerate concurrent calls and must never block
  //     (a completion context waiting on itself would deadlock).
  //   - Returning true means the request was taken and CompleteTask(task,
  //     result) WILL be called exactly once later, from any thread.
  //     Returning false declines it: the pipeline executes it synchronously
  //     via ExecuteWrite/Read/Trim on the calling thread.
  //   - The per-QP overlap-ordering guarantee is enforced by the caller, not
  //     here: a request reaches BeginExecute only once every overlapping
  //     same-QP request ahead of it has retired.
  //
  // This version hands the task to its die-affine execution lane when the
  // device has lanes and declines otherwise. Overrides (a kernel ring) call
  // it for requests their own engine declines.
  virtual bool BeginExecute(const ExecTask& task);

  // Publishes one executed request: device_execute span, aggregate + per-QP
  // stats, CQ insert, waiter wakeups, window credit, deferred-conflict
  // promotion, completion hook, and the global active_ decrement — the one
  // completion routine every execution path shares.
  void CompleteTask(const ExecTask& task, const IoResult& result);

  // Starts `count` execution lanes on a device that has none. For derived
  // constructors only, before any request is submitted (the ring-less
  // UringFileDevice gets its worker pool this way).
  void StartLanes(uint32_t count);

  // Stops the dispatcher after it finishes everything already submitted,
  // waits out executions still in flight on lanes or a derived engine, then
  // joins the lanes. Every derived destructor MUST call this first (before
  // tearing down its own reaper), so no pipeline thread can call into a
  // partially-destroyed derived class. Idempotent.
  void StopQueue();

 private:
  struct Pending {
    CompletionToken token = kInvalidToken;
    IoRequest request;
    // Submit() wall-clock timestamp when the request is traced (0 otherwise);
    // PopNext turns it into the request's sq_wait span.
    uint64_t submit_ns = 0;
  };

  // One NVMe-style queue pair: SQ ring + completion table + per-QP stats,
  // all guarded by the QP's own mutex so submitters on different queue pairs
  // never contend. The rank minor is the QP index: sweeps that hold several
  // QP locks at once (ResetStats) must take them in ascending index order.
  struct IoQueuePair {
    explicit IoQueuePair(uint32_t index)
        : mu(lock_rank::Make(lock_rank::kQueuePair, index), "qp") {}

    mutable fdp::Mutex mu;
    fdp::CondVar space_cv;     // Ring space freed.
    fdp::CondVar complete_cv;  // A completion landed.
    std::deque<Pending> sq GUARDED_BY(mu);
    std::unordered_map<CompletionToken, IoResult> cq GUARDED_BY(mu);
    // Tokens submitted and not yet completed (queued or executing); lets
    // Wait() distinguish "still in flight" from "never existed / reaped".
    std::unordered_set<CompletionToken> outstanding GUARDED_BY(mu);
    // Bytes admitted and not yet completed — the congestion-window meter
    // (see IoQueueConfig::qp_window_bytes). Charged in Submit, credited in
    // CompleteTask; the SyncIo fast path bypasses it.
    uint64_t outstanding_bytes GUARDED_BY(mu) = 0;
    uint64_t next_seq GUARDED_BY(mu) = 1;  // Low bits of the next token.
    QueuePairStats stats GUARDED_BY(mu);
  };

  // Tokens encode their queue pair in the high bits so Poll()/Wait() route
  // without a global table: token = (qp << kQpShift) | seq, seq >= 1.
  static constexpr uint32_t kQpShift = 48;
  static uint32_t QpOfToken(CompletionToken token) {
    return static_cast<uint32_t>(token >> kQpShift);
  }

  // Per-QP conflict-tracker state: requests issued and not yet retired, plus
  // the FIFO of requests parked behind a same-QP overlap.
  struct QpTracker {
    std::vector<ExecTask> inflight;
    std::deque<ExecTask> deferred;
    uint64_t defers = 0;  // Total requests that had to park (monotonic).
  };

  // One execution lane: a FIFO of handed-off tasks and the worker that
  // drains it. The hand-off never blocks (the queue is unbounded; the
  // per-QP ring and congestion window bound what can be outstanding). The
  // lane lock is a leaf: never held across Execute or CompleteTask.
  struct Lane {
    explicit Lane(uint32_t index) : mu(lock_rank::Make(lock_rank::kLane, index), "lane") {}

    mutable fdp::Mutex mu;
    fdp::CondVar work_cv;  // Task queued / stop requested.
    std::deque<ExecTask> queue GUARDED_BY(mu);
    LaneStats stats GUARDED_BY(mu);
    bool stop GUARDED_BY(mu) = false;
    std::thread worker;
  };

  uint32_t WeightOf(uint32_t qp_index) const;
  // Arbitration step: pops the next request across all SQs into `*out`.
  // Returns false only when every ring is empty.
  bool PopNext(Pending* out, uint32_t* out_qp);
  // Admission predicate for Submit: ring space AND congestion-window
  // headroom for this request.
  bool AdmissibleLocked(const IoQueuePair& qp, const IoRequest& request) const REQUIRES(qp.mu);
  void RecordQpCompletion(IoQueuePair& qp, const IoRequest& request, const IoResult& result)
      REQUIRES(qp.mu);
  IoResult Execute(const IoRequest& request);
  // The same-QP ordering rule: two requests conflict when their byte ranges
  // overlap and at least one of them is not a read.
  static bool Conflicts(const IoRequest& a, const IoRequest& b);
  // True when `request` conflicts with an in-flight request of `tracker` or
  // with a parked one ahead of `deferred_end` — a request never jumps an
  // older overlapping one.
  static bool BlockedLocked(const QpTracker& tracker, const IoRequest& request,
                            std::deque<ExecTask>::const_iterator deferred_end);
  // Tracker admission: registers the popped task as in flight and issues it
  // via IssueAsync, or parks it behind a conflicting same-QP request;
  // parked tasks are re-admitted by RetireAsync as their blockers complete.
  void StartAsync(ExecTask task);
  // BeginExecute with the synchronous fallback for declined requests.
  void IssueAsync(ExecTask task);
  // Removes a retired request from the tracker and issues every parked
  // request the retirement unblocked (FIFO, skipping none that are still
  // conflicted).
  void RetireAsync(const ExecTask& task);
  void DispatcherLoop();
  void LaneLoop(Lane* lane);

  const IoQueueConfig queue_config_;
  std::vector<std::unique_ptr<IoQueuePair>> qps_;

  // Global pipeline accounting for the dispatcher wakeup, Drain(),
  // InFlight(), and the SyncIo idle check. The submit fast path stays off
  // mu_: queued_total_ is atomic and Submit only takes mu_ (to notify) when
  // dispatcher_idle_ says the dispatcher may be asleep — both seq_cst, so a
  // dispatcher that observed an empty pipeline before blocking is always
  // seen as idle by the submitter that made it non-empty. mu_ and qp.mu are
  // never held together, but mu_ ranks after kQueuePair so a future nesting
  // could only go qp -> pipeline.
  mutable fdp::Mutex mu_{lock_rank::Make(lock_rank::kDevicePipeline), "device_pipeline"};
  fdp::CondVar work_cv_;  // Work submitted / stop requested.
  fdp::CondVar idle_cv_;  // An execution finished.
  std::atomic<uint32_t> queued_total_{0};
  std::atomic<bool> dispatcher_idle_{false};  // Set under mu_ around the wait.
  // Requests popped and not yet retired (issued, parked, or executing) plus
  // inline SyncIo executions.
  uint32_t active_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
  bool stopped_ GUARDED_BY(mu_) = false;

  // Completions published but not yet announced through the completion
  // hook; flushed by whichever completion reaches the batch size or leaves
  // the pipeline idle (see IoQueueConfig::completion_batch).
  std::atomic<uint32_t> unhooked_completions_{0};

  // Arbitration cursor; touched only by the dispatcher thread.
  uint32_t arb_qp_ = 0;
  uint32_t arb_credit_ = 0;

  // The per-QP conflict tracker. Never held across a BeginExecute/Execute
  // call.
  mutable fdp::Mutex async_mu_{lock_rank::Make(lock_rank::kDeviceAsync), "device_async"};
  std::vector<QpTracker> trackers_ GUARDED_BY(async_mu_);

  // Execution lanes (empty: declined requests run inline). Written only
  // before the first Submit; joined by StopQueue once nothing is active.
  std::vector<std::unique_ptr<Lane>> lanes_;

  std::thread dispatcher_;
};

}  // namespace fdpcache

#endif  // SRC_NAVY_QUEUED_DEVICE_H_
