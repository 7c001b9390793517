#include "src/navy/queued_device.h"

#include "src/obs/trace.h"

namespace fdpcache {
namespace {

IoQueueConfig Normalize(IoQueueConfig config) {
  // Tokens reserve the bits above kQpShift (16 of 64) for the queue-pair
  // index; more queue pairs than that would alias tokens across QPs and
  // break Poll/Wait routing.
  constexpr uint32_t kMaxQueuePairs = 1u << 16;
  if (config.sq_depth == 0) {
    config.sq_depth = 1;
  }
  if (config.num_queue_pairs == 0) {
    config.num_queue_pairs = 1;
  }
  if (config.num_queue_pairs > kMaxQueuePairs) {
    config.num_queue_pairs = kMaxQueuePairs;
  }
  config.wrr_weights.resize(config.num_queue_pairs, 1);
  for (uint32_t& weight : config.wrr_weights) {
    if (weight == 0) {
      weight = 1;
    }
  }
  if (config.lane_stripe_bytes == 0) {
    config.lane_stripe_bytes = 256 * 1024;
  }
  if (config.completion_batch == 0) {
    config.completion_batch = 1;
  }
  // Each lane is a real thread; cap the count so a config typo cannot fork
  // thousands of workers.
  constexpr uint32_t kMaxExecLanes = 256;
  if (config.exec_lanes > kMaxExecLanes) {
    config.exec_lanes = kMaxExecLanes;
  }
  return config;
}

}  // namespace

QueuedDevice::QueuedDevice(const IoQueueConfig& queue_config)
    : queue_config_(Normalize(queue_config)) {
  qps_.reserve(queue_config_.num_queue_pairs);
  for (uint32_t i = 0; i < queue_config_.num_queue_pairs; ++i) {
    qps_.push_back(std::make_unique<IoQueuePair>(i));
  }
  trackers_.resize(queue_config_.num_queue_pairs);
  arb_credit_ = WeightOf(0);
  StartLanes(queue_config_.exec_lanes);
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
}

void QueuedDevice::StartLanes(uint32_t count) {
  if (!lanes_.empty()) {
    return;
  }
  lanes_.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    lanes_.push_back(std::make_unique<Lane>(i));
  }
  for (auto& lane : lanes_) {
    Lane* raw = lane.get();
    lane->worker = std::thread([this, raw] { LaneLoop(raw); });
  }
}

QueuedDevice::~QueuedDevice() {
  // Normally a no-op: derived destructors stop the queue before their
  // members (and vtable) go away. This is the backstop for a derived class
  // that forgot.
  StopQueue();
}

void QueuedDevice::StopQueue() {
  {
    fdp::MutexLock lock(&mu_);
    if (stopped_) {
      return;
    }
    stopped_ = true;
    stop_ = true;
    work_cv_.NotifyOne();
  }
  if (dispatcher_.joinable()) {
    dispatcher_.join();
  }
  // Every SQ is drained, but issued requests (on lanes or a derived engine)
  // and parked ones hold active_ slots until their CompleteTask runs. Wait
  // them out while the derived class's reaper is still alive, so the
  // derived destructor can tear its engine down with nothing left to call
  // back.
  {
    fdp::MutexLock lock(&mu_);
    while (active_ != 0) {
      idle_cv_.Wait(&mu_);
    }
  }
  // Nothing is active, so every lane queue is empty and nothing can feed
  // one again: stop and join the workers.
  for (auto& lane : lanes_) {
    {
      fdp::MutexLock lock(&lane->mu);
      lane->stop = true;
    }
    lane->work_cv.NotifyAll();
    lane->worker.join();
  }
}

uint32_t QueuedDevice::WeightOf(uint32_t qp_index) const {
  return queue_config_.arbitration == QueueArbitration::kWeightedRoundRobin
             ? queue_config_.wrr_weights[qp_index]
             : 1;
}

CompletionToken QueuedDevice::Submit(const IoRequest& request) {
  const uint32_t qp_index = request.qp % static_cast<uint32_t>(qps_.size());
  IoQueuePair& qp = *qps_[qp_index];
  CompletionToken token;
  // Resolve the owning trace before taking any lock: the request may carry
  // its id explicitly (async cache ops crossing threads) or inherit the
  // submitting thread's current trace. sq_wait starts NOW — it deliberately
  // includes any admission (window/ring) stall below.
  uint64_t trace_id = request.trace_id;
  uint64_t submit_ns = 0;
  if (obs::TracingEnabled()) {
    if (trace_id == 0) {
      trace_id = obs::CurrentTraceId();
    }
    if (trace_id != 0) {
      submit_ns = obs::NowNs();
    }
  }
  {
    fdp::MutexLock lock(&qp.mu);
    if (!AdmissibleLocked(qp, request)) {
      ++qp.stats.admission_waits;
      do {
        qp.space_cv.Wait(&qp.mu);
      } while (!AdmissibleLocked(qp, request));
    }
    qp.outstanding_bytes += request.size;
    token = (static_cast<CompletionToken>(qp_index) << kQpShift) | qp.next_seq++;
    Pending pending;
    pending.token = token;
    pending.request = request;
    pending.request.qp = qp_index;
    pending.request.trace_id = trace_id;
    pending.submit_ns = submit_ns;
    qp.sq.push_back(std::move(pending));
    qp.outstanding.insert(token);
    qp.stats.queue_depth.Record(qp.sq.size());
  }
  queued_total_.fetch_add(1);
  // Wake the dispatcher only when it may actually be asleep, keeping the
  // device-global mutex off the cross-QP submit fast path. seq_cst ordering
  // makes the race safe: if the dispatcher's wait predicate read
  // queued_total_ == 0, that read preceded our increment, so our
  // dispatcher_idle_ load is after its idle store and must see true.
  if (dispatcher_idle_.load()) {
    fdp::MutexLock lock(&mu_);
    work_cv_.NotifyOne();
  }
  return token;
}

bool QueuedDevice::AdmissibleLocked(const IoQueuePair& qp, const IoRequest& request) const {
  // Admission control: ring space AND the congestion window. The window
  // compares against the REQUEST's size so small requests can slip past a
  // nearly-full window while a jumbo one waits; an empty QP always admits
  // (a single request larger than the window must not deadlock).
  if (qp.sq.size() >= queue_config_.sq_depth) {
    return false;
  }
  const uint64_t window = queue_config_.qp_window_bytes;
  return window == 0 || qp.outstanding_bytes == 0 ||
         qp.outstanding_bytes + request.size <= window;
}

std::optional<IoResult> QueuedDevice::Poll(CompletionToken token) {
  const uint32_t qp_index = QpOfToken(token);
  if (qp_index >= qps_.size()) {
    return std::nullopt;
  }
  IoQueuePair& qp = *qps_[qp_index];
  fdp::MutexLock lock(&qp.mu);
  const auto it = qp.cq.find(token);
  if (it == qp.cq.end()) {
    return std::nullopt;
  }
  const IoResult result = it->second;
  qp.cq.erase(it);
  return result;
}

IoResult QueuedDevice::Wait(CompletionToken token) {
  const uint32_t qp_index = QpOfToken(token);
  // Fail fast on tokens that can never complete (kInvalidToken, a queue pair
  // this device does not have) instead of blocking forever on a caller bug.
  if (token == kInvalidToken || qp_index >= qps_.size()) {
    return IoResult{};
  }
  IoQueuePair& qp = *qps_[qp_index];
  fdp::MutexLock lock(&qp.mu);
  // Same fail-fast for never-submitted / already-reaped tokens.
  while (qp.cq.find(token) == qp.cq.end() &&
         qp.outstanding.find(token) != qp.outstanding.end()) {
    qp.complete_cv.Wait(&qp.mu);
  }
  const auto it = qp.cq.find(token);
  if (it == qp.cq.end()) {
    return IoResult{};
  }
  const IoResult result = it->second;
  qp.cq.erase(it);
  return result;
}

void QueuedDevice::Drain() {
  fdp::MutexLock lock(&mu_);
  while (queued_total_.load() != 0 || active_ != 0) {
    idle_cv_.Wait(&mu_);
  }
}

uint32_t QueuedDevice::InFlight() const {
  fdp::MutexLock lock(&mu_);
  return queued_total_.load() + active_;
}

IoResult QueuedDevice::SyncIo(const IoRequest& request) {
  {
    fdp::MutexLock lock(&mu_);
    if (queued_total_.load() == 0 && active_ == 0) {
      // Idle pipeline: execute inline on the calling thread. `active_` keeps
      // Drain()/InFlight() honest while the lock is dropped for the
      // (possibly slow) backend call.
      ++active_;
      lock.Unlock();
      uint64_t trace_id = 0;
      uint64_t trace_start = 0;
      if (obs::TracingEnabled()) {
        trace_id = request.trace_id != 0 ? request.trace_id : obs::CurrentTraceId();
        trace_start = trace_id != 0 ? obs::NowNs() : 0;
      }
      const IoResult result = Execute(request);
      if (trace_start != 0) {
        obs::RecordSpan(trace_id, obs::TraceStage::kDeviceExecute, trace_start, obs::NowNs(),
                        static_cast<uint8_t>(request.op));
      }
      const uint32_t qp_index = request.qp % static_cast<uint32_t>(qps_.size());
      {
        // Both stat sinks update under qp.mu (aggregate nests latency_mu_
        // inside) so ResetStats, which takes every qp.mu first, can never
        // split the pair — per-QP counters always sum to the aggregate.
        IoQueuePair& qp = *qps_[qp_index];
        fdp::MutexLock qp_lock(&qp.mu);
        RecordCompletion(request, result);
        RecordQpCompletion(qp, request, result);
      }
      lock.Lock();
      --active_;
      idle_cv_.NotifyAll();
      return result;
    }
  }
  return Wait(Submit(request));
}

IoResult QueuedDevice::Execute(const IoRequest& request) {
  switch (request.op) {
    case IoOp::kWrite:
      return ExecuteWrite(request.offset, request.data, request.size, request.handle);
    case IoOp::kRead:
      return ExecuteRead(request.offset, request.out, request.size);
    case IoOp::kTrim:
      return ExecuteTrim(request.offset, request.size);
  }
  return IoResult{};
}

void QueuedDevice::RecordQpCompletion(IoQueuePair& qp, const IoRequest& request,
                                      const IoResult& result) {
  // Mirrors Device::RecordCompletion so the per-QP counters sum to the
  // aggregate DeviceStats.
  QueuePairStats& stats = qp.stats;
  if (!result.ok) {
    ++stats.io_errors;
    return;
  }
  switch (request.op) {
    case IoOp::kRead:
      ++stats.reads;
      stats.read_bytes += request.size;
      stats.read_latency_ns.Record(result.latency_ns);
      break;
    case IoOp::kWrite:
      ++stats.writes;
      stats.write_bytes += request.size;
      stats.write_latency_ns.Record(result.latency_ns);
      break;
    case IoOp::kTrim:
      ++stats.trims;
      break;
  }
}

bool QueuedDevice::PopNext(Pending* out, uint32_t* out_qp) {
  // Serve the current QP while it has credit and queued work; an empty ring
  // forfeits the rest of the slot (NVMe WRR: an idle queue donates its
  // bandwidth). `scanned <= n` lets the cursor come back around to the
  // starting QP with fresh credit when everything else is empty.
  const uint32_t n = static_cast<uint32_t>(qps_.size());
  for (uint32_t scanned = 0; scanned <= n; ++scanned) {
    IoQueuePair& qp = *qps_[arb_qp_];
    if (arb_credit_ > 0) {
      fdp::MutexLock lock(&qp.mu);
      if (!qp.sq.empty()) {
        auto it = qp.sq.begin();
        if (queue_config_.read_priority) {
          for (auto scan = qp.sq.begin(); scan != qp.sq.end(); ++scan) {
            if (scan->request.op == IoOp::kRead) {
              it = scan;
              break;
            }
          }
        }
        *out = std::move(*it);
        qp.sq.erase(it);
        *out_qp = arb_qp_;
        ++qp.stats.dispatched;
        --arb_credit_;
        if (out->submit_ns != 0 && out->request.trace_id != 0) {
          obs::RecordSpan(out->request.trace_id, obs::TraceStage::kSqWait,
                          out->submit_ns, obs::NowNs(),
                          static_cast<uint8_t>(out->request.op));
        }
        // NotifyAll: waiters block on heterogeneous predicates (ring space
        // vs window headroom for their own request size); waking just one
        // could pick a still-blocked waiter and strand an admissible one.
        qp.space_cv.NotifyAll();
        return true;
      }
      // Ring empty: forfeit the rest of this slot and advance below.
    }
    arb_qp_ = (arb_qp_ + 1) % n;
    arb_credit_ = WeightOf(arb_qp_);
  }
  return false;
}

void QueuedDevice::DispatcherLoop() {
  for (;;) {
    {
      fdp::MutexLock lock(&mu_);
      dispatcher_idle_.store(true);
      while (!stop_ && queued_total_.load() == 0) {
        work_cv_.Wait(&mu_);
      }
      dispatcher_idle_.store(false);
      if (queued_total_.load() == 0) {
        // stop_ is set and everything submitted has been executed.
        return;
      }
      queued_total_.fetch_sub(1);
      ++active_;
    }
    Pending pending;
    uint32_t qp_index = 0;
    // queued_total_ was nonzero and this thread is the only popper, so some
    // ring holds a request; PopNext scans them all.
    if (PopNext(&pending, &qp_index)) {
      // The one dispatch path: the conflict tracker issues the request (or
      // parks it behind an overlap), and whoever completes it — a lane, a
      // derived engine, or this thread for a declined request — releases
      // the active_ slot this iteration took.
      ExecTask task;
      task.token = pending.token;
      task.request = pending.request;
      task.qp = qp_index;
      StartAsync(std::move(task));
      continue;
    }
    {
      fdp::MutexLock lock(&mu_);
      --active_;
      idle_cv_.NotifyAll();
    }
  }
}

void QueuedDevice::CompleteTask(const ExecTask& task, const IoResult& result) {
  // Every dispatched request records its device_execute span here, and only
  // here, from the instant its execution began.
  if (task.issue_ns != 0 && obs::TracingEnabled()) {
    obs::RecordSpan(task.request.trace_id, obs::TraceStage::kDeviceExecute,
                    task.issue_ns, obs::NowNs(),
                    static_cast<uint8_t>(task.request.op));
  }
  {
    IoQueuePair& qp = *qps_[task.qp];
    fdp::MutexLock lock(&qp.mu);
    // Aggregate and per-QP stats update as one unit under qp.mu (see
    // SyncIo): ResetStats holds every qp.mu, so a racing reset can no
    // longer drop one half of the pair (the former histogram reset race).
    RecordCompletion(task.request, result);
    RecordQpCompletion(qp, task.request, result);
    qp.cq[task.token] = result;
    qp.outstanding.erase(task.token);
    // Completion returns window bytes; submitters may be parked on the
    // window even though the ring has space, so wake them here too.
    qp.outstanding_bytes -= task.request.size;
    qp.space_cv.NotifyAll();
    qp.complete_cv.NotifyAll();
  }
  // Retire the request from the conflict tracker and launch any deferred
  // overlapping requests it was blocking, BEFORE the hook/active_ block: the
  // unblocked I/O should hit the backend as soon as the ordering guarantee
  // allows. Promoted tasks hold their own active_ slots, so Drain() still
  // waits for them.
  RetireAsync(task);
  // The completion is reapable: wake any cache-tier poller parked on this
  // device's tokens — but batched. The hook fires once per completion_batch
  // completions; a partial batch is flushed by whichever completion is the
  // last active execution with nothing queued (serialized under mu_, so
  // exactly one completion sees active_ == 1 at pipeline idle). Either way
  // the hook fires BEFORE the active_ slot is released, so once Drain()
  // observes an idle pipeline no hook invocation is still in flight — an
  // owner detaches its hook, Drain()s, and can then safely tear down
  // whatever state the hook touches.
  const uint32_t pending_hooks =
      unhooked_completions_.fetch_add(1, std::memory_order_acq_rel) + 1;
  bool flush = pending_hooks >= queue_config_.completion_batch;
  {
    fdp::MutexLock lock(&mu_);
    if (!flush && active_ == 1 && queued_total_.load() == 0) {
      flush = true;  // Pipeline going idle: nothing later would flush.
    }
    if (flush &&
        unhooked_completions_.exchange(0, std::memory_order_acq_rel) > 0) {
      // Drop mu_ for the hook itself (it crosses into the owner's poller
      // lock); the active_ slot this execution holds keeps Drain() parked.
      lock.Unlock();
      FireCompletionHook();
      lock.Lock();
    }
    --active_;
    idle_cv_.NotifyAll();
  }
}

bool QueuedDevice::Conflicts(const IoRequest& a, const IoRequest& b) {
  // Half-open range overlap; zero-sized requests conflict with nothing, and
  // reads never order against each other.
  const bool overlap = a.offset < b.offset + b.size && b.offset < a.offset + a.size;
  return overlap && !(a.op == IoOp::kRead && b.op == IoOp::kRead);
}

bool QueuedDevice::BlockedLocked(const QpTracker& tracker, const IoRequest& request,
                                 std::deque<ExecTask>::const_iterator deferred_end) {
  for (const ExecTask& issued : tracker.inflight) {
    if (Conflicts(issued.request, request)) {
      return true;
    }
  }
  for (auto parked = tracker.deferred.begin(); parked != deferred_end; ++parked) {
    if (Conflicts(parked->request, request)) {
      return true;
    }
  }
  return false;
}

void QueuedDevice::StartAsync(ExecTask task) {
  {
    fdp::MutexLock lock(&async_mu_);
    QpTracker& tracker = trackers_[task.qp];
    if (BlockedLocked(tracker, task.request, tracker.deferred.end())) {
      ++tracker.defers;
      tracker.deferred.push_back(std::move(task));
      return;
    }
    tracker.inflight.push_back(task);
  }
  IssueAsync(std::move(task));
}

void QueuedDevice::IssueAsync(ExecTask task) {
  // async_mu_ is NOT held here: BeginExecute may submit to a kernel queue,
  // and a declined request runs the full blocking Execute + completion.
  if (task.request.trace_id != 0 && obs::TracingEnabled()) {
    task.issue_ns = obs::NowNs();
  }
  if (!BeginExecute(task)) {
    CompleteTask(task, Execute(task.request));
  }
}

void QueuedDevice::RetireAsync(const ExecTask& task) {
  std::vector<ExecTask> promoted;
  {
    fdp::MutexLock lock(&async_mu_);
    QpTracker& tracker = trackers_[task.qp];
    for (auto it = tracker.inflight.begin(); it != tracker.inflight.end(); ++it) {
      if (it->token == task.token) {
        tracker.inflight.erase(it);
        break;
      }
    }
    // Promote parked requests in FIFO order. A candidate launches only if it
    // conflicts with nothing in flight AND nothing still parked ahead of it;
    // promoted entries join inflight immediately so later candidates in this
    // same scan see them.
    for (auto it = tracker.deferred.begin(); it != tracker.deferred.end();) {
      if (BlockedLocked(tracker, it->request, it)) {
        ++it;
        continue;
      }
      tracker.inflight.push_back(*it);
      promoted.push_back(std::move(*it));
      it = tracker.deferred.erase(it);
    }
  }
  for (ExecTask& next : promoted) {
    IssueAsync(std::move(next));
  }
}

bool QueuedDevice::BeginExecute(const ExecTask& task) {
  if (lanes_.empty()) {
    return false;
  }
  // Die-affine route: the lane that owns the stripe holding the request's
  // first byte.
  const uint64_t stripe = task.request.offset / queue_config_.lane_stripe_bytes;
  Lane& lane = *lanes_[stripe % lanes_.size()];
  {
    fdp::MutexLock lock(&lane.mu);
    lane.queue.push_back(task);
    ++lane.stats.dispatches;
    lane.stats.queue_depth.Record(lane.queue.size());
  }
  lane.work_cv.NotifyOne();
  return true;
}

void QueuedDevice::LaneLoop(Lane* lane) {
  for (;;) {
    ExecTask task;
    {
      fdp::MutexLock lock(&lane->mu);
      while (!lane->stop && lane->queue.empty()) {
        lane->work_cv.Wait(&lane->mu);
      }
      if (lane->queue.empty()) {
        return;  // Stopped, and everything handed to this lane has run.
      }
      task = std::move(lane->queue.front());
      lane->queue.pop_front();
    }
    if (task.issue_ns != 0) {
      task.issue_ns = obs::NowNs();  // The span covers execution, not the lane queue.
    }
    const IoResult result = Execute(task.request);
    {
      fdp::MutexLock lock(&lane->mu);
      lane->stats.busy_ns += result.latency_ns;
    }
    CompleteTask(task, result);
  }
}

std::vector<QueuePairStats> QueuedDevice::PerQueuePairStats() const {
  std::vector<QueuePairStats> out;
  out.reserve(qps_.size());
  for (const auto& qp : qps_) {
    fdp::MutexLock lock(&qp->mu);
    out.push_back(qp->stats);
  }
  fdp::MutexLock lock(&async_mu_);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i].conflict_defers = trackers_[i].defers;
  }
  return out;
}

std::vector<LaneStats> QueuedDevice::PerLaneStats() const {
  std::vector<LaneStats> out;
  out.reserve(lanes_.size());
  for (const auto& lane : lanes_) {
    fdp::MutexLock lock(&lane->mu);
    out.push_back(lane->stats);
  }
  return out;
}

// NO_THREAD_SAFETY_ANALYSIS: the static analysis cannot model a dynamic
// array of locks; the debug lock-rank checker validates the ascending
// acquire order at run time instead (kQueuePair minors are QP indices).
void QueuedDevice::ResetStats() NO_THREAD_SAFETY_ANALYSIS {
  // Hold EVERY queue pair's mutex (ascending index — the same total order
  // completion paths use: one qp.mu, then latency_mu_ inside
  // Device::ResetStats/RecordCompletion) across the whole reset. Completions
  // record their aggregate + per-QP pair atomically under their qp.mu, so a
  // reset can no longer land between the two recordings and leave the per-QP
  // sums disagreeing with the aggregate histograms.
  for (auto& qp : qps_) {
    qp->mu.Lock();
  }
  Device::ResetStats();
  for (auto& qp : qps_) {
    qp->stats = QueuePairStats{};
  }
  for (auto it = qps_.rbegin(); it != qps_.rend(); ++it) {
    (*it)->mu.Unlock();
  }
  {
    fdp::MutexLock lock(&async_mu_);
    for (QpTracker& tracker : trackers_) {
      tracker.defers = 0;
    }
  }
  for (auto& lane : lanes_) {
    fdp::MutexLock lock(&lane->mu);
    lane->stats = LaneStats{};
  }
}

}  // namespace fdpcache
