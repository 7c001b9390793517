#include "src/obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace fdpcache {
namespace obs {

const char* TraceStageName(TraceStage stage) {
  switch (stage) {
    case TraceStage::kRequest:
      return "request";
    case TraceStage::kShardLockWait:
      return "shard_lock_wait";
    case TraceStage::kRamProbe:
      return "ram_probe";
    case TraceStage::kFlashPark:
      return "flash_park";
    case TraceStage::kSqWait:
      return "sq_wait";
    case TraceStage::kDeviceExecute:
      return "device_execute";
    case TraceStage::kCompletionDelivery:
      return "completion_delivery";
    case TraceStage::kGcTick:
      return "gc_tick";
  }
  return "unknown";
}

#ifndef FDPCACHE_DISABLE_TRACING

namespace internal {
std::atomic<bool> g_tracing_enabled{false};
}  // namespace internal

namespace {
// Per-thread sampling counter: thread i traces requests i, i+N, i+2N...
// of its own stream. Deterministic per thread, no shared state.
thread_local uint64_t tl_sample_counter = 0;
}  // namespace

uint64_t BeginRequestTraceImpl() {
  auto& ctl = TraceController::Instance();
  uint32_t every = ctl.sample_every();
  if (every > 1 && (tl_sample_counter++ % every) != 0) {
    return 0;
  }
  // Trace id 0 is reserved for "none"; the counter starts at 1.
  return ctl.next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
}

void RecordSpanImpl(const TraceEvent& event) {
  auto& ctl = TraceController::Instance();
  thread_local TraceController::Ring* tl_ring = nullptr;
  if (tl_ring == nullptr) {
    tl_ring = ctl.RingForThisThread();
  }
  TraceController::Ring& ring = *tl_ring;
  uint64_t head = ring.head.load(std::memory_order_relaxed);
  TraceEvent& slot = ring.slots[head % TraceController::Ring::kCapacity];
  slot = event;
  slot.tid = ring.tid;
  ring.head.store(head + 1, std::memory_order_release);
}

RequestSpan BeginRequestSpanIfIdle() {
  if (!TracingEnabled() || internal::tl_current_trace != 0) {
    return RequestSpan{};
  }
  uint64_t id = BeginRequestTraceImpl();
  if (id == 0) {
    return RequestSpan{};
  }
  return RequestSpan{id, NowNs()};
}

void RecordSpan(uint64_t trace_id, TraceStage stage, uint64_t start_ns, uint64_t end_ns,
                uint8_t op) {
  if (!TracingEnabled()) {
    return;
  }
  TraceEvent event;
  event.trace_id = trace_id;
  event.start_ns = start_ns;
  event.end_ns = end_ns;
  event.stage = stage;
  event.op = op;
  RecordSpanImpl(event);
}

#endif  // FDPCACHE_DISABLE_TRACING

TraceController& TraceController::Instance() {
  static TraceController* controller = new TraceController();
  return *controller;
}

void TraceController::Enable(uint32_t sample_every) {
  fdp::MutexLock lock(&mu_);
  sample_every_.store(sample_every == 0 ? 1 : sample_every, std::memory_order_relaxed);
#ifndef FDPCACHE_DISABLE_TRACING
  internal::g_tracing_enabled.store(true, std::memory_order_relaxed);
#endif
}

void TraceController::Disable() {
  fdp::MutexLock lock(&mu_);
#ifndef FDPCACHE_DISABLE_TRACING
  internal::g_tracing_enabled.store(false, std::memory_order_relaxed);
#endif
}

bool TraceController::enabled() const {
#ifndef FDPCACHE_DISABLE_TRACING
  return internal::g_tracing_enabled.load(std::memory_order_relaxed);
#else
  return false;
#endif
}

uint32_t TraceController::sample_every() const {
  return sample_every_.load(std::memory_order_relaxed);
}

TraceController::Ring* TraceController::RingForThisThread() {
  fdp::MutexLock lock(&mu_);
  auto ring = std::make_shared<Ring>();
  ring->tid = static_cast<uint32_t>(rings_.size());
  rings_.push_back(ring);
  return ring.get();
}

std::vector<TraceEvent> TraceController::Collect() const {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    fdp::MutexLock lock(&mu_);
    rings = rings_;
  }
  std::vector<TraceEvent> out;
  for (const auto& ring : rings) {
    uint64_t head = ring->head.load(std::memory_order_acquire);
    uint64_t count = std::min<uint64_t>(head, Ring::kCapacity);
    for (uint64_t i = head - count; i < head; ++i) {
      out.push_back(ring->slots[i % Ring::kCapacity]);
    }
  }
  std::sort(out.begin(), out.end(), [](const TraceEvent& a, const TraceEvent& b) {
    return a.start_ns < b.start_ns;
  });
  return out;
}

uint64_t TraceController::DroppedEvents() const {
  fdp::MutexLock lock(&mu_);
  uint64_t dropped = 0;
  for (const auto& ring : rings_) {
    uint64_t head = ring->head.load(std::memory_order_acquire);
    if (head > Ring::kCapacity) {
      dropped += head - Ring::kCapacity;
    }
  }
  return dropped;
}

void TraceController::Clear() {
  fdp::MutexLock lock(&mu_);
  for (const auto& ring : rings_) {
    ring->head.store(0, std::memory_order_release);
  }
  next_id_.store(0, std::memory_order_relaxed);
}

bool WriteChromeTrace(const std::vector<TraceEvent>& events, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  bool first = true;
  for (const TraceEvent& e : events) {
    uint64_t dur = e.end_ns > e.start_ns ? e.end_ns - e.start_ns : 0;
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"fdpcache\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%u,"
                 "\"args\":{\"trace_id\":%llu,\"op\":%u}}",
                 first ? "" : ",", TraceStageName(e.stage), e.start_ns / 1000.0,
                 dur / 1000.0, e.tid, static_cast<unsigned long long>(e.trace_id),
                 e.op);
    first = false;
  }
  std::fputs("\n]}\n", f);
  bool ok = std::fclose(f) == 0;
  return ok;
}

void SynthesizeCompletionDelivery(std::vector<TraceEvent>* events) {
  // last device-execute end and request end per trace id.
  struct Ends {
    uint64_t exec_end = 0;
    uint64_t req_end = 0;
    uint32_t req_tid = 0;
    uint8_t op = 0;
    bool has_req = false;
  };
  std::unordered_map<uint64_t, Ends> per_trace;
  for (const TraceEvent& e : *events) {
    if (e.trace_id == 0) {
      continue;
    }
    Ends& ends = per_trace[e.trace_id];
    if (e.stage == TraceStage::kRequest) {
      ends.req_end = e.end_ns;
      ends.req_tid = e.tid;
      ends.op = e.op;
      ends.has_req = true;
    } else if (e.stage == TraceStage::kDeviceExecute) {
      ends.exec_end = std::max(ends.exec_end, e.end_ns);
    }
  }
  for (const auto& [id, ends] : per_trace) {
    if (ends.has_req && ends.exec_end != 0 && ends.req_end > ends.exec_end) {
      TraceEvent e;
      e.trace_id = id;
      e.start_ns = ends.exec_end;
      e.end_ns = ends.req_end;
      e.tid = ends.req_tid;
      e.stage = TraceStage::kCompletionDelivery;
      e.op = ends.op;
      events->push_back(e);
    }
  }
}

namespace {

struct Interval {
  uint64_t lo;
  uint64_t hi;
};

// Subtracts `covered` (sorted, disjoint) from [lo,hi) and returns both the
// surviving length and the updated coverage with [lo,hi) merged in.
uint64_t AddIntervalExclusive(std::vector<Interval>* covered, uint64_t lo, uint64_t hi) {
  if (hi <= lo) {
    return 0;
  }
  uint64_t exclusive = hi - lo;
  std::vector<Interval> merged;
  merged.reserve(covered->size() + 1);
  Interval span{lo, hi};
  for (const Interval& c : *covered) {
    if (c.hi <= span.lo || c.lo >= span.hi) {
      merged.push_back(c);
      continue;
    }
    // Overlap: the covered part no longer counts as exclusive.
    uint64_t olo = std::max(c.lo, span.lo);
    uint64_t ohi = std::min(c.hi, span.hi);
    exclusive -= ohi - olo;
    span.lo = std::min(span.lo, c.lo);
    span.hi = std::max(span.hi, c.hi);
  }
  merged.push_back(span);
  std::sort(merged.begin(), merged.end(),
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
  // Coalesce adjacent/overlapping intervals so the list stays small.
  std::vector<Interval> out;
  for (const Interval& m : merged) {
    if (!out.empty() && m.lo <= out.back().hi) {
      out.back().hi = std::max(out.back().hi, m.hi);
    } else {
      out.push_back(m);
    }
  }
  *covered = std::move(out);
  return exclusive;
}

}  // namespace

TraceBreakdown BuildTraceBreakdown(const std::vector<TraceEvent>& events) {
  TraceBreakdown bd;
  bd.events = events.size();

  struct Group {
    const TraceEvent* request = nullptr;
    std::vector<const TraceEvent*> spans;
  };
  std::unordered_map<uint64_t, Group> groups;
  for (const TraceEvent& e : events) {
    size_t idx = static_cast<size_t>(e.stage);
    if (idx < kNumTraceStages) {
      bd.stages[idx].spans++;
      bd.stages[idx].raw_ns += e.end_ns > e.start_ns ? e.end_ns - e.start_ns : 0;
    }
    if (e.trace_id == 0) {
      continue;
    }
    Group& g = groups[e.trace_id];
    if (e.stage == TraceStage::kRequest) {
      g.request = &e;
    } else {
      g.spans.push_back(&e);
    }
  }

  // Most-specific-first attribution order: a nanosecond inside both a
  // device-execute span and a flash-park span belongs to device execute.
  static constexpr TraceStage kOrder[] = {
      TraceStage::kDeviceExecute,      TraceStage::kSqWait,
      TraceStage::kCompletionDelivery, TraceStage::kRamProbe,
      TraceStage::kShardLockWait,      TraceStage::kFlashPark,
  };

  std::vector<uint64_t> durations;
  for (const auto& [id, g] : groups) {
    if (g.request == nullptr) {
      continue;  // Orphan stage spans (request span lost to ring wrap).
    }
    const uint64_t req_lo = g.request->start_ns;
    const uint64_t req_hi = g.request->end_ns;
    const uint64_t req_len = req_hi > req_lo ? req_hi - req_lo : 0;
    bd.requests++;
    bd.total_request_ns += req_len;
    durations.push_back(req_len);

    std::vector<Interval> covered;
    uint64_t attributed = 0;
    for (TraceStage stage : kOrder) {
      for (const TraceEvent* e : g.spans) {
        if (e->stage != stage) {
          continue;
        }
        // Clip to the request window; spans that drift past the request end
        // (clock skew across cores is sub-ns on one host, but be strict)
        // only count the inside part.
        uint64_t lo = std::max(e->start_ns, req_lo);
        uint64_t hi = std::min(e->end_ns, req_hi);
        uint64_t exclusive = AddIntervalExclusive(&covered, lo, hi);
        bd.stages[static_cast<size_t>(stage)].exclusive_ns += exclusive;
        attributed += exclusive;
      }
    }
    bd.attributed_ns += attributed;
    bd.unattributed_ns += req_len - attributed;
  }

  if (!durations.empty()) {
    auto mid = durations.begin() + durations.size() / 2;
    std::nth_element(durations.begin(), mid, durations.end());
    bd.request_p50_ns = *mid;
  }
  return bd;
}

}  // namespace obs
}  // namespace fdpcache
