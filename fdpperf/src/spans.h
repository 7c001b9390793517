// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded only from the benchmark's own code: around each client
// op, around every call into the cache API, and inside the TimedDevice
// decorator around every call into the device. Each thread appends to its
// own buffer (no locking on the hot path); a span's parent is the span that
// was open on the same thread when it began, and every span carries the id
// of the client op that caused it (client op -> cache call -> device
// submit, then the pump -> device poll/wait -> completion callback that
// completes it).
//
// Self time is computed online: when a span closes, its duration is charged
// to the enclosing span's child time, and self = duration - child time.
#ifndef FDPPERF_SRC_SPANS_H_
#define FDPPERF_SRC_SPANS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace fdpperf {

// Wall clock (steady, nanoseconds).
uint64_t NowNs();

enum class SpanKind : uint8_t {
  // client (benchmark code)
  kClientOp,       // One client op: issue, timed calls, verification.
  kCallback,       // Async completion callback body.
  // cache (HybridCache calls)
  kCacheGet,
  kCacheSet,
  kCacheRemove,
  kCacheLookupAsync,
  kCacheInsertAsync,
  kCacheRemoveAsync,
  kCachePump,      // PumpAsync while the async client's window is full.
  // navy device boundary (TimedDevice)
  kDevSyncRead,
  kDevSyncWrite,
  kDevSyncTrim,
  kDevSubmit,
  kDevPoll,
  kDevWait,
  kDevDrain,
  // tracing bookkeeping: hit-counter reads that classify each Get
  kClassify,
  kCount,
};

// kTrace is work the traced run adds for its own classifications; it is
// neither client nor system time.
enum class Layer : uint8_t { kClient, kCache, kDevice, kTrace, kCount };

const char* SpanKindName(SpanKind kind);
Layer LayerOf(SpanKind kind);
const char* LayerName(Layer layer);

struct Span {
  uint64_t op_id = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t child_ns = 0;
  int64_t parent = -1;  // Index of the enclosing span in the same thread buffer.
  SpanKind kind = SpanKind::kClientOp;

  uint64_t duration_ns() const { return end_ns - start_ns; }
  uint64_t self_ns() const { return duration_ns() - child_ns; }
};

struct ThreadSpans {
  uint32_t thread = 0;
  std::vector<Span> spans;
  std::vector<size_t> open;  // Stack of indices of spans not yet closed.
};

class SpanRecorder {
 public:
  static SpanRecorder& Instance();

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Drops every recorded span (buffers stay registered).
  void Clear();

  // The calling thread's buffer, registered on first use.
  ThreadSpans& Local();

  // Every thread buffer. Call only while no thread is recording.
  std::vector<const ThreadSpans*> Buffers() const;

  // Writes the spans of every `sample`-th client op (whole request trees:
  // every span carrying such an op id) and every `sample`-th span that
  // belongs to no op, as CSV (thread,index,parent,op,layer,kind,start_ns,
  // end_ns,self_ns; `parent` is the index of the enclosing span on the same
  // thread). Returns false when the file cannot be written.
  bool WriteCsv(const std::string& path, uint64_t sample) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadSpans>> buffers_;
};

// The client op the calling thread is working for (0 = none). Device spans
// and callback spans pick it up.
uint64_t CurrentOp();
void SetCurrentOp(uint64_t op_id);

// RAII span. Costs one relaxed load and a branch when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind) : ScopedSpan(kind, CurrentOp()) {}
  ScopedSpan(SpanKind kind, uint64_t op_id);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadSpans* buffer_ = nullptr;
};

}  // namespace fdpperf

#endif  // FDPPERF_SRC_SPANS_H_
