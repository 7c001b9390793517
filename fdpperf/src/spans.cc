#include "src/spans.h"

#include <chrono>
#include <cstdio>

namespace fdpperf {

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kClientOp:
      return "client_op";
    case SpanKind::kCallback:
      return "callback";
    case SpanKind::kCacheGet:
      return "cache_get";
    case SpanKind::kCacheSet:
      return "cache_set";
    case SpanKind::kCacheRemove:
      return "cache_remove";
    case SpanKind::kCacheLookupAsync:
      return "cache_lookup_async";
    case SpanKind::kCacheInsertAsync:
      return "cache_insert_async";
    case SpanKind::kCacheRemoveAsync:
      return "cache_remove_async";
    case SpanKind::kCachePump:
      return "cache_pump";
    case SpanKind::kDevSyncRead:
      return "dev_sync_read";
    case SpanKind::kDevSyncWrite:
      return "dev_sync_write";
    case SpanKind::kDevSyncTrim:
      return "dev_sync_trim";
    case SpanKind::kDevSubmit:
      return "dev_submit";
    case SpanKind::kDevPoll:
      return "dev_poll";
    case SpanKind::kDevWait:
      return "dev_wait";
    case SpanKind::kDevDrain:
      return "dev_drain";
    case SpanKind::kClassify:
      return "classify";
    case SpanKind::kCount:
      break;
  }
  return "unknown";
}

Layer LayerOf(SpanKind kind) {
  switch (kind) {
    case SpanKind::kClientOp:
    case SpanKind::kCallback:
      return Layer::kClient;
    case SpanKind::kClassify:
      return Layer::kTrace;
    case SpanKind::kCacheGet:
    case SpanKind::kCacheSet:
    case SpanKind::kCacheRemove:
    case SpanKind::kCacheLookupAsync:
    case SpanKind::kCacheInsertAsync:
    case SpanKind::kCacheRemoveAsync:
    case SpanKind::kCachePump:
      return Layer::kCache;
    default:
      return Layer::kDevice;
  }
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kClient:
      return "client";
    case Layer::kCache:
      return "cache";
    case Layer::kDevice:
      return "navy.device";
    case Layer::kTrace:
      return "trace";
    case Layer::kCount:
      break;
  }
  return "unknown";
}

SpanRecorder& SpanRecorder::Instance() {
  static SpanRecorder* recorder = new SpanRecorder();
  return *recorder;
}

void SpanRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& buffer : buffers_) {
    buffer->spans.clear();
    buffer->open.clear();
  }
}

ThreadSpans& SpanRecorder::Local() {
  thread_local ThreadSpans* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadSpans>());
    local = buffers_.back().get();
    local->thread = static_cast<uint32_t>(buffers_.size() - 1);
    local->spans.reserve(1 << 16);
  }
  return *local;
}

std::vector<const ThreadSpans*> SpanRecorder::Buffers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const ThreadSpans*> out;
  for (const auto& buffer : buffers_) {
    out.push_back(buffer.get());
  }
  return out;
}

bool SpanRecorder::WriteCsv(const std::string& path, uint64_t sample) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "thread,index,parent,op,layer,kind,start_ns,end_ns,self_ns\n");
  for (const ThreadSpans* buffer : Buffers()) {
    for (size_t i = 0; i < buffer->spans.size(); ++i) {
      const Span& s = buffer->spans[i];
      if ((s.op_id != 0 ? s.op_id : i) % sample != 0) {
        continue;
      }
      std::fprintf(f, "%u,%zu,%lld,%llu,%s,%s,%llu,%llu,%llu\n", buffer->thread, i,
                   static_cast<long long>(s.parent), static_cast<unsigned long long>(s.op_id),
                   LayerName(LayerOf(s.kind)), SpanKindName(s.kind),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns),
                   static_cast<unsigned long long>(s.self_ns()));
    }
  }
  return std::fclose(f) == 0;
}

namespace {
thread_local uint64_t current_op = 0;
}  // namespace

uint64_t CurrentOp() { return current_op; }
void SetCurrentOp(uint64_t op_id) { current_op = op_id; }

ScopedSpan::ScopedSpan(SpanKind kind, uint64_t op_id) {
  SpanRecorder& recorder = SpanRecorder::Instance();
  if (!recorder.enabled()) {
    return;
  }
  buffer_ = &recorder.Local();
  Span span;
  span.kind = kind;
  span.op_id = op_id;
  span.parent = buffer_->open.empty() ? -1 : static_cast<int64_t>(buffer_->open.back());
  buffer_->open.push_back(buffer_->spans.size());
  buffer_->spans.push_back(span);
  buffer_->spans.back().start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ == nullptr) {
    return;
  }
  const uint64_t end = NowNs();
  Span& span = buffer_->spans[buffer_->open.back()];
  buffer_->open.pop_back();
  span.end_ns = end;
  if (span.parent >= 0) {
    buffer_->spans[static_cast<size_t>(span.parent)].child_ns += span.duration_ns();
  }
}

}  // namespace fdpperf
