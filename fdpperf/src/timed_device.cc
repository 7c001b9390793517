#include "src/timed_device.h"

#include "src/spans.h"

namespace fdpperf {

using fdpcache::CompletionToken;
using fdpcache::IoOp;
using fdpcache::IoRequest;
using fdpcache::IoResult;

void TimedDevice::Account(const IoRequest& request) {
  commands_.fetch_add(1, std::memory_order_relaxed);
  if (request.op == IoOp::kRead) {
    read_bytes_.fetch_add(request.size, std::memory_order_relaxed);
  } else if (request.op == IoOp::kWrite) {
    write_bytes_.fetch_add(request.size, std::memory_order_relaxed);
  }
}

void TimedDevice::Complete(IoOp op, const IoResult& result) {
  if (!result.ok) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (!sample_virtual_.load(std::memory_order_relaxed) || op == IoOp::kTrim) {
    return;
  }
  std::lock_guard<std::mutex> lock(samples_mu_);
  (op == IoOp::kRead ? virtual_read_ns_ : virtual_write_ns_).push_back(result.latency_ns);
}

void TimedDevice::Reaped(CompletionToken token, const IoResult& result) {
  Inflight entry;
  {
    std::lock_guard<std::mutex> lock(tokens_mu_);
    const auto it = inflight_.find(token);
    if (it == inflight_.end()) {
      return;  // Submitted before sampling/tracing started.
    }
    entry = it->second;
    inflight_.erase(it);
    if (SpanRecorder::Instance().enabled()) {
      submit_to_reap_ns_.push_back(NowNs() - entry.submit_ns);
    }
  }
  Complete(entry.op, result);
}

CompletionToken TimedDevice::Submit(const IoRequest& request) {
  ScopedSpan span(SpanKind::kDevSubmit);
  Account(request);
  const uint64_t submit_ns = NowNs();
  const CompletionToken token = inner_->Submit(request);
  if (sample_virtual_.load(std::memory_order_relaxed) || SpanRecorder::Instance().enabled()) {
    std::lock_guard<std::mutex> lock(tokens_mu_);
    inflight_[token] = Inflight{submit_ns, CurrentOp(), request.op};
  }
  return token;
}

uint64_t TimedDevice::OpOf(CompletionToken token) const {
  if (!SpanRecorder::Instance().enabled()) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(tokens_mu_);
  const auto it = inflight_.find(token);
  return it == inflight_.end() ? 0 : it->second.op_id;
}

std::optional<IoResult> TimedDevice::Poll(CompletionToken token) {
  ScopedSpan span(SpanKind::kDevPoll, OpOf(token));
  std::optional<IoResult> result = inner_->Poll(token);
  if (result.has_value()) {
    Reaped(token, *result);
  }
  return result;
}

IoResult TimedDevice::Wait(CompletionToken token) {
  ScopedSpan span(SpanKind::kDevWait, OpOf(token));
  const IoResult result = inner_->Wait(token);
  Reaped(token, result);
  return result;
}

void TimedDevice::Drain() {
  ScopedSpan span(SpanKind::kDevDrain);
  inner_->Drain();
}

IoResult TimedDevice::SyncIo(const IoRequest& request) {
  const SpanKind kind = request.op == IoOp::kRead    ? SpanKind::kDevSyncRead
                        : request.op == IoOp::kWrite ? SpanKind::kDevSyncWrite
                                                     : SpanKind::kDevSyncTrim;
  ScopedSpan span(kind);
  Account(request);
  const IoResult result = inner_->SyncIo(request);
  Complete(request.op, result);
  return result;
}

TimedDevice::Counters TimedDevice::counters() const {
  Counters c;
  c.commands = commands_.load(std::memory_order_relaxed);
  c.read_bytes = read_bytes_.load(std::memory_order_relaxed);
  c.write_bytes = write_bytes_.load(std::memory_order_relaxed);
  c.failed = failed_.load(std::memory_order_relaxed);
  return c;
}

std::vector<uint64_t> TimedDevice::virtual_read_ns() const {
  std::lock_guard<std::mutex> lock(samples_mu_);
  return virtual_read_ns_;
}

std::vector<uint64_t> TimedDevice::virtual_write_ns() const {
  std::lock_guard<std::mutex> lock(samples_mu_);
  return virtual_write_ns_;
}

std::vector<uint64_t> TimedDevice::submit_to_reap_ns() const {
  std::lock_guard<std::mutex> lock(tokens_mu_);
  return submit_to_reap_ns_;
}

}  // namespace fdpperf
