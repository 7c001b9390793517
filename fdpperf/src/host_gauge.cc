#include "src/host_gauge.h"

#include <numeric>
#include <utility>

#include "src/client_data.h"
#include "src/common/rng.h"
#include "src/spans.h"

namespace fdpperf {

namespace {

constexpr size_t kCycleEntries = size_t{16} << 20;  // 64 MiB of uint32_t.
constexpr uint32_t kStepsPerProbe = 20'000;
constexpr uint32_t kHandoffsPerProbe = 500;  // Round trips.

}  // namespace

HostGauge::HostGauge(bool handoffs) : next_(kCycleEntries), handoffs_(handoffs) {
  // Sattolo's shuffle: one cycle through every entry, in random order.
  std::vector<uint32_t> order(kCycleEntries);
  std::iota(order.begin(), order.end(), 0u);
  fdpcache::Rng rng(0x5eed9a63c41b27d1ull);
  for (size_t i = kCycleEntries - 1; i > 0; --i) {
    std::swap(order[i], order[rng.Next() % i]);
  }
  for (size_t i = 0; i < kCycleEntries; ++i) {
    next_[order[i]] = order[(i + 1) % kCycleEntries];
  }
  if (handoffs_) {
    partner_ = std::thread([this] { Partner(); });
  }
}

HostGauge::~HostGauge() {
  if (partner_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    partner_.join();
  }
}

void HostGauge::Partner() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return partner_turn_ || stop_; });
    if (stop_) {
      return;
    }
    partner_turn_ = false;
    cv_.notify_all();
  }
}

void HostGauge::Sample() {
  const uint64_t t0 = NowNs();
  uint32_t at = at_;
  for (uint32_t step = 0; step < kStepsPerProbe; ++step) {
    at = next_[at];
  }
  at_ = at;  // Keeps the chase live.
  if (handoffs_) {
    std::unique_lock<std::mutex> lock(mu_);
    for (uint32_t i = 0; i < kHandoffsPerProbe; ++i) {
      partner_turn_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return !partner_turn_; });
    }
  }
  samples_ns_.push_back(static_cast<double>(NowNs() - t0));
}

double HostGauge::reference_ns() const {
  return kChaseReferenceNs + (handoffs_ ? kHandoffReferenceNs : 0.0);
}

double HostGauge::speed() const {
  return samples_ns_.empty() ? 1.0 : reference_ns() / Median(samples_ns_);
}

}  // namespace fdpperf
