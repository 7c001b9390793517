// QueuedDevice's one dispatch path: the per-QP conflict tracker and the
// execution lanes behind it.
//
// The tracker suite drives a fake backend whose BeginExecute holds every
// issued request until the test completes it, in an order the test picks —
// no sleeps, no reliance on the scheduler. Each case runs with no lanes (the
// held request completes on the test thread) and with 2 lanes (the held
// request is handed to its lane, which executes and completes it). Covered:
// write-write chains, trim vs write, the read-read exemption, cross-QP
// independence, and that a new request never jumps an older parked overlap.
//
// The lane suite covers disjoint requests genuinely executing in parallel,
// the congestion window, a lane completion promoting a parked request back
// onto its own lane (the hand-off must never block), data-level trim/write
// ordering over the simulated SSD, a 4-submitter x 4-lane stress with
// Drain() racing Submit() (run under TSan in CI), lanes=0 being
// bit-identical to the inline dispatcher path, and lane stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/navy/queued_device.h"
#include "src/navy/sim_ssd_device.h"
#include "src/ssd/ssd.h"

namespace fdpcache {
namespace {

constexpr uint64_t kPage = 4096;
constexpr uint64_t kStripe = 64 * 1024;

SsdConfig TestSsd() {
  SsdConfig config;
  config.geometry.pages_per_block = 16;
  config.geometry.planes_per_die = 2;
  config.geometry.num_dies = 4;
  config.geometry.num_superblocks = 32;
  config.op_fraction = 0.25;
  return config;
}

IoQueueConfig LaneConfig(uint32_t lanes, uint32_t qps = 1) {
  IoQueueConfig config;
  config.num_queue_pairs = qps;
  config.sq_depth = 64;
  config.exec_lanes = lanes;
  config.lane_stripe_bytes = kStripe;
  return config;
}

const uint8_t kZeros[2 * kStripe] = {0};

IoRequest WriteAt(uint64_t offset, uint64_t size, uint32_t qp = 0) {
  return IoRequest::MakeWrite(offset, kZeros, size, kNoPlacement, qp);
}

uint64_t TotalDefers(const Device& device) {
  uint64_t defers = 0;
  for (const QueuePairStats& qp : device.PerQueuePairStats()) {
    defers += qp.conflict_defers;
  }
  return defers;
}

// Spins (yielding) until `done()` holds; false after 10 s. The condition is
// one the pipeline is guaranteed to reach, so the wait decides no outcome.
template <typename Pred>
bool SpinUntil(Pred done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::yield();
  }
  return true;
}

// --- Conflict tracker (held backend) ------------------------------------------

// BeginExecute holds every issued request. Release(token) completes one:
// with no lanes, on the calling thread; with lanes, by handing it to its
// lane (the base BeginExecute), whose worker executes and completes it.
// Either way Release returns once the request has retired, and requests the
// retirement promoted show up as held again.
class HeldDevice final : public QueuedDevice {
 public:
  explicit HeldDevice(const IoQueueConfig& config) : QueuedDevice(config) {}
  ~HeldDevice() override {
    ReleaseAll();
    StopQueue();
  }

  uint64_t size_bytes() const override { return 64ull << 20; }
  uint64_t page_size() const override { return kPage; }

  // Waits until every token in `tokens` is held (issued, not released).
  bool AwaitHeld(const std::vector<CompletionToken>& tokens) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(10), [&] {
      return std::all_of(tokens.begin(), tokens.end(),
                         [this](CompletionToken t) { return FindLocked(t) != held_.end(); });
    });
  }
  bool IsHeld(CompletionToken token) {
    std::lock_guard<std::mutex> lock(mu_);
    return FindLocked(token) != held_.end();
  }
  size_t NumHeld() {
    std::lock_guard<std::mutex> lock(mu_);
    return held_.size();
  }

  // Completes one held request and waits for it to retire.
  bool Release(CompletionToken token) {
    ExecTask task;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = FindLocked(token);
      if (it == held_.end()) {
        return false;
      }
      task = *it;
      held_.erase(it);
    }
    Run(task);
    return Wait(token).ok;
  }

 protected:
  bool BeginExecute(const ExecTask& task) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      held_.push_back(task);
    }
    cv_.notify_all();
    return true;
  }
  IoResult ExecuteWrite(uint64_t, const void*, uint64_t, PlacementHandle) override {
    return IoResult{true, 1000};
  }
  IoResult ExecuteRead(uint64_t, void*, uint64_t) override { return IoResult{true, 1000}; }
  IoResult ExecuteTrim(uint64_t, uint64_t) override { return IoResult{true, 1000}; }

 private:
  std::vector<ExecTask>::iterator FindLocked(CompletionToken token) {
    return std::find_if(held_.begin(), held_.end(),
                        [token](const ExecTask& t) { return t.token == token; });
  }
  void Run(const ExecTask& task) {
    if (queue_config().exec_lanes == 0) {
      CompleteTask(task, IoResult{true, 1000});
    } else {
      QueuedDevice::BeginExecute(task);
    }
  }
  // Teardown backstop: retires whatever a failed test left held, including
  // requests those retirements promote.
  void ReleaseAll() {
    for (;;) {
      std::vector<ExecTask> batch;
      {
        std::lock_guard<std::mutex> lock(mu_);
        batch.swap(held_);
      }
      for (const ExecTask& task : batch) {
        Run(task);
      }
      if (batch.empty()) {
        if (InFlight() == 0) {
          return;
        }
        std::this_thread::yield();
      }
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<ExecTask> held_;
};

class ConflictTrackerTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  IoQueueConfig Config(uint32_t qps = 1) const { return LaneConfig(GetParam(), qps); }
};

TEST_P(ConflictTrackerTest, WriteWriteChain) {
  HeldDevice device(Config());
  // W1 spans stripes 0+1; W2 overlaps its second stripe; W3 is disjoint.
  const CompletionToken w1 = device.Submit(WriteAt(0, 2 * kStripe));
  const CompletionToken w2 = device.Submit(WriteAt(kStripe, kStripe));
  const CompletionToken w3 = device.Submit(WriteAt(3 * kStripe, kStripe));
  ASSERT_TRUE(device.AwaitHeld({w1, w3}));
  ASSERT_TRUE(SpinUntil([&] { return TotalDefers(device) == 1; }));
  EXPECT_FALSE(device.IsHeld(w2));

  // The disjoint write retiring first unblocks nothing.
  ASSERT_TRUE(device.Release(w3));
  EXPECT_FALSE(device.IsHeld(w2));
  // W1 retiring issues W2.
  ASSERT_TRUE(device.Release(w1));
  ASSERT_TRUE(device.AwaitHeld({w2}));
  ASSERT_TRUE(device.Release(w2));
  device.Drain();
  EXPECT_EQ(device.InFlight(), 0u);
  EXPECT_EQ(device.stats().writes, 3u);
  EXPECT_EQ(TotalDefers(device), 1u);
}

TEST_P(ConflictTrackerTest, TrimVsWrite) {
  HeldDevice device(Config());
  // A trim overlapping an in-flight write waits for it; a write overlapping
  // that parked trim waits for the trim.
  const CompletionToken w1 = device.Submit(WriteAt(0, 2 * kStripe));
  const CompletionToken trim = device.Submit(IoRequest::MakeTrim(kStripe, kStripe));
  const CompletionToken w2 = device.Submit(WriteAt(kStripe, kPage));
  ASSERT_TRUE(device.AwaitHeld({w1}));
  ASSERT_TRUE(SpinUntil([&] { return TotalDefers(device) == 2; }));
  EXPECT_FALSE(device.IsHeld(trim));
  EXPECT_FALSE(device.IsHeld(w2));

  ASSERT_TRUE(device.Release(w1));
  ASSERT_TRUE(device.AwaitHeld({trim}));
  EXPECT_FALSE(device.IsHeld(w2));
  ASSERT_TRUE(device.Release(trim));
  ASSERT_TRUE(device.AwaitHeld({w2}));
  ASSERT_TRUE(device.Release(w2));
  device.Drain();
  EXPECT_EQ(device.stats().trims, 1u);
  EXPECT_EQ(device.stats().writes, 2u);
}

TEST_P(ConflictTrackerTest, ReadsNeverOrderAgainstReads) {
  HeldDevice device(Config());
  std::vector<uint8_t> out(2 * kStripe);
  // Two overlapping reads issue together; a write overlapping both waits for
  // BOTH to retire.
  const CompletionToken r1 = device.Submit(IoRequest::MakeRead(0, out.data(), kStripe));
  const CompletionToken r2 =
      device.Submit(IoRequest::MakeRead(0, out.data() + kStripe, kStripe));
  const CompletionToken w = device.Submit(WriteAt(0, kPage));
  ASSERT_TRUE(device.AwaitHeld({r1, r2}));
  ASSERT_TRUE(SpinUntil([&] { return TotalDefers(device) == 1; }));
  EXPECT_FALSE(device.IsHeld(w));

  ASSERT_TRUE(device.Release(r2));
  EXPECT_FALSE(device.IsHeld(w));
  ASSERT_TRUE(device.Release(r1));
  ASSERT_TRUE(device.AwaitHeld({w}));
  ASSERT_TRUE(device.Release(w));
  device.Drain();
  EXPECT_EQ(device.stats().reads, 2u);
  EXPECT_EQ(TotalDefers(device), 1u);
}

TEST_P(ConflictTrackerTest, CrossQpOverlapsAreIndependent) {
  HeldDevice device(Config(/*qps=*/2));
  // QP0 writes stripes 0+1; a QP1 write overlapping stripe 1 is NOT ordered
  // against it (cross-QP ordering is the arbiter's business, exactly like
  // real NVMe), so both issue at once and may retire in either order.
  const CompletionToken q0 = device.Submit(WriteAt(0, 2 * kStripe, /*qp=*/0));
  const CompletionToken q1 = device.Submit(WriteAt(kStripe, kStripe, /*qp=*/1));
  ASSERT_TRUE(device.AwaitHeld({q0, q1}));
  ASSERT_TRUE(device.Release(q1));
  ASSERT_TRUE(device.Release(q0));
  device.Drain();
  EXPECT_EQ(TotalDefers(device), 0u);
}

TEST_P(ConflictTrackerTest, NewRequestNeverJumpsOlderParkedOverlap) {
  HeldDevice device(Config());
  // W1 [0, S) issues. W2 [0, 2S) overlaps W1 and parks. W3 [S, 2S) overlaps
  // only the PARKED W2 — issuing it now would let it retire before the
  // older W2, so it parks too. W4 is disjoint from everything and issues.
  const CompletionToken w1 = device.Submit(WriteAt(0, kStripe));
  const CompletionToken w2 = device.Submit(WriteAt(0, 2 * kStripe));
  const CompletionToken w3 = device.Submit(WriteAt(kStripe, kStripe));
  const CompletionToken w4 = device.Submit(WriteAt(4 * kStripe, kStripe));
  ASSERT_TRUE(device.AwaitHeld({w1, w4}));
  ASSERT_TRUE(SpinUntil([&] { return TotalDefers(device) == 2; }));
  EXPECT_FALSE(device.IsHeld(w2));
  EXPECT_FALSE(device.IsHeld(w3));

  // W1 retiring promotes W2 only: W3 still overlaps the now-issued W2.
  ASSERT_TRUE(device.Release(w1));
  ASSERT_TRUE(device.AwaitHeld({w2}));
  EXPECT_FALSE(device.IsHeld(w3));
  ASSERT_TRUE(device.Release(w2));
  ASSERT_TRUE(device.AwaitHeld({w3}));
  ASSERT_TRUE(device.Release(w3));
  ASSERT_TRUE(device.Release(w4));
  device.Drain();
  EXPECT_EQ(device.NumHeld(), 0u);
  EXPECT_EQ(device.stats().writes, 4u);
}

INSTANTIATE_TEST_SUITE_P(Lanes, ConflictTrackerTest, ::testing::Values(0u, 2u),
                         [](const ::testing::TestParamInfo<uint32_t>& info) {
                           return "Lanes" + std::to_string(info.param);
                         });

// --- Execution lanes (gated backend) -----------------------------------------

// A QueuedDevice over a blocking backend that records execution start/finish
// order and can hold executions at a gate: while the gate is closed, every
// execution that reaches the backend parks after announcing itself, so tests
// can observe which requests the lanes run concurrently.
class GatedLaneDevice final : public QueuedDevice {
 public:
  explicit GatedLaneDevice(const IoQueueConfig& config) : QueuedDevice(config) {}
  ~GatedLaneDevice() override {
    OpenGate();
    StopQueue();
  }

  void CloseGate() {
    std::lock_guard<std::mutex> lock(mu_);
    gate_open_ = false;
  }
  void OpenGate() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      gate_open_ = true;
    }
    gate_cv_.notify_all();
  }
  // Waits until at least `n` executions are parked at the closed gate.
  bool WaitUntilParked(uint32_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    return parked_cv_.wait_for(lock, std::chrono::seconds(10),
                               [this, n] { return parked_ >= n; });
  }
  bool HasStarted(uint64_t offset) const {
    std::lock_guard<std::mutex> lock(mu_);
    return std::find(started_.begin(), started_.end(), offset) != started_.end();
  }

  uint64_t size_bytes() const override { return 64ull << 20; }
  uint64_t page_size() const override { return kPage; }

 protected:
  IoResult ExecuteWrite(uint64_t offset, const void*, uint64_t, PlacementHandle) override {
    return Gate(offset);
  }
  IoResult ExecuteRead(uint64_t offset, void*, uint64_t) override { return Gate(offset); }
  IoResult ExecuteTrim(uint64_t offset, uint64_t) override { return Gate(offset); }

 private:
  IoResult Gate(uint64_t offset) {
    std::unique_lock<std::mutex> lock(mu_);
    started_.push_back(offset);
    ++parked_;
    parked_cv_.notify_all();
    gate_cv_.wait(lock, [this] { return gate_open_; });
    --parked_;
    return IoResult{true, 1000};
  }

  mutable std::mutex mu_;
  std::condition_variable gate_cv_;
  std::condition_variable parked_cv_;
  bool gate_open_ = true;
  uint32_t parked_ = 0;
  std::vector<uint64_t> started_;
};

TEST(ExecLaneTest, DisjointRequestsOccupyAllLanesConcurrently) {
  GatedLaneDevice device(LaneConfig(4));
  device.CloseGate();
  std::vector<CompletionToken> tokens;
  for (uint32_t i = 0; i < 4; ++i) {
    tokens.push_back(device.Submit(WriteAt(i * kStripe, kStripe)));
  }
  // All four disjoint writes execute at once — four parked backend calls,
  // one per lane. The single-dispatcher inline path could never show more
  // than one.
  EXPECT_TRUE(device.WaitUntilParked(4));
  device.OpenGate();
  for (const CompletionToken token : tokens) {
    EXPECT_TRUE(device.Wait(token).ok);
  }
  device.Drain();
}

// A completion on lane 0 promotes a parked request that routes back to lane
// 0 while that lane's queue already holds work. The hand-off happens on the
// lane's own worker, so it must not block on the lane's queue: a bounded
// queue that waited for space here would wait on itself forever.
TEST(ExecLaneTest, CompletionPromotesParkedRequestOntoItsOwnLane) {
  IoQueueConfig config = LaneConfig(2);
  config.sq_depth = 1;
  GatedLaneDevice device(config);
  device.CloseGate();

  // Stripes 0 and 2 both route to lane 0 (2 lanes).
  const CompletionToken w1 = device.Submit(WriteAt(0, kStripe));
  ASSERT_TRUE(device.WaitUntilParked(1));  // Lane 0's worker is busy on W1.
  const CompletionToken queued = device.Submit(WriteAt(2 * kStripe, kStripe));
  const CompletionToken w2 = device.Submit(WriteAt(0, kStripe));  // Parks behind W1.
  ASSERT_TRUE(SpinUntil([&] {
    return TotalDefers(device) == 1 && device.PerLaneStats()[0].dispatches == 2;
  }));

  // W1 retires on lane 0, whose completion hands W2 to lane 0 behind the
  // queued write.
  device.OpenGate();
  const auto reaped = [&device](CompletionToken token) {
    std::optional<IoResult> result;
    return SpinUntil([&] { return (result = device.Poll(token)).has_value(); }) && result->ok;
  };
  EXPECT_TRUE(reaped(w1));
  EXPECT_TRUE(reaped(queued));
  EXPECT_TRUE(reaped(w2));
  device.Drain();

  const std::vector<LaneStats> lanes = device.PerLaneStats();
  EXPECT_EQ(lanes[0].dispatches, 3u);
  EXPECT_EQ(lanes[1].dispatches, 0u);
  // The promotion found the queued write still waiting: depth 2 on a lane
  // fed through a depth-1 submission ring.
  EXPECT_EQ(lanes[0].queue_depth.Max(), 2u);
}

// --- Congestion window (gated backend) ---------------------------------------

// The per-QP outstanding-bytes window must stop Submit() from over-filling
// the pipeline: with a 2-stripe window and stripe-sized writes, the third
// submission parks in Submit (counted as an admission wait) until a
// completion returns window bytes.
TEST(ExecLaneTest, CongestionWindowParksThirdSubmitUntilCompletion) {
  IoQueueConfig config = LaneConfig(2);
  config.qp_window_bytes = 2 * kStripe;
  GatedLaneDevice device(config);
  device.CloseGate();

  std::vector<CompletionToken> tokens(3, kInvalidToken);
  std::atomic<uint32_t> submitted{0};
  std::thread submitter([&device, &tokens, &submitted] {
    for (uint32_t i = 0; i < 3; ++i) {
      tokens[i] = device.Submit(WriteAt(i * kStripe, kStripe));
      submitted.fetch_add(1);
    }
  });

  // Both admitted writes reach their lanes; the third submission must be
  // parked on the window, not the ring (sq_depth is 64).
  ASSERT_TRUE(device.WaitUntilParked(2));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (device.PerQueuePairStats()[0].admission_waits == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(device.PerQueuePairStats()[0].admission_waits, 1u);
  EXPECT_EQ(submitted.load(), 2u);
  EXPECT_FALSE(device.HasStarted(2 * kStripe));

  // Completions return window bytes and release the parked submitter.
  device.OpenGate();
  submitter.join();
  EXPECT_EQ(submitted.load(), 3u);
  for (const CompletionToken token : tokens) {
    EXPECT_TRUE(device.Wait(token).ok);
  }
  device.Drain();
  EXPECT_EQ(device.stats().writes, 3u);
}

// --- Data-level ordering over the simulated SSD ------------------------------

class ExecLaneSimDeviceTest : public ::testing::Test {
 protected:
  void Rebuild(IoQueueConfig queue) {
    device_.reset();
    ssd_ = std::make_unique<SimulatedSsd>(TestSsd());
    nsid_ = *ssd_->CreateNamespace(ssd_->logical_capacity_bytes());
    device_ = std::make_unique<SimSsdDevice>(ssd_.get(), nsid_, &clock_, queue);
  }

  VirtualClock clock_;
  std::unique_ptr<SimulatedSsd> ssd_;
  std::unique_ptr<SimSsdDevice> device_;
  uint32_t nsid_ = 0;
};

// Write A over four pages, trim the third, rewrite it with B — all async on
// one queue pair with page-sized stripes, so every step routes to a
// different lane and only the conflict tracker keeps the sequence straight.
TEST_F(ExecLaneSimDeviceTest, TrimVsWriteSequenceResolvesInSubmissionOrder) {
  IoQueueConfig queue = LaneConfig(4);
  queue.lane_stripe_bytes = kPage;
  Rebuild(queue);

  const std::vector<uint8_t> a(4 * kPage, 0xaa);
  const std::vector<uint8_t> b(kPage, 0xbb);
  for (uint32_t round = 0; round < 16; ++round) {
    std::vector<CompletionToken> seq;
    seq.push_back(device_->Submit(
        IoRequest::MakeWrite(0, a.data(), 4 * kPage, kNoPlacement, 0)));
    seq.push_back(device_->Submit(IoRequest::MakeTrim(2 * kPage, kPage, 0)));
    seq.push_back(device_->Submit(
        IoRequest::MakeWrite(2 * kPage, b.data(), kPage, kNoPlacement, 0)));
    for (const CompletionToken token : seq) {
      ASSERT_TRUE(device_->Wait(token).ok);
    }
    std::vector<uint8_t> out(4 * kPage, 0);
    ASSERT_TRUE(device_->Read(0, out.data(), 4 * kPage));
    for (uint64_t i = 0; i < 4 * kPage; ++i) {
      const uint8_t expected = (i / kPage == 2) ? 0xbb : 0xaa;
      ASSERT_EQ(out[i], expected) << "round " << round << " byte " << i;
    }
  }
}

// 4 submitters x 4 lanes x 4 QPs with a Drain() thread hammering the
// barrier: the TSan target for the lanes (enforced in CI's tsan job).
TEST_F(ExecLaneSimDeviceTest, FourSubmittersFourLanesSurviveDrainRacingSubmit) {
  constexpr uint32_t kThreads = 4;
  constexpr uint32_t kWritesPerThread = 250;
  IoQueueConfig queue = LaneConfig(4, kThreads);
  queue.sq_depth = 16;
  queue.lane_stripe_bytes = kPage;  // Page striping: every write hops lanes.
  Rebuild(queue);

  const uint64_t span = device_->size_bytes() / kThreads / kPage * kPage;
  std::atomic<uint32_t> failures{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> submitters;
  for (uint32_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([this, t, span, &failures] {
      std::vector<uint8_t> data(kPage, static_cast<uint8_t>(t + 1));
      std::vector<CompletionToken> window;
      for (uint32_t i = 0; i < kWritesPerThread; ++i) {
        // Offsets wrap every 6 pages while up to 8 writes are in flight, so
        // the stream constantly re-hits offsets it still has outstanding —
        // same-QP overlaps for the conflict tracker — while the page stripe
        // spreads them across lanes.
        const uint64_t offset = t * span + static_cast<uint64_t>(i % 6) * kPage;
        window.push_back(
            device_->Submit(IoRequest::MakeWrite(offset, data.data(), kPage, t + 1, t)));
        if (window.size() >= 8) {
          for (const CompletionToken token : window) {
            if (!device_->Wait(token).ok) {
              ++failures;
            }
          }
          window.clear();
        }
      }
      for (const CompletionToken token : window) {
        if (!device_->Wait(token).ok) {
          ++failures;
        }
      }
    });
  }
  std::thread drainer([this, &done] {
    while (!done.load(std::memory_order_relaxed)) {
      device_->Drain();
      std::this_thread::yield();
    }
  });
  for (auto& submitter : submitters) {
    submitter.join();
  }
  done.store(true);
  drainer.join();
  device_->Drain();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(device_->InFlight(), 0u);
  EXPECT_EQ(device_->stats().writes, kThreads * kWritesPerThread);

  // Every arbitrated request went through exactly one lane.
  uint64_t lane_dispatches = 0;
  for (const LaneStats& lane : device_->PerLaneStats()) {
    lane_dispatches += lane.dispatches;
  }
  uint64_t qp_dispatches = 0;
  for (const QueuePairStats& qp : device_->PerQueuePairStats()) {
    qp_dispatches += qp.dispatched;
  }
  EXPECT_EQ(lane_dispatches, qp_dispatches);
}

// exec_lanes=0 must be the PR 3 inline pipeline, bit for bit: same data,
// same stats, same latency samples as a default-config device over an
// identical op sequence.
TEST_F(ExecLaneSimDeviceTest, LanesZeroIsBitIdenticalToInlineDispatcherPath) {
  auto run_sequence = [](SimulatedSsd* ssd, uint32_t nsid, VirtualClock* clock,
                         const IoQueueConfig& queue, std::vector<uint8_t>* readback,
                         DeviceStats* stats) {
    SimSsdDevice device(ssd, nsid, clock, queue);
    std::vector<uint8_t> data(2 * kPage);
    std::vector<CompletionToken> tokens;
    for (uint32_t i = 0; i < 64; ++i) {
      for (uint64_t b = 0; b < data.size(); ++b) {
        data[b] = static_cast<uint8_t>(i * 31 + b);
      }
      const uint64_t offset = static_cast<uint64_t>(i % 16) * 2 * kPage;
      tokens.push_back(device.Submit(
          IoRequest::MakeWrite(offset, data.data(), 2 * kPage, kNoPlacement, 0)));
      if (i % 8 == 7) {
        tokens.push_back(device.Submit(IoRequest::MakeTrim(offset, kPage, 0)));
      }
      for (const CompletionToken token : tokens) {
        ASSERT_TRUE(device.Wait(token).ok);
      }
      tokens.clear();
    }
    device.Drain();
    readback->assign(32 * kPage, 0);
    ASSERT_TRUE(device.Read(0, readback->data(), readback->size()));
    *stats = device.stats();
  };

  IoQueueConfig default_config;  // The pre-lane pipeline.
  IoQueueConfig lanes_zero;
  lanes_zero.exec_lanes = 0;
  lanes_zero.lane_stripe_bytes = kStripe;

  std::vector<uint8_t> readback_default;
  std::vector<uint8_t> readback_lanes0;
  DeviceStats stats_default;
  DeviceStats stats_lanes0;
  {
    SimulatedSsd ssd(TestSsd());
    const uint32_t nsid = *ssd.CreateNamespace(ssd.logical_capacity_bytes());
    VirtualClock clock;
    run_sequence(&ssd, nsid, &clock, default_config, &readback_default, &stats_default);
  }
  {
    SimulatedSsd ssd(TestSsd());
    const uint32_t nsid = *ssd.CreateNamespace(ssd.logical_capacity_bytes());
    VirtualClock clock;
    run_sequence(&ssd, nsid, &clock, lanes_zero, &readback_lanes0, &stats_lanes0);
  }

  EXPECT_EQ(readback_default, readback_lanes0);
  EXPECT_EQ(stats_default.writes, stats_lanes0.writes);
  EXPECT_EQ(stats_default.write_bytes, stats_lanes0.write_bytes);
  EXPECT_EQ(stats_default.trims, stats_lanes0.trims);
  EXPECT_EQ(stats_default.io_errors, stats_lanes0.io_errors);
  EXPECT_EQ(stats_default.write_latency_ns.Count(), stats_lanes0.write_latency_ns.Count());
  EXPECT_EQ(stats_default.write_latency_ns.Sum(), stats_lanes0.write_latency_ns.Sum());
}

TEST_F(ExecLaneSimDeviceTest, LaneStatsSurfaceAndReset) {
  Rebuild(LaneConfig(2));
  ASSERT_EQ(device_->PerLaneStats().size(), 2u);

  std::vector<uint8_t> data(kPage, 0x5a);
  std::vector<CompletionToken> tokens;
  for (uint32_t i = 0; i < 32; ++i) {
    tokens.push_back(device_->Submit(IoRequest::MakeWrite(
        static_cast<uint64_t>(i) * kStripe, data.data(), kPage, kNoPlacement, 0)));
  }
  for (const CompletionToken token : tokens) {
    EXPECT_TRUE(device_->Wait(token).ok);
  }
  device_->Drain();

  const std::vector<LaneStats> lanes = device_->PerLaneStats();
  ASSERT_EQ(lanes.size(), 2u);
  // Consecutive stripes alternate lanes: an even split of the 32 writes.
  EXPECT_EQ(lanes[0].dispatches, 16u);
  EXPECT_EQ(lanes[1].dispatches, 16u);
  for (const LaneStats& lane : lanes) {
    EXPECT_GT(lane.busy_ns, 0u);  // Accumulated execution time.
    EXPECT_EQ(lane.queue_depth.Count(), lane.dispatches);
  }
  EXPECT_EQ(TotalDefers(*device_), 0u);  // All offsets disjoint.

  // The inline path reports no lanes.
  Rebuild(LaneConfig(0));
  EXPECT_TRUE(device_->PerLaneStats().empty());

  // ResetStats clears lane counters alongside QP/aggregate ones.
  Rebuild(LaneConfig(2));
  EXPECT_TRUE(device_->Write(0, data.data(), kPage, kNoPlacement));
  device_->Drain();
  device_->ResetStats();
  for (const LaneStats& lane : device_->PerLaneStats()) {
    EXPECT_EQ(lane.dispatches + lane.busy_ns, 0u);
    EXPECT_EQ(lane.queue_depth.Count(), 0u);
  }
}

}  // namespace
}  // namespace fdpcache
