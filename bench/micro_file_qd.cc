// File-backend queue-depth sweep: QD 1/4/16/64 x {file-sync, thread-pool,
// uring} over a real file, 4 KiB page I/O.
//
// One submitter keeps QD requests outstanding through the Submit/Poll/Wait
// pipeline against each engine:
//   file-sync    — FileDevice: the dispatcher executes pread/pwrite inline,
//                  so queue depth only overlaps payload preparation with the
//                  (synchronous) I/O; the degenerate baseline.
//   thread-pool  — UringFileDevice with prefer_uring=false: BeginExecute
//                  hands the op to the device's execution lanes (4 by
//                  default, striped at the I/O size), completions arrive from
//                  lane threads; the portable async fallback.
//   uring        — UringFileDevice on a real kernel ring: BeginExecute fills
//                  an SQE and returns, a reaper thread collects CQEs. At
//                  QD 1 every op pays the full submit -> reap -> wake round
//                  trip serially; deeper queues hide it, which is the whole
//                  point of the async backend.
// Rows are MiB/s per (engine, op, QD), written to BENCH_file.json for the
// perf trajectory. When the kernel lacks io_uring the "uring" rows record
// the engine that actually served them (engine_live = "thread-pool") so the
// CI gate can skip cleanly instead of asserting against the wrong engine.
//
// SHAPE CHECKS:
//   1. no write/read failures anywhere in the sweep (any core count);
//   2. (uring live, >= 2 cores) uring writes at QD 16 >= 1.5x QD 1 — the
//      async engine must actually pipeline small I/O, not serialize it.
#include <stdlib.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/navy/file_device.h"
#include "src/navy/uring_file_device.h"

namespace fdpcache {
namespace {

constexpr uint64_t kIoBytes = 4096;               // Page-sized: round-trip bound.
constexpr uint64_t kFileBytes = 32 * 1024 * 1024;

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

void FillPayload(std::vector<uint8_t>* buffer, uint64_t seed) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ull + 1;
  auto* words = reinterpret_cast<uint64_t*>(buffer->data());
  const size_t n = buffer->size() / sizeof(uint64_t);
  for (size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    words[i] = x;
  }
}

struct EngineSpec {
  std::string name;      // Requested engine ("file-sync", "thread-pool", "uring").
  bool uring_device = false;
  bool prefer_uring = false;
};

struct Row {
  std::string engine;       // Requested.
  std::string engine_live;  // What actually served it (uring may degrade).
  std::string op;
  uint32_t qd = 0;
  double mib_per_sec = 0.0;
  double elapsed_s = 0.0;
  uint64_t ops = 0;
  uint64_t failures = 0;
};

std::unique_ptr<QueuedDevice> MakeDevice(const EngineSpec& spec, const std::string& path,
                                         std::string* engine_live) {
  FileBackingOptions backing;
  backing.path = path;
  backing.size_bytes = kFileBytes;
  backing.page_size = kIoBytes;
  if (!spec.uring_device) {
    auto device = std::make_unique<FileDevice>(backing, IoQueueConfig{});
    if (!device->ok()) {
      std::fprintf(stderr, "micro_file_qd: %s\n", device->error().c_str());
      return nullptr;
    }
    *engine_live = "sync";
    return device;
  }
  UringFileDevice::Options options;
  options.backing = backing;
  options.prefer_uring = spec.prefer_uring;
  // Without a ring the device runs on execution lanes routed by offset
  // stripe; an I/O-sized stripe spreads consecutive requests across them.
  IoQueueConfig queue;
  queue.lane_stripe_bytes = kIoBytes;
  auto device = std::make_unique<UringFileDevice>(options, queue);
  if (!device->ok()) {
    std::fprintf(stderr, "micro_file_qd: %s\n", device->error().c_str());
    return nullptr;
  }
  *engine_live = device->engine_name();
  return device;
}

// Keeps `qd` same-kind requests outstanding, cycling sequentially through
// disjoint page-sized chunks (no overlap, so the conflict tracker never
// serializes the window and the sweep measures the engine, not ordering).
Row RunCombo(const EngineSpec& spec, const std::string& path, bool writes, uint32_t qd,
             uint64_t num_ops) {
  std::string engine_live;
  std::unique_ptr<QueuedDevice> device = MakeDevice(spec, path, &engine_live);
  Row row;
  row.engine = spec.name;
  row.engine_live = engine_live;
  row.op = writes ? "write" : "read";
  row.qd = qd;
  if (device == nullptr) {
    row.failures = num_ops;
    return row;
  }

  std::vector<std::vector<uint8_t>> slots(qd, std::vector<uint8_t>(kIoBytes));
  std::vector<CompletionToken> tokens(qd, kInvalidToken);
  const uint64_t chunks = kFileBytes / kIoBytes;
  const uint64_t start = NowNs();
  for (uint64_t i = 0; i < num_ops; ++i) {
    const uint32_t slot = static_cast<uint32_t>(i % qd);
    if (tokens[slot] != kInvalidToken && !device->Wait(tokens[slot]).ok) {
      ++row.failures;
    }
    const uint64_t offset = (i % chunks) * kIoBytes;
    if (writes) {
      FillPayload(&slots[slot], i);
      tokens[slot] = device->Submit(
          IoRequest::MakeWrite(offset, slots[slot].data(), kIoBytes, kNoPlacement));
    } else {
      tokens[slot] = device->Submit(IoRequest::MakeRead(offset, slots[slot].data(), kIoBytes));
    }
    ++row.ops;
  }
  for (const CompletionToken token : tokens) {
    if (token != kInvalidToken && !device->Wait(token).ok) {
      ++row.failures;
    }
  }
  device->Drain();
  const double elapsed = static_cast<double>(NowNs() - start) * 1e-9;
  row.elapsed_s = elapsed;
  row.mib_per_sec =
      elapsed > 0.0 ? static_cast<double>(row.ops * kIoBytes) / (1024.0 * 1024.0) / elapsed : 0.0;
  return row;
}

void EmitJson(const std::vector<Row>& rows) {
  std::FILE* f = std::fopen("BENCH_file.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "micro_file_qd: cannot write BENCH_file.json\n");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_file_qd\",\n");
  std::fprintf(f, "  \"hardware_threads\": %u,\n", std::thread::hardware_concurrency());
  std::fprintf(f, "  \"io_bytes\": %llu,\n", static_cast<unsigned long long>(kIoBytes));
  std::fprintf(f, "  \"kernel_io_uring\": %s,\n",
               UringFileDevice::KernelSupportsIoUring() ? "true" : "false");
  std::fprintf(f, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"engine\": \"%s\", \"engine_live\": \"%s\", \"op\": \"%s\", "
                 "\"qd\": %u, \"mib_per_sec\": %.2f, \"elapsed_s\": %.4f, \"ops\": %llu, "
                 "\"failures\": %llu}%s\n",
                 r.engine.c_str(), r.engine_live.c_str(), r.op.c_str(), r.qd, r.mib_per_sec,
                 r.elapsed_s, static_cast<unsigned long long>(r.ops),
                 static_cast<unsigned long long>(r.failures),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace
}  // namespace fdpcache

int main() {
  using namespace fdpcache;
  PrintHeader("micro_file_qd: file-backend queue-depth sweep, sync vs thread-pool vs io_uring",
              "n/a (real-hardware backend scaling study; paper's evaluation runs on real "
              "FDP SSDs)");
  std::printf("%s\n", UringFileDevice::KernelIoUringFeatureString().c_str());

  uint64_t num_ops = static_cast<uint64_t>(20'000 * BenchScale());
  num_ops = num_ops < 256 ? 256 : num_ops;
  const std::vector<uint32_t> depths = {1, 4, 16, 64};
  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::printf("hardware threads: %u, %llu x %llu KiB ops per combo\n\n", hw_threads,
              static_cast<unsigned long long>(num_ops),
              static_cast<unsigned long long>(kIoBytes / 1024));

  char temp_template[] = "/tmp/fdpbench_fileqd_XXXXXX";
  const int fd = ::mkstemp(temp_template);
  if (fd < 0) {
    std::fprintf(stderr, "micro_file_qd: cannot create temp file under /tmp\n");
    return 1;
  }
  ::close(fd);
  const std::string path = temp_template;

  const std::vector<EngineSpec> engines = {
      {"file-sync", false, false},
      {"thread-pool", true, false},
      {"uring", true, true},
  };

  std::vector<Row> rows;
  TextTable table({"engine", "live", "op", "qd", "MiB/s", "elapsed", "ops", "failures"});
  double uring_write_qd1 = 0.0;
  double uring_write_qd16 = 0.0;
  bool uring_live = false;
  for (const EngineSpec& engine : engines) {
    for (const bool writes : {true, false}) {
      for (const uint32_t qd : depths) {
        // Best of two: one scheduler hiccup in a sub-second window otherwise
        // dominates the row.
        Row r = RunCombo(engine, path, writes, qd, num_ops);
        const Row again = RunCombo(engine, path, writes, qd, num_ops);
        if (again.failures == 0 && again.mib_per_sec > r.mib_per_sec) {
          r = again;
        }
        if (engine.name == "uring" && r.engine_live == "uring" && writes) {
          uring_live = true;
          if (qd == 1) {
            uring_write_qd1 = r.mib_per_sec;
          } else if (qd == 16) {
            uring_write_qd16 = r.mib_per_sec;
          }
        }
        table.AddRow({r.engine, r.engine_live, r.op, std::to_string(r.qd),
                      FormatDouble(r.mib_per_sec, 1), FormatDouble(r.elapsed_s, 2) + "s",
                      std::to_string(r.ops), std::to_string(r.failures)});
        rows.push_back(r);
      }
    }
  }
  std::printf("%s\n", table.ToString().c_str());

  EmitJson(rows);
  std::printf("wrote BENCH_file.json\n");
  std::remove(path.c_str());

  bool failures_ok = true;
  for (const Row& r : rows) {
    if (r.failures != 0) {
      std::printf("SHAPE CHECK: FAIL (%llu failures in %s/%s/qd%u)\n",
                  static_cast<unsigned long long>(r.failures), r.engine.c_str(), r.op.c_str(),
                  r.qd);
      failures_ok = false;
    }
  }
  if (!failures_ok) {
    return 1;
  }
  if (!uring_live) {
    std::printf("SHAPE CHECK: SKIP (kernel io_uring unavailable; uring rows served by the "
                "ring-less lane engine)\n\n");
    return 0;
  }
  if (hw_threads < 2) {
    std::printf("SHAPE CHECK: SKIP (uring QD scaling needs >= 2 cores, have %u; measured "
                "QD16/QD1 %sx)\n\n",
                hw_threads,
                FormatDouble(uring_write_qd1 > 0 ? uring_write_qd16 / uring_write_qd1 : 0.0, 2)
                    .c_str());
    return 0;
  }
  const double ratio = uring_write_qd1 > 0.0 ? uring_write_qd16 / uring_write_qd1 : 0.0;
  const bool qd_ok = uring_write_qd16 >= 1.5 * uring_write_qd1;
  PrintShapeCheck(qd_ok,
                  "uring writes at QD16 >= 1.5x QD1, got " + FormatDouble(ratio, 2) + "x");
  return qd_ok ? 0 : 1;
}
