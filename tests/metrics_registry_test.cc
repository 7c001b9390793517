// MetricsRegistry / MetricsExporter tests (src/obs/metrics.h): handle
// idempotency and type safety, Prometheus text rendering (families, labels,
// cumulative histogram buckets), collector execution at render time, the
// live exporter's file snapshots and unix-socket endpoint, and the device
// families both cache-side collectors export.
#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include <stdlib.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "src/cache/sharded_cache.h"
#include "src/harness/experiment.h"
#include "src/navy/sim_ssd_device.h"

namespace fdpcache {
namespace obs {
namespace {

TEST(MetricsRegistryTest, HandlesAreStableAndTyped) {
  MetricsRegistry reg;
  MetricCounter* c = reg.Counter("fdpcache_test_total");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(reg.Counter("fdpcache_test_total"), c);  // Idempotent.
  // Same name under a different type is a registration error, not a crash.
  EXPECT_EQ(reg.Gauge("fdpcache_test_total"), nullptr);
  EXPECT_EQ(reg.Histogram("fdpcache_test_total"), nullptr);
}

TEST(MetricsRegistryTest, RendersCounterGaugeHistogram) {
  MetricsRegistry reg;
  reg.Counter("fdpcache_ops_total")->Add(3);
  reg.Gauge("fdpcache_queue_depth")->Set(2.5);
  MetricHistogram* h = reg.Histogram("fdpcache_latency_ns");
  h->Observe(1);
  h->Observe(100);
  h->Observe(1000);
  const std::string text = reg.RenderPrometheus();
  EXPECT_NE(text.find("# TYPE fdpcache_ops_total counter"), std::string::npos);
  EXPECT_NE(text.find("fdpcache_ops_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE fdpcache_queue_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("fdpcache_queue_depth 2.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE fdpcache_latency_ns histogram"), std::string::npos);
  EXPECT_NE(text.find("fdpcache_latency_ns_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("fdpcache_latency_ns_sum 1101"), std::string::npos);
  EXPECT_NE(text.find("fdpcache_latency_ns_count 3"), std::string::npos);
}

TEST(MetricsRegistryTest, LabeledMetricsShareOneFamilyTypeLine) {
  MetricsRegistry reg;
  reg.Counter("fdpcache_qp_dispatched{qp=\"0\"}")->Add(5);
  reg.Counter("fdpcache_qp_dispatched{qp=\"1\"}")->Add(7);
  const std::string text = reg.RenderPrometheus();
  // One TYPE line for the family, one sample line per label set.
  size_t first = text.find("# TYPE fdpcache_qp_dispatched counter");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE fdpcache_qp_dispatched counter", first + 1),
            std::string::npos);
  EXPECT_NE(text.find("fdpcache_qp_dispatched{qp=\"0\"} 5"), std::string::npos);
  EXPECT_NE(text.find("fdpcache_qp_dispatched{qp=\"1\"} 7"), std::string::npos);
}

TEST(MetricsRegistryTest, LabeledHistogramMergesLeIntoLabelSet) {
  MetricsRegistry reg;
  reg.Histogram("fdpcache_io_ns{qp=\"2\"}")->Observe(10);
  const std::string text = reg.RenderPrometheus();
  EXPECT_NE(text.find("fdpcache_io_ns_bucket{qp=\"2\",le=\""), std::string::npos);
  EXPECT_NE(text.find("fdpcache_io_ns_bucket{qp=\"2\",le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("fdpcache_io_ns_sum{qp=\"2\"} 10"), std::string::npos);
}

TEST(MetricsRegistryTest, HistogramBucketsAreCumulative) {
  MetricsRegistry reg;
  MetricHistogram* h = reg.Histogram("fdpcache_hist");
  h->Observe(1);   // bit_width 1 -> le 1.
  h->Observe(2);   // bit_width 2 -> le 3.
  h->Observe(3);   // bit_width 2 -> le 3.
  const std::string text = reg.RenderPrometheus();
  EXPECT_NE(text.find("fdpcache_hist_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("fdpcache_hist_bucket{le=\"3\"} 3"), std::string::npos);
}

TEST(MetricsRegistryTest, CollectorsRunAtRenderTime) {
  MetricsRegistry reg;
  int value = 1;
  reg.AddCollector([&value](MetricsRegistry& r) {
    r.Gauge("fdpcache_live_value")->Set(static_cast<double>(value));
  });
  EXPECT_NE(reg.RenderPrometheus().find("fdpcache_live_value 1"), std::string::npos);
  value = 42;  // Collectors snapshot at every render, not at registration.
  EXPECT_NE(reg.RenderPrometheus().find("fdpcache_live_value 42"), std::string::npos);
}

TEST(MetricsExporterTest, WritesPeriodicFileSnapshots) {
  MetricsRegistry reg;
  reg.Counter("fdpcache_snapshot_total")->Add(9);
  const std::string path = ::testing::TempDir() + "/metrics_exporter_test.prom";
  std::remove(path.c_str());
  {
    MetricsExporterOptions options;
    options.interval_ms = 10;
    options.file_path = path;
    MetricsExporter exporter(&reg, options);
    exporter.Start();
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    exporter.Stop();
    EXPECT_GE(exporter.snapshots_written(), 1u);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("fdpcache_snapshot_total 9"), std::string::npos);
  std::remove(path.c_str());
}

TEST(MetricsExporterTest, ServesSnapshotsOnUnixSocket) {
  MetricsRegistry reg;
  reg.Counter("fdpcache_socket_total")->Add(4);
  const std::string sock_path = ::testing::TempDir() + "/metrics_exporter_test.sock";
  MetricsExporterOptions options;
  options.interval_ms = 50;
  options.socket_path = sock_path;
  MetricsExporter exporter(&reg, options);
  exporter.Start();

  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, sock_path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  std::string received;
  char buf[1024];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) {
      break;
    }
    received.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  exporter.Stop();
  EXPECT_NE(received.find("fdpcache_socket_total 4"), std::string::npos);
}

// The "# TYPE <family>" names in a Prometheus rendering that start with
// `prefix`.
std::set<std::string> Families(const std::string& text, const std::string& prefix) {
  std::set<std::string> out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE " + prefix, 0) == 0) {
      out.insert(line.substr(7, line.find(' ', 7) - 7));
    }
  }
  return out;
}

const std::set<std::string> kQueueFamilies = {
    "fdpcache_lane_busy_ns",      "fdpcache_lane_dispatches", "fdpcache_qp_conflict_defers",
    "fdpcache_qp_dispatched",     "fdpcache_qp_reads",        "fdpcache_qp_window_stalls",
    "fdpcache_qp_writes"};

// ShardedCache and ExperimentRunner export the device's per-queue-pair and
// per-lane stats through one function, so they render the same families.
TEST(DeviceMetricsTest, ShardedCacheRendersQueueFamilies) {
  SsdConfig ssd_config;
  ssd_config.geometry.pages_per_block = 16;
  ssd_config.geometry.num_superblocks = 16;
  SimulatedSsd ssd(ssd_config);
  VirtualClock clock;
  IoQueueConfig queue;
  queue.num_queue_pairs = 2;
  queue.exec_lanes = 1;
  SimSsdDevice device(&ssd, *ssd.CreateNamespace(ssd.logical_capacity_bytes()), &clock, queue);
  HybridCacheConfig config;
  config.ram_bytes = 1024 * 1024;
  ShardedCache cache(1, [&](uint32_t) { return std::make_unique<HybridCache>(&device, config); });
  cache.AttachDevice(&device);
  MetricsRegistry reg;
  cache.RegisterMetrics(reg);
  const std::string text = reg.RenderPrometheus();
  std::set<std::string> families = Families(text, "fdpcache_qp_");
  const std::set<std::string> lanes = Families(text, "fdpcache_lane_");
  families.insert(lanes.begin(), lanes.end());
  EXPECT_EQ(families, kQueueFamilies);
  EXPECT_NE(text.find("fdpcache_qp_window_stalls{qp=\"1\"} 0"), std::string::npos);
}

TEST(DeviceMetricsTest, ExperimentRunnerRendersQueueFamilies) {
  char path[] = "/tmp/fdpcache_metrics_XXXXXX";
  const int fd = ::mkstemp(path);
  ASSERT_GE(fd, 0);
  ::close(fd);
  ExperimentConfig config;
  config.num_superblocks = 64;
  config.total_ops = 2000;
  config.max_warmup_ops = 2000;
  config.queue_pairs = 2;
  config.exec_lanes = 1;
  config.metrics_interval_ms = 1000;
  config.metrics_path = path;
  ExperimentRunner(config).Run();
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::remove(path);
  std::set<std::string> families = Families(text.str(), "fdpcache_qp_");
  const std::set<std::string> lanes = Families(text.str(), "fdpcache_lane_");
  families.insert(lanes.begin(), lanes.end());
  EXPECT_EQ(families, kQueueFamilies);
}

}  // namespace
}  // namespace obs
}  // namespace fdpcache
