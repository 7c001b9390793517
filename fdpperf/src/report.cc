#include "src/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/spans.h"

namespace fdpperf {

namespace {

// Fewest samples for which percentile q leaves at least ten samples beyond it.
size_t MinSamples(double q) {
  return static_cast<size_t>(std::ceil(10.0 / (1.0 - q / 100.0)));
}

double PrefixPercentileUs(const PhaseResult& r, const LatencyLog& log, double q) {
  return log.PrefixChunkPercentileUs(q, r.windows);
}

double ExactPercentileUs(const std::vector<uint64_t>& ns, double q) {
  std::vector<double> values(ns.begin(), ns.end());
  return Percentile(&values, q) / 1e3;
}

// The end-to-end metrics read on the wall clock; EndToEnd scales them to
// host speed 1.
bool IsWallMetric(const std::string& name) {
  return name == "ops_per_s" || name == "setup_s" || name == "get_p50_us" ||
         name == "get_p99_us" || name == "set_p50_us" || name == "set_p99_us";
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// Span totals of a traced run.
struct SpanTotals {
  double self_ns[static_cast<size_t>(Layer::kCount)] = {};
  double client_top_ns = 0;  // Top-level spans on client threads.
  double device_ns = 0;      // All device-boundary span time.
  double device_wait_ns = 0;  // ... of which blocking Wait/Drain.
  std::vector<double> sync_read_ns;
  std::vector<double> sync_write_ns;
};

SpanTotals Aggregate() {
  SpanTotals t;
  for (const ThreadSpans* buffer : SpanRecorder::Instance().Buffers()) {
    const bool client_thread =
        std::any_of(buffer->spans.begin(), buffer->spans.end(),
                    [](const Span& s) { return s.kind == SpanKind::kClientOp; });
    for (const Span& s : buffer->spans) {
      if (s.end_ns == 0) {
        continue;  // Still open when tracing stopped.
      }
      t.self_ns[static_cast<size_t>(LayerOf(s.kind))] += static_cast<double>(s.self_ns());
      if (client_thread && s.parent < 0) {
        t.client_top_ns += static_cast<double>(s.duration_ns());
      }
      if (LayerOf(s.kind) == Layer::kDevice) {
        t.device_ns += static_cast<double>(s.duration_ns());
      }
      switch (s.kind) {
        case SpanKind::kDevWait:
        case SpanKind::kDevDrain:
          t.device_wait_ns += static_cast<double>(s.duration_ns());
          break;
        case SpanKind::kDevSyncRead:
          t.sync_read_ns.push_back(static_cast<double>(s.duration_ns()));
          break;
        case SpanKind::kDevSyncWrite:
          t.sync_write_ns.push_back(static_cast<double>(s.duration_ns()));
          break;
        default:
          break;
      }
    }
  }
  return t;
}

double SelfNs(const SpanTotals& t, Layer layer) { return t.self_ns[static_cast<size_t>(layer)]; }

void PrintNumber(double v) {
  if (!std::isfinite(v)) {
    v = 0.0;
  }
  std::printf("%.17g", v);
}

}  // namespace

double OpsPerSecond(const PhaseResult& r) {
  if (r.window_ops_per_s.empty()) {
    return r.wall_s > 0 ? static_cast<double>(r.ops) / r.wall_s : 0.0;
  }
  return Median(r.window_ops_per_s);
}

Outcome Judge(const std::vector<PhaseResult>& runs) {
  uint64_t ops = 0;
  uint64_t mismatches = 0;
  uint64_t failed_ops = 0;
  uint64_t device_errors = 0;
  uint64_t flush_failures = 0;
  for (const PhaseResult& r : runs) {
    ops += r.ops;
    mismatches += r.mismatches;
    failed_ops += r.failed_ops;
    device_errors += LayerDelta{r.begin, r.end}.device_errors() +
                     (r.end.boundary.failed - r.begin.boundary.failed);
    flush_failures += r.flush_failures;
  }
  Outcome o;
  o.attempted = std::max<uint64_t>(ops, 1);
  const uint64_t bad = mismatches + failed_ops + device_errors + flush_failures;
  o.failed = std::min(bad, o.attempted);
  o.correct = bad == 0 && !runs.empty() &&
              std::all_of(runs.begin(), runs.end(), [](const PhaseResult& r) { return r.ops > 0; });
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "ops=%llu mismatches=%llu failed_ops=%llu device_errors=%llu flush_failures=%llu",
                static_cast<unsigned long long>(ops), static_cast<unsigned long long>(mismatches),
                static_cast<unsigned long long>(failed_ops),
                static_cast<unsigned long long>(device_errors),
                static_cast<unsigned long long>(flush_failures));
  o.detail = buf;
  return o;
}

namespace {

// The end-to-end metrics one stack's phase gives on its own.
Metrics StackMetrics(const PhaseResult& r) {
  const LayerDelta prefix{r.begin, r.prefix_end};
  const double prefix_ops = static_cast<double>(std::max<uint64_t>(r.prefix_ops, 1));
  Metrics m;
  m.push_back({"ops_per_s", OpsPerSecond(r), "1/s"});
  m.push_back({"get_p50_us", PrefixPercentileUs(r, r.get, 50), "us"});
  m.push_back({"get_p99_us", PrefixPercentileUs(r, r.get, 99), "us"});
  m.push_back({"set_p50_us", PrefixPercentileUs(r, r.set, 50), "us"});
  m.push_back({"set_p99_us", PrefixPercentileUs(r, r.set, 99), "us"});
  m.push_back({"hit_ratio", prefix.HitRatio(), "ratio"});
  m.push_back({"dlwa", prefix.Dlwa(), "ratio"});
  m.push_back({"alwa", prefix.Alwa(), "ratio"});
  m.push_back({"vread_p99_us", ExactPercentileUs(r.vread_ns, 99), "us"});
  m.push_back({"vwrite_p99_us", ExactPercentileUs(r.vwrite_ns, 99), "us"});
  m.push_back({"vops_per_s",
               Ratio(prefix_ops, static_cast<double>(prefix.velapsed_ns()) / 1e9), "1/s"});
  m.push_back({"energy_uj_per_op", prefix.EnergyUj() / prefix_ops, "uJ/op"});
  return m;
}

}  // namespace

Metrics EndToEnd(const std::vector<PhaseResult>& stacks, const std::vector<double>& setup_s,
                 double host_speed) {
  std::vector<Metrics> each;
  for (const PhaseResult& r : stacks) {
    each.push_back(StackMetrics(r));
  }
  Metrics m = each.front();
  for (size_t k = 0; k < m.size(); ++k) {
    std::vector<double> values;
    for (const Metrics& stack : each) {
      values.push_back(stack[k].value);
    }
    m[k].value = Median(values);
  }
  const Outcome outcome = Judge(stacks);
  m.push_back({"ok_ratio",
               static_cast<double>(outcome.attempted - outcome.failed) /
                   static_cast<double>(outcome.attempted),
               "ratio"});
  m.push_back({"setup_s", Median(setup_s), "s"});
  m.push_back({"peak_rss_mb", PeakRssMb(), "MiB"});
  for (Metric& metric : m) {
    if (IsWallMetric(metric.name)) {
      metric.value = metric.name == "ops_per_s" ? metric.value / host_speed
                                                : metric.value * host_speed;
    }
  }
  return m;
}

void PrintHostGauge(const HostGauge& gauge, const Metrics& scaled) {
  const std::vector<double>& probes = gauge.samples_ns();
  const auto [lo, hi] = std::minmax_element(probes.begin(), probes.end());
  std::printf("# host gauge: %zu probes, median %.4f ms (min %.4f, max %.4f), reference %.4f ms"
              " -> host speed %.4f\n",
              probes.size(), Median(probes) / 1e6, lo == probes.end() ? 0.0 : *lo / 1e6,
              hi == probes.end() ? 0.0 : *hi / 1e6, gauge.reference_ns() / 1e6,
              gauge.speed());
  std::printf("# wall metrics as measured (the result gives them at host speed 1):");
  for (const Metric& metric : scaled) {
    if (IsWallMetric(metric.name)) {
      const double speed = gauge.speed();
      std::printf(" %s=%.6g", metric.name.c_str(),
                  metric.name == "ops_per_s" ? metric.value * speed : metric.value / speed);
    }
  }
  std::printf("\n");
}

Metrics PerLayer(const PhaseResult& r, double untraced_ops_per_s, double traced_ops_per_s) {
  const LayerDelta d{r.begin, r.prefix_end};
  const LayerSnapshot& a = r.begin;
  const LayerSnapshot& b = r.prefix_end;
  const double ops = static_cast<double>(std::max<uint64_t>(r.prefix_ops, 1));
  const double wall_ops = static_cast<double>(std::max<uint64_t>(r.ops, 1));
  const SpanTotals t = Aggregate();
  const double client_wall_ns = r.wall_s * 1e9;

  fdpcache::Histogram qp_depth;
  for (const auto& qp : b.qps) {
    qp_depth.Merge(qp.queue_depth);
  }
  double max_ruh_dlwa = 0.0;
  for (const auto& ruh : b.ssd.ruh_io) {
    if (ruh.host_bytes_written > 0) {
      max_ruh_dlwa = std::max(max_ruh_dlwa, ruh.Dlwa());
    }
  }
  const double device_cmds = static_cast<double>(
      (b.device.reads + b.device.writes + b.device.trims) -
      (a.device.reads + a.device.writes + a.device.trims));
  const double die_busy = static_cast<double>(b.ssd.die_busy_ns - a.ssd.die_busy_ns);
  const double host_bytes = static_cast<double>(b.ssd.fdp_stats.host_bytes_written -
                                                a.ssd.fdp_stats.host_bytes_written);
  const double host_pages = static_cast<double>(d.host_pages());
  std::vector<double> pending = r.async_pending;
  std::vector<double> sync_read = t.sync_read_ns;
  std::vector<double> sync_write = t.sync_write_ns;

  Metrics m;
  // client
  m.push_back({"client.self_share", Ratio(SelfNs(t, Layer::kClient), client_wall_ns), "ratio"});
  // cache
  m.push_back({"cache.self_us_per_op", SelfNs(t, Layer::kCache) / wall_ops / 1e3, "us/op"});
  m.push_back({"cache.get_ram_hit_p50_us", r.get_ram_hit.PercentileUs(50), "us"});
  m.push_back({"cache.get_nvm_hit_p50_us", r.get_nvm_hit.PercentileUs(50), "us"});
  m.push_back({"cache.get_miss_p50_us", r.get_miss.PercentileUs(50), "us"});
  m.push_back({"cache.ram_hit_ratio",
               Ratio(static_cast<double>(d.ram_hits()), static_cast<double>(d.gets())), "ratio"});
  m.push_back({"cache.nvm_hit_ratio",
               Ratio(static_cast<double>(d.nvm_hits()), static_cast<double>(d.nvm_lookups())),
               "ratio"});
  m.push_back({"cache.ram_evictions_per_set",
               Ratio(static_cast<double>(b.ram.evictions - a.ram.evictions),
                     static_cast<double>(d.sets())),
               "1/op"});
  m.push_back({"cache.async_pending_p50", Percentile(&pending, 50), "count"});
  m.push_back({"cache.async_get_flash_p50_us", r.async_get_flash.PercentileUs(50), "us"});
  // navy: engines
  m.push_back({"navy.soc_alwa",
               Ratio(static_cast<double>(b.soc.bytes_written - a.soc.bytes_written),
                     static_cast<double>(b.soc.item_bytes_written - a.soc.item_bytes_written)),
               "ratio"});
  m.push_back({"navy.loc_alwa",
               Ratio(static_cast<double>(b.loc.bytes_written - a.loc.bytes_written),
                     static_cast<double>(b.loc.item_bytes_written - a.loc.item_bytes_written)),
               "ratio"});
  m.push_back({"navy.soc_bloom_reject_ratio",
               Ratio(static_cast<double>(b.soc.bloom_rejects - a.soc.bloom_rejects),
                     static_cast<double>(b.soc.lookups - a.soc.lookups)),
               "ratio"});
  m.push_back({"navy.soc_bucket_writes_per_set",
               Ratio(static_cast<double>(b.soc.bytes_written - a.soc.bytes_written) /
                         static_cast<double>(b.page_bytes),
                     static_cast<double>(d.sets())),
               "1/op"});
  m.push_back({"navy.loc_regions_sealed_per_kop",
               static_cast<double>(b.loc.regions_sealed - a.loc.regions_sealed) / ops * 1e3,
               "1/kop"});
  // navy: device boundary (TimedDevice)
  m.push_back({"navy.device_self_us_per_op", SelfNs(t, Layer::kDevice) / wall_ops / 1e3,
               "us/op"});
  m.push_back({"navy.device_calls_per_op",
               static_cast<double>(b.boundary.commands - a.boundary.commands) / ops, "1/op"});
  m.push_back({"navy.device_read_bytes_per_op",
               static_cast<double>(b.boundary.read_bytes - a.boundary.read_bytes) / ops, "B/op"});
  m.push_back({"navy.device_write_bytes_per_op",
               static_cast<double>(b.boundary.write_bytes - a.boundary.write_bytes) / ops,
               "B/op"});
  m.push_back({"navy.device_sync_read_p50_us", Percentile(&sync_read, 50) / 1e3, "us"});
  m.push_back({"navy.device_sync_write_p99_us", Percentile(&sync_write, 99) / 1e3, "us"});
  std::vector<double> s2r;
  for (const uint64_t ns : r.submit_to_reap_ns) {
    s2r.push_back(static_cast<double>(ns));
  }
  m.push_back({"navy.device_submit_to_reap_p50_us", Percentile(&s2r, 50) / 1e3, "us"});
  m.push_back({"navy.device_wait_share", Ratio(t.device_wait_ns, t.device_ns), "ratio"});
  // navy: queue pairs
  m.push_back({"navy.qp_depth_p50", static_cast<double>(qp_depth.Percentile(50)), "count"});
  // ssd (virtual clock)
  m.push_back({"ssd.die_busy_share",
               Ratio(die_busy, static_cast<double>(b.num_dies) *
                                   static_cast<double>(d.velapsed_ns())),
               "ratio"});
  m.push_back({"ssd.host_stall_us_per_cmd",
               Ratio(static_cast<double>(b.ssd.host_stall_ns - a.ssd.host_stall_ns),
                     device_cmds) /
                   1e3,
               "us"});
  m.push_back({"ssd.gc_die_share",
               Ratio(static_cast<double>(b.ssd.gc_die_ns - a.ssd.gc_die_ns), die_busy), "ratio"});
  m.push_back({"ssd.erase_suspensions_per_kread",
               Ratio(static_cast<double>(b.ssd.erase_suspensions - a.ssd.erase_suspensions),
                     static_cast<double>(b.device.reads - a.device.reads) / 1e3),
               "1/kop"});
  // ftl
  m.push_back({"ftl.gc_relocated_per_host_page",
               Ratio(static_cast<double>(b.ssd.ftl.gc_relocated_pages - a.ssd.ftl.gc_relocated_pages),
                     host_pages),
               "ratio"});
  m.push_back({"ftl.gc_erases_per_gib",
               Ratio(static_cast<double>(b.ssd.nand.block_erases - a.ssd.nand.block_erases),
                     host_bytes / (1024.0 * 1024.0 * 1024.0)),
               "1/GiB"});
  m.push_back({"ftl.max_ruh_dlwa", max_ruh_dlwa, "ratio"});
  // nand
  m.push_back({"nand.programs_per_host_page",
               Ratio(static_cast<double>(b.ssd.nand.page_programs - a.ssd.nand.page_programs),
                     host_pages),
               "ratio"});
  m.push_back({"nand.reads_per_get",
               Ratio(static_cast<double>(b.ssd.nand.page_reads - a.ssd.nand.page_reads),
                     static_cast<double>(d.gets())),
               "1/op"});
  // trace bookkeeping
  m.push_back({"trace.unattributed_share",
               Ratio(client_wall_ns - t.client_top_ns, client_wall_ns), "ratio"});
  m.push_back({"host.steal_share", r.steal_share, "ratio"});
  m.push_back({"trace.self_share", Ratio(SelfNs(t, Layer::kTrace), client_wall_ns), "ratio"});
  m.push_back({"trace.overhead_share",
               Ratio(untraced_ops_per_s - traced_ops_per_s, untraced_ops_per_s), "ratio"});
  return m;
}

void PrintLayerTable(const PhaseResult& r, const Metrics& per_layer) {
  const SpanTotals t = Aggregate();
  const double client_wall_ns = r.wall_s * 1e9;
  const double ops = static_cast<double>(std::max<uint64_t>(r.ops, 1));
  std::printf("# traced run: %llu ops in %.3f s\n", static_cast<unsigned long long>(r.ops),
              r.wall_s);
  std::printf("# %-14s %14s %10s %12s\n", "layer", "self_ms", "share", "self_us/op");
  for (size_t l = 0; l < static_cast<size_t>(Layer::kCount); ++l) {
    const double self = t.self_ns[l];
    std::printf("# %-14s %14.3f %10.4f %12.4f\n", LayerName(static_cast<Layer>(l)), self / 1e6,
                Ratio(self, client_wall_ns), self / ops / 1e3);
  }
  const double unattributed = client_wall_ns - t.client_top_ns;
  std::printf("# %-14s %14.3f %10.4f %12.4f\n", "unattributed", unattributed / 1e6,
              Ratio(unattributed, client_wall_ns), unattributed / ops / 1e3);
  std::printf("# (shares are of client-thread wall time; the device dispatcher thread of\n"
              "#  kv-async runs outside it)\n");
  for (const Metric& metric : per_layer) {
    std::printf("# %-36s %.6g %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
}

void PrintSampleCounts(const PhaseResult& r) {
  std::printf("# samples: ops=%llu windows=%zu prefix_ops=%llu prefix get=%zu set=%zu in %u chunks"
              " (p99 per chunk needs >= %zu) vread=%zu vwrite=%zu\n",
              static_cast<unsigned long long>(r.ops), r.window_ops_per_s.size(),
              static_cast<unsigned long long>(r.prefix_ops), r.get.prefix_count(),
              r.set.prefix_count(), r.windows, MinSamples(99), r.vread_ns.size(),
              r.vwrite_ns.size());
  std::printf("# host steal during the measured phase: %.4f of all CPU time\n", r.steal_share);
  std::printf("# window ops/s:");
  for (const double rate : r.window_ops_per_s) {
    std::printf(" %.0f", rate);
  }
  std::printf("\n");
}

void PrintResultJson(const Outcome& outcome, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              outcome.correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ", metrics[i].name.c_str());
    PrintNumber(metrics[i].value);
    std::printf(", \"unit\": \"%s\"}", metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace fdpperf
