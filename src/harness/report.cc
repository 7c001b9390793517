#include "src/harness/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "src/harness/concurrent_replay.h"

namespace fdpcache {

TextTable::TextTable(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void TextTable::AddRow(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

std::string TextTable::ToString() const {
  std::vector<size_t> widths(headers_.size(), 0);
  for (size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : "";
      out << (c == 0 ? "" : "  ") << cell << std::string(widths[c] - cell.size(), ' ');
    }
    out << "\n";
  };
  emit_row(headers_);
  size_t total = 0;
  for (const size_t w : widths) {
    total += w + 2;
  }
  out << std::string(total > 2 ? total - 2 : total, '-') << "\n";
  for (const auto& row : rows_) {
    emit_row(row);
  }
  return out.str();
}

std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string FormatPercent(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", precision, fraction * 100.0);
  return buf;
}

std::string FormatNsAsUs(uint64_t ns) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1fus", static_cast<double>(ns) / 1000.0);
  return buf;
}

std::string FormatBytes(uint64_t bytes) {
  char buf[64];
  if (bytes >= (1ull << 30)) {
    std::snprintf(buf, sizeof(buf), "%.2fGiB", static_cast<double>(bytes) / (1ull << 30));
  } else if (bytes >= (1ull << 20)) {
    std::snprintf(buf, sizeof(buf), "%.1fMiB", static_cast<double>(bytes) / (1ull << 20));
  } else if (bytes >= (1ull << 10)) {
    std::snprintf(buf, sizeof(buf), "%.1fKiB", static_cast<double>(bytes) / (1ull << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%lluB", static_cast<unsigned long long>(bytes));
  }
  return buf;
}

std::string FormatDlwaSeries(const std::string& label, const std::vector<double>& series,
                             double max_scale) {
  std::ostringstream out;
  int i = 0;
  for (const double dlwa : series) {
    const int bars =
        static_cast<int>(std::clamp(dlwa, 0.0, max_scale) / max_scale * 40.0);
    out << label << " t" << (i < 10 ? "0" : "") << i << "  dlwa=" << FormatDouble(dlwa, 3)
        << "  |" << std::string(bars, '#') << std::string(40 - bars, ' ') << "|\n";
    ++i;
  }
  return out.str();
}

std::string SummarizeReport(const std::string& label, const MetricsReport& r) {
  std::ostringstream out;
  out << label << ": dlwa=" << FormatDouble(r.final_dlwa, 3)
      << " alwa=" << FormatDouble(r.alwa, 2) << " hit=" << FormatPercent(r.hit_ratio)
      << " nvm_hit=" << FormatPercent(r.nvm_hit_ratio)
      << " kops=" << FormatDouble(r.throughput_kops, 1)
      << " p99r=" << FormatNsAsUs(r.p99_read_ns) << " p99w=" << FormatNsAsUs(r.p99_write_ns)
      << " gc_events=" << r.gc_events;
  return out.str();
}

std::string SummarizeConcurrentReport(const std::string& label,
                                      const ConcurrentReplayReport& r) {
  std::ostringstream out;
  out << label << ": ops=" << r.ops_executed
      << " kops/s=" << FormatDouble(r.throughput_ops_per_sec / 1000.0, 1)
      << " hit=" << FormatPercent(r.cache.HitRatio())
      << " nvm_hit=" << FormatPercent(r.cache.NvmHitRatio())
      << " p50g=" << FormatNsAsUs(r.get_latency_ns.Percentile(50.0))
      << " p99g=" << FormatNsAsUs(r.get_latency_ns.Percentile(99.0))
      << " p99s=" << FormatNsAsUs(r.set_latency_ns.Percentile(99.0))
      << " imbalance=" << FormatDouble(r.shard_imbalance, 2);
  return out.str();
}

std::string FormatQueuePairStats(const std::string& indent,
                                 const std::vector<QueuePairStats>& queue_pairs) {
  std::ostringstream out;
  for (size_t i = 0; i < queue_pairs.size(); ++i) {
    const QueuePairStats& qp = queue_pairs[i];
    out << indent << "qp" << i << ": dispatched=" << qp.dispatched << " writes=" << qp.writes
        << " reads=" << qp.reads << " p50_qd=" << qp.queue_depth.Percentile(50.0)
        << " max_qd=" << qp.queue_depth.Max()
        << " p99w=" << FormatNsAsUs(qp.write_latency_ns.Percentile(99.0)) << "\n";
  }
  return out.str();
}

std::string FormatLaneStats(const std::string& indent, const std::vector<LaneStats>& lanes) {
  std::ostringstream out;
  for (size_t i = 0; i < lanes.size(); ++i) {
    const LaneStats& lane = lanes[i];
    out << indent << "lane" << i << ": dispatches=" << lane.dispatches
        << " busy=" << FormatDouble(static_cast<double>(lane.busy_ns) / 1e6, 1) << "ms"
        << " p50_qd=" << lane.queue_depth.Percentile(50.0)
        << " max_qd=" << lane.queue_depth.Max() << "\n";
  }
  return out.str();
}

std::string FormatDieBusy(const std::string& indent,
                          const std::vector<uint64_t>& per_die_busy_ns) {
  if (per_die_busy_ns.empty()) {
    return "";
  }
  std::ostringstream out;
  out << indent;
  for (size_t i = 0; i < per_die_busy_ns.size(); ++i) {
    out << (i == 0 ? "" : " ") << "die" << i << "="
        << FormatDouble(static_cast<double>(per_die_busy_ns[i]) / 1e6, 1) << "ms";
  }
  out << "\n";
  return out.str();
}

std::string FormatGcStats(const std::string& indent, const MetricsReport& r) {
  if (r.gc_bg_ticks == 0 && r.gc_bg_migrated_pages == 0 && r.gc_bg_erases == 0) {
    return "";
  }
  const uint64_t page = r.device_page_bytes;
  std::ostringstream out;
  out << indent << "migrated=" << FormatBytes(r.gc_bg_migrated_pages * page)
      << " (" << r.gc_bg_migrated_pages << " pages) erases=" << r.gc_bg_erases
      << " abandoned=" << r.gc_bg_abandoned << "\n";
  out << indent << "ticks=" << r.gc_bg_ticks << " deferred=" << r.gc_bg_deferred_ticks
      << " erase_suspensions=" << r.erase_suspensions << "\n";
  out << indent << "fg_stall=" << FormatDouble(static_cast<double>(r.host_stall_ns) / 1e6, 1)
      << "ms gc_die_time="
      << FormatDouble(static_cast<double>(r.gc_die_ns) / 1e6, 1) << "ms\n";
  if (!r.per_ruh_dlwa.empty()) {
    out << indent << "per-ruh dlwa: [";
    for (size_t i = 0; i < r.per_ruh_dlwa.size(); ++i) {
      out << (i == 0 ? "" : " ") << "ruh" << i << "=" << FormatDouble(r.per_ruh_dlwa[i], 3);
    }
    out << "]\n";
  }
  return out.str();
}

std::string FormatPendingOps(const std::string& indent,
                             const std::vector<uint64_t>& pending_ops) {
  if (pending_ops.empty()) {
    return "";
  }
  uint64_t total = 0;
  for (const uint64_t p : pending_ops) {
    total += p;
  }
  std::ostringstream out;
  out << indent << "total=" << total << " [";
  for (size_t i = 0; i < pending_ops.size(); ++i) {
    out << (i == 0 ? "" : " ") << "shard" << i << "=" << pending_ops[i];
  }
  out << "]\n";
  return out.str();
}

std::string FormatTraceBreakdown(const std::string& indent, const obs::TraceBreakdown& t) {
  if (t.requests == 0) {
    return "";
  }
  TextTable table({"stage", "spans", "excl_total", "share", "mean"});
  const double total = static_cast<double>(t.total_request_ns);
  for (size_t i = 0; i < obs::kNumTraceStages; ++i) {
    const auto stage = static_cast<obs::TraceStage>(i);
    if (stage == obs::TraceStage::kRequest || stage == obs::TraceStage::kGcTick) {
      continue;  // kRequest is the denominator; GC ticks own no request time.
    }
    const obs::TraceStageBreakdown& row = t.stages[i];
    if (row.spans == 0) {
      continue;
    }
    table.AddRow({obs::TraceStageName(stage), std::to_string(row.spans),
                  FormatNsAsUs(row.exclusive_ns),
                  FormatPercent(total == 0.0 ? 0.0 : static_cast<double>(row.exclusive_ns) / total),
                  FormatNsAsUs(row.exclusive_ns / row.spans)});
  }
  table.AddRow({"(unattributed)", "-", FormatNsAsUs(t.unattributed_ns),
                FormatPercent(total == 0.0 ? 0.0 : static_cast<double>(t.unattributed_ns) / total),
                "-"});
  std::ostringstream out;
  std::istringstream lines(table.ToString());
  std::string line;
  while (std::getline(lines, line)) {
    out << indent << line << "\n";
  }
  out << indent << "requests=" << t.requests << " p50=" << FormatNsAsUs(t.request_p50_ns)
      << " events=" << t.events << " dropped=" << t.dropped << "\n";
  return out.str();
}

namespace {

// Minimal JSON emission: everything we serialize is numbers, fixed keys, and
// arrays of those, so no escaping machinery is needed.
class JsonWriter {
 public:
  void Key(const std::string& k) {
    Comma();
    out_ << '"' << k << "\":";
    pending_comma_ = false;
  }
  void Value(uint64_t v) {
    Comma();
    out_ << v;
    pending_comma_ = true;
  }
  void Value(double v) {
    Comma();
    // JSON has no NaN/Inf; clamp to null.
    if (std::isfinite(v)) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.6g", v);
      out_ << buf;
    } else {
      out_ << "null";
    }
    pending_comma_ = true;
  }
  void Open(char c) { Comma(); out_ << c; pending_comma_ = false; }
  void Close(char c) { out_ << c; pending_comma_ = true; }
  std::string str() const { return out_.str(); }

 private:
  void Comma() {
    if (pending_comma_) {
      out_ << ',';
    }
  }
  std::ostringstream out_;
  bool pending_comma_ = false;
};

}  // namespace

std::string MetricsReportToJson(const MetricsReport& r) {
  JsonWriter w;
  w.Open('{');
  const auto num = [&](const char* key, uint64_t v) { w.Key(key); w.Value(v); };
  const auto dbl = [&](const char* key, double v) { w.Key(key); w.Value(v); };

  dbl("final_dlwa", r.final_dlwa);
  dbl("alwa", r.alwa);
  dbl("hit_ratio", r.hit_ratio);
  dbl("nvm_hit_ratio", r.nvm_hit_ratio);
  num("gets", r.gets);
  num("sets", r.sets);
  dbl("throughput_kops", r.throughput_kops);
  num("p50_read_ns", r.p50_read_ns);
  num("p99_read_ns", r.p99_read_ns);
  num("p999_read_ns", r.p999_read_ns);
  num("p50_write_ns", r.p50_write_ns);
  num("p99_write_ns", r.p99_write_ns);
  num("p999_write_ns", r.p999_write_ns);
  num("gc_events", r.gc_events);
  num("gc_relocated_pages", r.gc_relocated_pages);
  num("clean_ru_erases", r.clean_ru_erases);
  num("host_bytes_written", r.host_bytes_written);
  dbl("op_energy_uj", r.op_energy_uj);
  dbl("total_energy_uj", r.total_energy_uj);
  dbl("wear_max_pe", r.wear_max_pe);
  num("gc_bg_ticks", r.gc_bg_ticks);
  num("gc_bg_migrated_pages", r.gc_bg_migrated_pages);
  num("gc_bg_erases", r.gc_bg_erases);
  num("gc_bg_deferred_ticks", r.gc_bg_deferred_ticks);
  num("gc_bg_abandoned", r.gc_bg_abandoned);
  num("erase_suspensions", r.erase_suspensions);
  num("host_stall_ns", r.host_stall_ns);
  num("gc_die_ns", r.gc_die_ns);
  dbl("overwrite_passes_done", r.overwrite_passes_done);
  num("device_page_bytes", r.device_page_bytes);
  dbl("soc_write_share", r.soc_write_share);
  num("flush_failures", r.flush_failures);
  num("elapsed_virtual_ns", r.elapsed_virtual_ns);
  num("ops_executed", r.ops_executed);
  num("verify_failures", r.verify_failures);
  num("cache_bytes", r.cache_bytes);
  num("ram_bytes", r.ram_bytes);
  num("device_physical_bytes", r.device_physical_bytes);
  num("metrics_snapshots", r.metrics_snapshots);

  const auto array_of_doubles = [&](const char* key, const std::vector<double>& v) {
    w.Key(key);
    w.Open('[');
    for (const double x : v) {
      w.Value(x);
    }
    w.Close(']');
  };
  array_of_doubles("interval_dlwa", r.interval_dlwa);
  array_of_doubles("per_ruh_dlwa", r.per_ruh_dlwa);
  w.Key("per_die_busy_ns");
  w.Open('[');
  for (const uint64_t v : r.per_die_busy_ns) {
    w.Value(v);
  }
  w.Close(']');
  w.Key("pending_cache_ops");
  w.Open('[');
  for (const uint64_t v : r.pending_cache_ops) {
    w.Value(v);
  }
  w.Close(']');

  w.Key("queue_pairs");
  w.Open('[');
  for (const QueuePairStats& qp : r.device_queue_pairs) {
    w.Open('{');
    w.Key("reads"); w.Value(qp.reads);
    w.Key("writes"); w.Value(qp.writes);
    w.Key("read_bytes"); w.Value(qp.read_bytes);
    w.Key("write_bytes"); w.Value(qp.write_bytes);
    w.Key("dispatched"); w.Value(qp.dispatched);
    w.Key("admission_waits"); w.Value(qp.admission_waits);
    w.Key("conflict_defers"); w.Value(qp.conflict_defers);
    w.Key("io_errors"); w.Value(qp.io_errors);
    w.Key("p50_read_ns"); w.Value(qp.read_latency_ns.Percentile(50.0));
    w.Key("p99_read_ns"); w.Value(qp.read_latency_ns.Percentile(99.0));
    w.Key("p50_write_ns"); w.Value(qp.write_latency_ns.Percentile(50.0));
    w.Key("p99_write_ns"); w.Value(qp.write_latency_ns.Percentile(99.0));
    w.Key("p50_qd"); w.Value(qp.queue_depth.Percentile(50.0));
    w.Key("max_qd"); w.Value(qp.queue_depth.Max());
    w.Close('}');
  }
  w.Close(']');

  w.Key("lanes");
  w.Open('[');
  for (const LaneStats& lane : r.device_lanes) {
    w.Open('{');
    w.Key("dispatches"); w.Value(lane.dispatches);
    w.Key("busy_ns"); w.Value(lane.busy_ns);
    w.Key("p50_qd"); w.Value(lane.queue_depth.Percentile(50.0));
    w.Key("max_qd"); w.Value(lane.queue_depth.Max());
    w.Close('}');
  }
  w.Close(']');

  w.Key("traced");
  w.Open('{');
  w.Key("enabled"); w.Value(static_cast<uint64_t>(r.traced ? 1 : 0));
  if (r.traced) {
    w.Key("requests"); w.Value(r.trace.requests);
    w.Key("events"); w.Value(r.trace.events);
    w.Key("dropped"); w.Value(r.trace.dropped);
    w.Key("total_request_ns"); w.Value(r.trace.total_request_ns);
    w.Key("attributed_ns"); w.Value(r.trace.attributed_ns);
    w.Key("unattributed_ns"); w.Value(r.trace.unattributed_ns);
    w.Key("request_p50_ns"); w.Value(r.trace.request_p50_ns);
    w.Key("stages");
    w.Open('{');
    for (size_t i = 0; i < obs::kNumTraceStages; ++i) {
      const obs::TraceStageBreakdown& row = r.trace.stages[i];
      w.Key(obs::TraceStageName(static_cast<obs::TraceStage>(i)));
      w.Open('{');
      w.Key("spans"); w.Value(row.spans);
      w.Key("raw_ns"); w.Value(row.raw_ns);
      w.Key("exclusive_ns"); w.Value(row.exclusive_ns);
      w.Close('}');
    }
    w.Close('}');
  }
  w.Close('}');

  w.Close('}');
  return w.str() + "\n";
}

double BenchScale() {
  const char* env = std::getenv("FDPBENCH_SCALE");
  if (env == nullptr) {
    return 1.0;
  }
  const double v = std::atof(env);
  return std::clamp(v, 0.1, 10.0);
}

}  // namespace fdpcache
