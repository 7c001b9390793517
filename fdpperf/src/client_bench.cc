#include "src/client_bench.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/harness/concurrent_replay.h"
#include "src/spans.h"

namespace fdpperf {

using fdpcache::AsyncResult;
using fdpcache::AsyncStatus;
using fdpcache::ExperimentConfig;
using fdpcache::Op;
using fdpcache::OpType;

fdpcache::SsdConfig MakeSsdConfig(const ExperimentConfig& config) {
  fdpcache::SsdConfig ssd;
  ssd.geometry.pages_per_block = config.pages_per_block;
  ssd.geometry.planes_per_die = config.planes_per_die;
  ssd.geometry.num_dies = config.num_dies;
  ssd.geometry.num_superblocks = config.num_superblocks;
  ssd.fdp = fdpcache::FdpConfig::Uniform(8, config.ruh_type);
  ssd.op_fraction = config.device_op_fraction;
  ssd.fdp_enabled = config.fdp;
  ssd.static_wear_leveling = config.static_wear_leveling;
  ssd.gc.mode = config.gc_mode;
  return ssd;
}

uint64_t AutoNumKeys(const ExperimentConfig& config, uint64_t logical_bytes) {
  if (config.num_keys_override != 0) {
    return config.num_keys_override;
  }
  const fdpcache::KvWorkloadConfig& w = config.workload;
  const double small_avg = 0.5 * (w.small_value_min + w.small_value_max);
  const double large_avg = 0.5 * (w.large_value_min + w.large_value_max);
  const double avg_item =
      w.small_key_fraction * small_avg + (1.0 - w.small_key_fraction) * large_avg + 17.0;
  const double working_set_bytes = 0.9 * static_cast<double>(logical_bytes) / config.num_tenants;
  return std::max<uint64_t>(10'000, static_cast<uint64_t>(working_set_bytes / avg_item));
}

ClientBench::ClientBench(const ExperimentConfig& config, size_t stream_ops)
    : config_(config), window_(std::max<uint32_t>(1, config.cache_queue_depth)) {
  ssd_ = std::make_unique<fdpcache::SimulatedSsd>(MakeSsdConfig(config_));
  allocator_ = std::make_unique<fdpcache::PlacementHandleAllocator>(
      config_.fdp ? ssd_->IdentifyFdp().num_ruhs : 0);
  logical_bytes_ = ssd_->logical_capacity_bytes();
  cache_bytes_ = static_cast<uint64_t>(static_cast<double>(logical_bytes_) * config_.utilization);
  const uint64_t ram_bytes =
      config_.ram_bytes != 0 ? config_.ram_bytes
                             : static_cast<uint64_t>(static_cast<double>(cache_bytes_) * 0.045);
  const auto nsid = ssd_->CreateNamespace(cache_bytes_);
  if (!nsid.has_value()) {
    throw std::runtime_error("ClientBench: cannot carve the cache namespace");
  }
  if (window_ > 1) {
    // The client and the device dispatcher thread (created below) share one
    // CPU. Left to the scheduler, the dispatcher shared the client's CPU in
    // some runs and had its own in others: about 47k or 65k ops/s, get p99
    // about 600 or 390 us. On one CPU every run takes the first mode, and
    // every handoff is a context switch rather than a cross-CPU wakeup.
    ConfineToOneCpu();
  }
  fdpcache::IoQueueConfig queue;
  queue.lane_stripe_bytes = config_.loc_region_size;
  device_ = std::make_unique<fdpcache::SimSsdDevice>(ssd_.get(), *nsid, &clock_, queue);
  boundary_ = std::make_unique<TimedDevice>(device_.get());

  fdpcache::HybridCacheConfig cache_config;
  cache_config.ram_bytes = ram_bytes;
  cache_config.navy.small_item_max_bytes = config_.small_item_max_bytes;
  cache_config.navy.soc_fraction = config_.soc_fraction;
  cache_config.navy.loc_region_size = config_.loc_region_size;
  cache_config.navy.loc_eviction = config_.loc_eviction;
  cache_config.navy.loc_trim_on_evict = config_.loc_trim_on_evict;
  cache_config.navy.use_placement_handles = config_.fdp;
  cache_config.navy.queue_pair = 0;
  cache_config.navy.loc_queue_pair = 0;
  if (window_ > 1) {
    const fdpcache::ShardedBackendConfig backend_defaults;
    cache_config.navy.loc_inflight_regions = backend_defaults.loc_inflight_regions;
    cache_config.navy.soc_inflight_writes = backend_defaults.soc_inflight_writes;
    for (uint32_t i = 0; i < 4 * window_; ++i) {
      slots_.emplace_back();
      ReleaseSlot(&slots_.back());
    }
  }
  cache_ = std::make_unique<fdpcache::HybridCache>(boundary_.get(), cache_config,
                                                   allocator_.get());

  fdpcache::KvWorkloadConfig workload = config_.workload;
  workload.num_keys = num_keys_ = AutoNumKeys(config_, logical_bytes_);
  workload.seed = config_.seed;
  generator_ = std::make_unique<fdpcache::KvTraceGenerator>(workload);
  keys_ = std::make_unique<KeyTable>(num_keys_);
  templates_ = std::make_unique<ValueTemplates>(
      config_.seed, std::max(workload.small_value_max, workload.large_value_max));
  versions_.assign(num_keys_, 0);

  // Warm-up: fill until the host has written warmup_cache_writes x the
  // flash cache, exactly as ExperimentRunner::Run() does at cache-QD 1.
  // Blocking calls on every workload: on kv-async they fill the same cache
  // in under 2 s where a windowed fill took 3 s, and every stack of a run
  // sets up.
  const uint64_t warmup_bytes =
      static_cast<uint64_t>(config_.warmup_cache_writes * static_cast<double>(cache_bytes_));
  PhaseResult warmup;
  out_ = &warmup;
  uint64_t warmup_ops = 0;
  while (HostBytesWritten() < warmup_bytes && warmup_ops < config_.max_warmup_ops) {
    const Op op = *generator_->Next();
    Execute(op, 0);
    ++warmup_ops;
  }
  if (!Barrier()) {
    ++warmup_flush_failures_;
  }
  out_ = nullptr;
  warmup_mismatches_ = warmup.mismatches;
  warmup_failed_ops_ = warmup.failed_ops;
  stream_ = std::make_unique<PregenOps>(generator_.get(), stream_ops);
}

ClientBench::~ClientBench() {
  PhaseResult discard;
  out_ = &discard;
  fill_misses_ = false;
  Barrier();
  cache_.reset();  // The cache writes through the devices below it.
  boundary_.reset();
  device_.reset();
}

StackView ClientBench::view() {
  StackView v;
  v.ssd = ssd_.get();
  v.device = device_.get();
  v.boundary = boundary_.get();
  v.cache = cache_.get();
  v.clock = &clock_;
  return v;
}

uint64_t ClientBench::HostBytesWritten() const {
  return ssd_->GetFdpStatisticsLog().host_bytes_written;
}

void ClientBench::MaybeBackpressure() {
  const fdpcache::TimeNs horizon = ssd_->MaxDieBusyUntil();
  if (horizon > clock_.now() + config_.device_backlog_window_ns) {
    clock_.AdvanceTo(horizon - config_.device_backlog_window_ns);
  }
}

bool ClientBench::Barrier() {
  if (window_ == 1) {
    return true;  // Nothing is ever in flight.
  }
  cache_->DrainAsync();
  const bool ok = cache_->navy().ReapPending();
  boundary_->Drain();
  return ok;
}

void ClientBench::Execute(const Op& op, uint64_t op_id) {
  PhaseResult* out = out_;
  ScopedSpan op_span(SpanKind::kClientOp, op_id);
  SetCurrentOp(op_id);
  clock_.Advance(config_.host_cpu_ns_per_op);
  const std::string_view key = keys_->Key(op.key_id);
  uint32_t& version = versions_[op.key_id];
  switch (op.type) {
    case OpType::kSet: {
      ++version;
      const std::string_view value = templates_->For(op.key_id, version, op.value_size);
      const uint64_t t0 = NowNs();
      {
        ScopedSpan span(SpanKind::kCacheSet);
        cache_->Set(key, value);
      }
      out->set.Record(NowNs() - t0);
      break;
    }
    case OpType::kGet: {
      fdpcache::HybridCacheStats before;
      if (classify_) {
        ScopedSpan span(SpanKind::kClassify);
        before = cache_->stats();
      }
      const uint64_t t0 = NowNs();
      bool hit;
      {
        ScopedSpan span(SpanKind::kCacheGet);
        hit = cache_->Get(key, &value_buf_);
      }
      const uint64_t get_ns = NowNs() - t0;
      out->get.Record(get_ns);
      if (classify_) {
        ScopedSpan span(SpanKind::kClassify);
        const fdpcache::HybridCacheStats after = cache_->stats();
        LatencyLog& log = after.ram_hits != before.ram_hits   ? out->get_ram_hit
                          : after.nvm_hits != before.nvm_hits ? out->get_nvm_hit
                                                              : out->get_miss;
        log.Record(get_ns);
      }
      if (hit) {
        if (!templates_->Matches(value_buf_, op.key_id, std::max(version, 1u), op.value_size)) {
          ++out->mismatches;
        }
        break;
      }
      // Miss: fetch from the backend and fill (the CacheBench get path).
      clock_.Advance(config_.backend_fetch_ns);
      if (version == 0) {
        version = 1;
      }
      const std::string_view value = templates_->For(op.key_id, version, op.value_size);
      const uint64_t t1 = NowNs();
      {
        ScopedSpan span(SpanKind::kCacheSet);
        cache_->Set(key, value);
      }
      out->set.Record(NowNs() - t1);
      break;
    }
    case OpType::kDelete: {
      ScopedSpan span(SpanKind::kCacheRemove);
      cache_->Remove(key);
      version = 0;
      break;
    }
  }
  MaybeBackpressure();
}

ClientBench::Slot* ClientBench::AcquireSlot() {
  if (free_slots_ == nullptr) {
    slots_.emplace_back();
    ReleaseSlot(&slots_.back());
  }
  Slot* slot = free_slots_;
  free_slots_ = slot->next_free;
  return slot;
}

void ClientBench::ReleaseSlot(Slot* slot) {
  slot->bench = this;
  slot->next_free = free_slots_;
  free_slots_ = slot;
}

void ClientBench::ExecuteAsync(const Op& op, uint64_t op_id) {
  {
    ScopedSpan op_span(SpanKind::kClientOp, op_id);
    SetCurrentOp(op_id);
    clock_.Advance(config_.host_cpu_ns_per_op);
    Slot* slot = AcquireSlot();
    slot->op_id = op_id;
    slot->key_id = op.key_id;
    slot->value_size = op.value_size;
    uint32_t& version = versions_[op.key_id];
    switch (op.type) {
      case OpType::kGet:
        slot->kind = OpKind::kGet;
        slot->version = std::max(version, 1u);
        break;
      case OpType::kSet:
        slot->kind = OpKind::kSet;
        slot->version = ++version;
        break;
      case OpType::kDelete:
        slot->kind = OpKind::kRemove;
        version = 0;
        break;
    }
    Issue(slot);
  }
  SetCurrentOp(0);
  PumpWindow();
  MaybeBackpressure();
}

void ClientBench::Issue(Slot* slot) {
  if (classify_) {
    out_->async_pending.push_back(static_cast<double>(cache_->pending_async_ops()));
  }
  const std::string_view key = keys_->Key(slot->key_id);
  auto done = [slot](AsyncResult r) { slot->bench->Completed(slot, r); };
  Slot* const outer = issuing_slot_;
  issuing_slot_ = slot;
  slot->start_ns = NowNs();
  switch (slot->kind) {
    case OpKind::kGet: {
      ScopedSpan span(SpanKind::kCacheLookupAsync);
      cache_->LookupAsync(key, done);
      break;
    }
    case OpKind::kSet:
    case OpKind::kFill: {
      ScopedSpan span(SpanKind::kCacheInsertAsync);
      cache_->InsertAsync(key, templates_->For(slot->key_id, slot->version, slot->value_size),
                          done);
      break;
    }
    case OpKind::kRemove: {
      ScopedSpan span(SpanKind::kCacheRemoveAsync);
      cache_->RemoveAsync(key, done);
      break;
    }
  }
  issuing_slot_ = outer;
}

// Timestamps the op first, then verifies a hit against the version the Get
// expected at issue (the cache's pending-key table orders it before any
// later Set of the key), so verification is not timed. A miss is filled
// with the key's version as of now, as ExperimentRunner does.
void ClientBench::Completed(Slot* slot, const AsyncResult& result) {
  ScopedSpan span(SpanKind::kCallback, slot->op_id);
  const uint64_t end = NowNs();
  const bool in_phase = end < deadline_ns_;
  PhaseResult& out = *out_;
  if (in_phase) {
    const uint64_t latency = end - slot->start_ns;
    if (slot->kind == OpKind::kGet) {
      out.get.Record(latency);
      if (classify_ && slot != issuing_slot_) {
        out.async_get_flash.Record(latency);
      }
    } else if (slot->kind != OpKind::kRemove) {
      out.set.Record(latency);
    }
    completed_ += slot->kind == OpKind::kFill ? 0 : 1;
  }
  if (result.status == AsyncStatus::kError) {
    ++out.failed_ops;
  } else if (slot->kind == OpKind::kGet && result.hit()) {
    if (!templates_->Matches(result.value, slot->key_id, slot->version, slot->value_size)) {
      ++out.mismatches;
    }
  } else if (slot->kind == OpKind::kGet && fill_misses_) {
    clock_.Advance(config_.backend_fetch_ns);
    uint32_t& version = versions_[slot->key_id];
    version = std::max(version, 1u);
    Slot* fill = AcquireSlot();
    fill->kind = OpKind::kFill;
    fill->op_id = slot->op_id;
    fill->key_id = slot->key_id;
    fill->version = version;
    fill->value_size = slot->value_size;
    Issue(fill);
  }
  ReleaseSlot(slot);
}

void ClientBench::PumpWindow() {
  // As ExperimentRunner: pump until back under the window; a blocking pump
  // parks on the device, so this is where the client waits for flash.
  while (cache_->pending_async_ops() >= window_) {
    const size_t before = cache_->pending_async_ops();
    {
      ScopedSpan span(SpanKind::kCachePump, 0);
      cache_->PumpAsync(/*blocking=*/true);
    }
    if (cache_->pending_async_ops() >= before) {
      break;  // Nothing parked to wait on; never spin.
    }
  }
}

bool ClientBench::PrefixDone(uint64_t executed, uint64_t written) const {
  if (config_.overwrite_passes > 0) {
    const uint64_t target = static_cast<uint64_t>(config_.overwrite_passes *
                                                  static_cast<double>(logical_bytes_));
    return written >= target || executed >= config_.max_steady_ops;
  }
  return executed >= config_.total_ops;
}

PhaseResult ClientBench::Run(const PhasePlan& plan) {
  PhaseResult out;
  out.mismatches = warmup_mismatches_;
  out.failed_ops = warmup_failed_ops_;
  out.flush_failures = warmup_flush_failures_;
  out_ = &out;
  classify_ = plan.trace;
  fill_misses_ = true;
  deadline_ns_ = UINT64_MAX;
  completed_ = 0;
  const StackView v = view();
  ResetLayerStats(v);
  out.begin = Capture(v);
  boundary_->SetVirtualSampling(true);
  SpanRecorder& recorder = SpanRecorder::Instance();
  if (plan.trace) {
    recorder.Clear();
    recorder.Enable();
  }

  const CpuTimes cpu_start = ReadCpuTimes();
  const uint64_t start = NowNs();
  uint64_t deadline = start + static_cast<uint64_t>(plan.seconds * 1e9);
  out.windows = WindowsFor(plan.seconds);
  const uint64_t window_ns =
      plan.seconds > 0 ? static_cast<uint64_t>(plan.seconds * 1e9 / out.windows) : UINT64_MAX;
  WindowClock windows(start, window_ns);
  uint64_t probe_ns = 0;  // Spent probing the host.
  uint64_t now = start;
  uint64_t executed = 0;
  uint64_t written = 0;
  bool prefix_done = false;
  const auto done_ops = [&] { return window_ == 1 ? executed : completed_; };
  for (;;) {
    if (!prefix_done && PrefixDone(executed, written)) {
      prefix_done = true;
      out.prefix_ops = executed;
      out.prefix_end = Capture(v);
      out.get.MarkPrefixEnd();
      out.set.MarkPrefixEnd();
      boundary_->SetVirtualSampling(false);
    }
    if (prefix_done && now >= deadline) {
      break;
    }
    if (executed == stream_->size()) {
      if (!prefix_done) {
        throw std::runtime_error("ClientBench: the op stream is shorter than the prefix");
      }
      out.stream_exhausted = true;
      break;
    }
    const Op& op = stream_->At(executed);
    window_ == 1 ? Execute(op, executed + 1) : ExecuteAsync(op, executed + 1);
    ++executed;
    if (!prefix_done && config_.overwrite_passes > 0 && executed % 512 == 0) {
      written = HostBytesWritten();
    }
    if (executed % 64 == 0) {
      now = NowNs();
      if (windows.Due(now)) {
        if (plan.gauge != nullptr) {
          // The window's in-flight ops complete inside it, not across the probe.
          if (!Barrier()) {
            ++out.flush_failures;
          }
          now = NowNs();
        }
        windows.Close(now, done_ops());
        if (out.threads == 0) {
          out.threads = ProcessThreads();
        }
        if (plan.gauge != nullptr) {
          plan.gauge->Sample();
          const uint64_t probe = NowNs() - now;
          windows.Skip(probe);
          deadline += probe;
          probe_ns += probe;
          now += probe;
        }
      }
    }
  }
  now = NowNs();
  deadline_ns_ = now;
  windows.Finish(now, done_ops(), &out);
  if (out.threads == 0) {
    out.threads = ProcessThreads();
  }
  recorder.Disable();
  out.steal_share = StealShare(cpu_start, ReadCpuTimes());
  out.ops = done_ops();
  out.wall_s = static_cast<double>(now - start - probe_ns) / 1e9;
  // Ops still in flight complete unmeasured, and issue no fills.
  fill_misses_ = false;
  if (!Barrier()) {
    ++out.flush_failures;
  }
  out.vread_ns = boundary_->virtual_read_ns();
  out.vwrite_ns = boundary_->virtual_write_ns();
  out.submit_to_reap_ns = boundary_->submit_to_reap_ns();
  out.end = Capture(v);
  out_ = nullptr;
  return out;
}

}  // namespace fdpperf
