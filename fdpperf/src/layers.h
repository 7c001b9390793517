// The one place the benchmark reads fdpcache's public stats accessors.
//
// A StackView names the public objects of one built stack; Capture() takes
// a LayerSnapshot of every layer's counters through their accessors
// (HybridCache::stats, RamCache::stats, NavyCache::stats, Device::stats /
// PerQueuePairStats, SimulatedSsd::Telemetry and the TimedDevice
// decorator). Measurements are differences of two snapshots.
#ifndef FDPPERF_SRC_LAYERS_H_
#define FDPPERF_SRC_LAYERS_H_

#include <cstdint>
#include <vector>

#include "src/cache/hybrid_cache.h"
#include "src/common/clock.h"
#include "src/navy/device.h"
#include "src/ssd/ssd.h"
#include "src/timed_device.h"

namespace fdpperf {

struct StackView {
  fdpcache::SimulatedSsd* ssd = nullptr;
  fdpcache::Device* device = nullptr;  // The SimSsdDevice below the decorator.
  TimedDevice* boundary = nullptr;
  fdpcache::HybridCache* cache = nullptr;
  fdpcache::VirtualClock* clock = nullptr;
};

struct LayerSnapshot {
  uint64_t vnow_ns = 0;
  fdpcache::HybridCacheStats cache;
  fdpcache::RamCacheStats ram;
  fdpcache::SocStats soc;
  fdpcache::LocStats loc;
  fdpcache::DeviceStats device;  // Counters and virtual latency histograms.
  std::vector<fdpcache::QueuePairStats> qps;
  TimedDevice::Counters boundary;
  fdpcache::SsdTelemetry ssd;
  double idle_power_w = 0.0;
  uint32_t num_dies = 0;
  uint64_t page_bytes = 0;
};

LayerSnapshot Capture(const StackView& view);

// Clears every resettable counter, as ExperimentRunner does after warm-up:
// FTL statistics, GC meters, cache/navy stats, device stats.
void ResetLayerStats(const StackView& view);

// Counter differences between two snapshots of one stack.
struct LayerDelta {
  const LayerSnapshot& a;
  const LayerSnapshot& b;

  uint64_t velapsed_ns() const { return b.vnow_ns - a.vnow_ns; }
  uint64_t gets() const { return b.cache.gets - a.cache.gets; }
  uint64_t sets() const { return b.cache.sets - a.cache.sets; }
  uint64_t ram_hits() const { return b.cache.ram_hits - a.cache.ram_hits; }
  uint64_t nvm_hits() const { return b.cache.nvm_hits - a.cache.nvm_hits; }
  uint64_t nvm_lookups() const { return b.cache.nvm_lookups - a.cache.nvm_lookups; }
  double HitRatio() const;
  double Dlwa() const;
  double Alwa() const;
  // NAND operation energy plus idle power over the elapsed virtual time.
  double EnergyUj() const;
  uint64_t host_pages() const { return b.ssd.ftl.host_pages_written - a.ssd.ftl.host_pages_written; }
  uint64_t device_errors() const { return b.device.io_errors - a.device.io_errors; }
};

}  // namespace fdpperf

#endif  // FDPPERF_SRC_LAYERS_H_
