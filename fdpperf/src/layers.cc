#include "src/layers.h"

namespace fdpperf {

LayerSnapshot Capture(const StackView& view) {
  LayerSnapshot s;
  s.vnow_ns = view.clock->now();
  s.cache = view.cache->stats();
  s.ram = view.cache->ram().stats();
  const fdpcache::NavyStats n = view.cache->navy().stats();
  s.soc = n.soc;
  s.loc = n.loc;
  s.device = view.device->stats();
  s.qps = view.device->PerQueuePairStats();
  s.boundary = view.boundary->counters();
  s.ssd = view.ssd->Telemetry(0);
  s.idle_power_w = view.ssd->config().energy.idle_power_w;
  s.num_dies = view.ssd->config().geometry.num_dies;
  s.page_bytes = view.ssd->page_size();
  return s;
}

void ResetLayerStats(const StackView& view) {
  view.ssd->ftl().ResetStats();
  view.ssd->ResetGcStats();
  view.cache->ResetStats();
  view.device->ResetStats();
}

double LayerDelta::HitRatio() const {
  const uint64_t g = gets();
  return g == 0 ? 0.0 : static_cast<double>(ram_hits() + nvm_hits()) / static_cast<double>(g);
}

double LayerDelta::Dlwa() const {
  const uint64_t host = b.ssd.fdp_stats.host_bytes_written - a.ssd.fdp_stats.host_bytes_written;
  const uint64_t media = b.ssd.fdp_stats.media_bytes_written - a.ssd.fdp_stats.media_bytes_written;
  return host == 0 ? 1.0 : static_cast<double>(media) / static_cast<double>(host);
}

double LayerDelta::Alwa() const {
  const uint64_t item = (b.soc.item_bytes_written + b.loc.item_bytes_written) -
                        (a.soc.item_bytes_written + a.loc.item_bytes_written);
  const uint64_t dev =
      (b.soc.bytes_written + b.loc.bytes_written) - (a.soc.bytes_written + a.loc.bytes_written);
  return item == 0 ? 1.0 : static_cast<double>(dev) / static_cast<double>(item);
}

double LayerDelta::EnergyUj() const {
  return (b.ssd.op_energy_uj - a.ssd.op_energy_uj) +
         b.idle_power_w * (static_cast<double>(velapsed_ns()) / 1e3);
}

}  // namespace fdpperf
