// Client-side data the benchmark builds during set-up, so the measured loop
// only indexes into it: key strings, value templates, the per-key record of
// the last acknowledged value, and latency sample logs.
#ifndef FDPPERF_SRC_CLIENT_DATA_H_
#define FDPPERF_SRC_CLIENT_DATA_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "src/workload/workload.h"

namespace fdpperf {

// Key strings for every key id ("k" + 16 hex digits, as fdpcache::KeyString
// spells them), stored back to back.
class KeyTable {
 public:
  static constexpr size_t kKeyLen = 17;

  explicit KeyTable(uint64_t num_keys);
  std::string_view Key(uint64_t key_id) const {
    return std::string_view(chars_.data() + key_id * kKeyLen, kKeyLen);
  }

 private:
  std::vector<char> chars_;
};

// Value bytes are slices of one seeded random pool: the value of (key,
// version) starts at an offset derived from both, so two versions of a key
// differ and a returned value can be checked with one memcmp against the
// pool. The per-key digest the client stores is the version number.
class ValueTemplates {
 public:
  ValueTemplates(uint64_t seed, uint32_t max_value_bytes);

  std::string_view For(uint64_t key_id, uint32_t version, uint32_t size) const {
    return std::string_view(pool_.data() + Offset(key_id, version), size);
  }
  bool Matches(std::string_view value, uint64_t key_id, uint32_t version, uint32_t size) const {
    return value.size() == size &&
           std::memcmp(value.data(), pool_.data() + Offset(key_id, version), size) == 0;
  }

 private:
  uint64_t Offset(uint64_t key_id, uint32_t version) const;

  std::vector<char> pool_;
  uint64_t span_ = 1;
};

// Pre-generated op stream: `count` ops drawn from the generator during
// set-up. Nothing is drawn later; a client that reaches the end stops.
class PregenOps {
 public:
  PregenOps(fdpcache::KvTraceGenerator* generator, size_t count);
  size_t size() const { return ops_.size(); }
  const fdpcache::Op& At(size_t index) const { return ops_[index]; }

 private:
  std::vector<fdpcache::Op> ops_;
};

// Latency samples (wall ns) in completion order, with a mark where the
// deterministic prefix ended.
class LatencyLog {
 public:
  void Record(uint64_t ns) {
    samples_.push_back(ns > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(ns));
  }
  void MarkPrefixEnd() { prefix_count_ = samples_.size(); }

  size_t count() const { return samples_.size(); }
  size_t prefix_count() const { return prefix_count_; }
  // Nearest-rank percentile of all samples.
  double PercentileUs(double q) const;
  // The prefix's samples cut into `chunks` equal runs of consecutive ops;
  // the median of the chunks' percentile q. Chunks that leave fewer than
  // ten samples beyond q are skipped; with none left, the whole prefix's
  // percentile.
  double PrefixChunkPercentileUs(double q, size_t chunks) const;

 private:
  std::vector<uint32_t> samples_;
  size_t prefix_count_ = 0;
};

// Nearest-rank percentile of `values` (reorders them).
double Percentile(std::vector<double>* values, double q);
double Median(std::vector<double> values);

}  // namespace fdpperf

#endif  // FDPPERF_SRC_CLIENT_DATA_H_
