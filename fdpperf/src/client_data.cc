#include "src/client_data.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/common/hash.h"
#include "src/common/rng.h"

namespace fdpperf {

KeyTable::KeyTable(uint64_t num_keys) : chars_(num_keys * kKeyLen + 1) {
  for (uint64_t id = 0; id < num_keys; ++id) {
    std::snprintf(chars_.data() + id * kKeyLen, kKeyLen + 1, "k%016llx",
                  static_cast<unsigned long long>(id));
  }
}

ValueTemplates::ValueTemplates(uint64_t seed, uint32_t max_value_bytes) {
  constexpr uint64_t kSpan = 4 << 20;
  span_ = kSpan;
  pool_.resize(kSpan + max_value_bytes + 8);
  fdpcache::Rng rng(seed ^ 0x7e3a9c1d5b2f4e68ull);
  for (size_t i = 0; i + 8 <= pool_.size(); i += 8) {
    const uint64_t word = rng.Next();
    std::memcpy(pool_.data() + i, &word, 8);
  }
}

uint64_t ValueTemplates::Offset(uint64_t key_id, uint32_t version) const {
  return fdpcache::HashU64(key_id * 0x9e3779b97f4a7c15ull + version) % span_;
}

PregenOps::PregenOps(fdpcache::KvTraceGenerator* generator, size_t count) {
  ops_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    ops_.push_back(*generator->Next());
  }
}

namespace {

double RankUs(std::vector<uint32_t> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  size_t rank = static_cast<size_t>(std::ceil(q / 100.0 * static_cast<double>(values.size())));
  rank = std::min(values.size(), std::max<size_t>(rank, 1)) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<ptrdiff_t>(rank), values.end());
  return static_cast<double>(values[rank]) / 1e3;
}

}  // namespace

double LatencyLog::PercentileUs(double q) const { return RankUs(samples_, q); }

double LatencyLog::PrefixChunkPercentileUs(double q, size_t chunks) const {
  const size_t per_chunk = prefix_count_ / std::max<size_t>(chunks, 1);
  const size_t min_samples = static_cast<size_t>(std::ceil(10.0 / (1.0 - q / 100.0)));
  const auto begin = samples_.begin();
  if (per_chunk < min_samples) {
    return RankUs(std::vector<uint32_t>(begin, begin + static_cast<ptrdiff_t>(prefix_count_)), q);
  }
  std::vector<double> per;
  for (size_t c = 0; c < chunks; ++c) {
    const auto first = begin + static_cast<ptrdiff_t>(c * per_chunk);
    per.push_back(RankUs(std::vector<uint32_t>(first, first + static_cast<ptrdiff_t>(per_chunk)),
                         q));
  }
  return Median(per);
}

double Percentile(std::vector<double>* values, double q) {
  if (values->empty()) {
    return 0.0;
  }
  size_t rank = static_cast<size_t>(std::ceil(q / 100.0 * static_cast<double>(values->size())));
  rank = std::min(values->size(), std::max<size_t>(rank, 1)) - 1;
  std::nth_element(values->begin(), values->begin() + static_cast<ptrdiff_t>(rank),
                   values->end());
  return (*values)[rank];
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace fdpperf
