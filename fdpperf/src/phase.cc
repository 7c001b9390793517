#include "src/phase.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace fdpperf {

namespace {

// Value of a "Key:   <number> ..." line of /proc/self/status, or -1.
long StatusField(const char* key) {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return -1;
  }
  char line[256];
  long value = -1;
  const size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      value = std::strtol(line + key_len + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return value;
}

}  // namespace

uint32_t WindowsFor(double seconds) {
  return std::max<uint32_t>(5, static_cast<uint32_t>(std::lround(seconds)));
}

void WindowClock::Close(uint64_t now_ns, uint64_t ops) {
  windows_.emplace_back(ops - first_op_, now_ns - start_ns_);
  first_op_ = ops;
  start_ns_ = now_ns;
}

void WindowClock::Finish(uint64_t now_ns, uint64_t ops, PhaseResult* out) {
  const uint64_t tail_ns = now_ns - start_ns_;
  if (windows_.empty() || tail_ns * 2 >= window_ns_) {
    Close(now_ns, ops);
  } else {
    windows_.back().first += ops - first_op_;
    windows_.back().second += tail_ns;
  }
  out->window_ops_per_s.clear();
  for (const auto& [window_ops, ns] : windows_) {
    out->window_ops_per_s.push_back(ns == 0 ? 0.0
                                            : static_cast<double>(window_ops) /
                                                  (static_cast<double>(ns) / 1e9));
  }
}

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) {
    return t;
  }
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2], &v[3],
                  &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (const unsigned long long x : v) {
      t.total += x;
    }
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

double StealShare(const CpuTimes& a, const CpuTimes& b) {
  return b.total <= a.total ? 0.0
                            : static_cast<double>(b.steal - a.steal) /
                                  static_cast<double>(b.total - a.total);
}

int ConfineToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return -1;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
    }
  }
  return -1;
}

int AllowedCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  return sched_getaffinity(0, sizeof(allowed), &allowed) == 0 ? CPU_COUNT(&allowed) : 0;
}

int ProcessThreads() {
  const long threads = StatusField("Threads");
  return threads < 0 ? 0 : static_cast<int>(threads);
}

double PeakRssMb() {
  const long kib = StatusField("VmHWM");
  return kib < 0 ? 0.0 : static_cast<double>(kib) / 1024.0;
}

}  // namespace fdpperf
