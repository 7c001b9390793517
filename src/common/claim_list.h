// ClaimList: the ops holding a claim on a resource (a key, a SOC bucket),
// each with the ops that wait on that resource queued behind it in FIFO
// order. `Op` carries the queue as `std::vector<Op*> waiters`. In-flight ops
// are few, so a scan of the holders costs less than hashing, and nothing
// allocates until a second op waits on one resource.
#ifndef SRC_COMMON_CLAIM_LIST_H_
#define SRC_COMMON_CLAIM_LIST_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace fdpcache {

template <typename Op>
class ClaimList {
 public:
  bool empty() const { return holders_.empty(); }

  // Gives `op` the claim and returns true when no holder matches `same`;
  // otherwise queues `op` behind that holder and returns false.
  template <typename Same>
  bool Acquire(Op* op, Same same) {
    for (Op* holder : holders_) {
      if (same(*holder)) {
        holder->waiters.push_back(op);
        return false;
      }
    }
    holders_.push_back(op);
    return true;
  }

  // Gives `op` a claim that no holder contends.
  void Claim(Op* op) { holders_.push_back(op); }

  // Ends `holder`'s claim. Returns the first op queued behind it, which now
  // holds the claim with the rest queued behind it, or null.
  Op* Release(Op* holder) {
    const auto claim = std::find(holders_.begin(), holders_.end(), holder);
    if (holder->waiters.empty()) {
      *claim = holders_.back();
      holders_.pop_back();
      return nullptr;
    }
    Op* next = holder->waiters.front();
    holder->waiters.erase(holder->waiters.begin());
    next->waiters.swap(holder->waiters);
    *claim = next;
    return next;
  }

 private:
  std::vector<Op*> holders_;
};

// Aborts with a diagnostic where a blocking call would otherwise spin
// forever: its op waits on an op that nothing can run.
[[noreturn]] inline void AbortOnStall(const char* layer) {
  std::fprintf(stderr, "%s: a blocking call waits on an op that nothing can run\n", layer);
  std::abort();
}

}  // namespace fdpcache

#endif  // SRC_COMMON_CLAIM_LIST_H_
