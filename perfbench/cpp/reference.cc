#include "reference.h"

#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "trace.h"

namespace perfbench {

namespace {

constexpr std::size_t kSlots = 1u << 22;  // 16 MiB of 32-bit links
constexpr std::size_t kHops = 1u << 20;

std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

struct ReferenceJob::State {
  std::vector<std::uint32_t> next;  // one random cycle through every slot
  std::uint32_t at = 0;
};

ReferenceJob::ReferenceJob() : s_(new State) {
  // Sattolo's shuffle of the identity is one cycle through every slot, so
  // the chase visits the whole set.
  s_->next.resize(kSlots);
  std::iota(s_->next.begin(), s_->next.end(), 0u);
  std::uint64_t seed = 42;
  for (std::size_t i = kSlots - 1; i > 0; --i) {
    std::swap(s_->next[i], s_->next[splitmix(seed) % i]);
  }
}

ReferenceJob::~ReferenceJob() { delete s_; }

double ReferenceJob::resident_mib() {
  return static_cast<double>(kSlots * sizeof(std::uint32_t)) / (1u << 20);
}

double ReferenceJob::time_pass(double min_s) {
  const HostNs t0 = host_now_ns();
  std::uint32_t at = s_->at;
  int passes = 0;
  double taken = 0;
  do {
    for (std::size_t i = 0; i < kHops; ++i) at = s_->next[at];
    ++passes;
    taken = ns_to_s(host_now_ns() - t0);
  } while (taken < min_s);
  s_->at = at;  // the next pass goes on from here
  return taken / passes;
}

}  // namespace perfbench
