// The one quantile helper every perfbench timing goes through.
//
// Percentiles are nearest-rank: the q-th percentile of n samples is the
// sample at 1-based rank ceil(q * n) of the sorted list, so it is always a
// value that was actually observed. A tail percentile is only trusted when
// at least kMinBeyond samples lie strictly above that rank (the
// "ten samples beyond" rule); `meets_rule` says whether it does, and the
// sample count travels with every value so reports can print it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinBeyond = 10;

struct Quantile {
  double q = 0;            // requested quantile in (0, 1]
  double value = 0;        // the sample at the nearest rank (0 when n == 0)
  std::size_t n = 0;       // samples the value was taken from
  std::size_t beyond = 0;  // samples strictly above the rank
  [[nodiscard]] bool meets_rule() const { return n > 0 && beyond >= kMinBeyond; }
};

// Nearest-rank quantile of `samples` (taken by value: it is sorted here).
inline Quantile quantile(std::vector<double> samples, double q) {
  Quantile out;
  out.q = q;
  out.n = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  double exact = q * static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  out.value = samples[rank - 1];
  out.beyond = samples.size() - rank;
  return out;
}

inline Quantile median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

// The highest of `wanted` that the sample supports under the rule; when
// even the lowest is unsupported, the sample maximum (q = 1) is returned,
// which bounds every percentile from above.
inline Quantile tail(const std::vector<double>& samples, double wanted) {
  Quantile t = quantile(samples, wanted);
  if (t.meets_rule() || samples.empty()) return t;
  return quantile(samples, 1.0);
}

// "p95=1.234 (n=200, 10 beyond)" — the form every report line uses.
inline std::string describe(const Quantile& x) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "p%g=%.6g (n=%zu, %zu beyond)", x.q * 100.0,
                x.value, x.n, x.beyond);
  return buf;
}

}  // namespace perfbench
