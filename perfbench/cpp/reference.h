// A fixed reference job that measures how fast this host runs right now.
//
// The speed of a shared host drifts by tens of percent over minutes with the
// other tenants' load, and for the simulator the drift is in memory latency:
// a chase of dependent loads through a random cycle larger than the caches
// slows down with it, in step, while pure arithmetic does not. The reference
// job is that chase. It does the same work on every run, independent of the
// simulator's code and of --seed, on memory it allocates and touches once, so
// timing it never includes a page fault.
#pragma once

namespace perfbench {

class ReferenceJob {
 public:
  ReferenceJob();
  ~ReferenceJob();
  ReferenceJob(const ReferenceJob&) = delete;
  ReferenceJob& operator=(const ReferenceJob&) = delete;

  // Host seconds one pass of the job takes now: the mean over passes run
  // back to back until they have taken at least `min_s` (one at least).
  double time_pass(double min_s);

  // Memory the job keeps resident for its whole life.
  static double resident_mib();

 private:
  struct State;
  State* s_;
};

}  // namespace perfbench
