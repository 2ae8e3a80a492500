#pragma once

// Shared pieces of the FexIoT benchmark program: command-line options, the
// result record every workload fills, and host facts (cores from the
// affinity mask, peak RSS).

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/status.h"
#include "ml/metrics.h"

namespace perfbench {

/// Seconds on the steady clock since an arbitrary fixed origin.
inline double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and a short window: the smoke test's setting.
  bool tiny = false;
  /// Worker threads of both pools: the kernel pool (FEXIOT_THREADS) and
  /// the federated client pool (FlConfig::threads).
  int threads = 1;
  /// Directory for the Chrome trace and the full per-run record.
  std::string out_dir = ".bench_build/out";
};

/// One reported number: its unit and, for a timing, its sample count.
struct Value {
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

/// \brief What one workload run reports: named values, the operations it
/// attempted, and the ones that failed.
///
/// A workload sets every value it measures under its own name; main.cc
/// picks the BENCHMARK.json end-to-end and per-layer metrics out by name
/// and prints the rest (the workload's descriptive metrics, for example
/// serve_p99_ms) beside them.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples = 0) {
    values_[name] = {value, unit, samples};
  }
  void Info(const std::string& key, const std::string& value) {
    info_.emplace_back(key, value);
  }

  /// Counts one attempted operation; a non-OK status counts as failed.
  void Op(const fexiot::Status& status, const char* what);
  /// Counts \p n attempted operations that all succeeded.
  void Ops(uint64_t n) { attempted_ += n; }
  /// A correctness check: counted as attempted, and as failed when \p ok
  /// is false.
  void Check(bool ok, const std::string& what);

  bool correct() const { return failed_ == 0; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::map<std::string, Value>& values() const { return values_; }
  const std::vector<std::pair<std::string, std::string>>& info() const {
    return info_;
  }

 private:
  std::map<std::string, Value> values_;
  std::vector<std::pair<std::string, std::string>> info_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// Order statistics: the repository's own (interpolating percentile of the
// bench harness, median of the ml layer; all give 0 on an empty sample).
using fexiot::Median;
using fexiot::bench::Percentile;
inline double Mean(const std::vector<double>& v) {
  return fexiot::ComputeMeanStd(v).mean;
}

/// Cores this process may run on (the CPU affinity mask), at least 1.
int AffinityCores();
/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

/// Runs \p setup \p repeats times and returns the wall seconds of each.
/// Every repetition rebuilds the workload's state from the seed, so the
/// state kept is the last one built.
template <typename F>
std::vector<double> TimedSetups(int repeats, F&& setup) {
  std::vector<double> t;
  for (int i = 0; i < repeats; ++i) {
    const double t0 = NowS();
    setup();
    t.push_back(NowS() - t0);
  }
  return t;
}

// Workload entry points (fed.cc, serve.cc, analyze.cc).
void RunFedTrain(const Options& opt, Report* report);
void RunFedFleet(const Options& opt, Report* report);
void RunServeStream(const Options& opt, Report* report);
void RunAnalyze(const Options& opt, Report* report);

}  // namespace perfbench
