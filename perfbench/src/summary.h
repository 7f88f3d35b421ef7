#ifndef LSS_PERFBENCH_SUMMARY_H_
#define LSS_PERFBENCH_SUMMARY_H_

// The benchmark's own summary code: argument parsing, the percentile
// rule, failure accounting, the metric table and the result line. Kept
// apart from the workloads so perfbench_summary_test can check it
// without running a store.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace lss::perfbench {

/// The workloads, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// Parsed command line. `--workload W --seed N --seconds S --trace 0|1
/// --workdir DIR`; every flag is required except --workdir (default ".").
struct Args {
  std::string workload;
  uint64_t seed = 0;
  uint32_t seconds = 0;
  bool trace = false;
  std::string workdir = ".";
};

/// Strict parse: an unknown flag, a missing value, an unknown workload or
/// a value that is not entirely an integer in range sets `*error` to a
/// message naming the flag and the value, and returns false.
bool ParseArgs(const std::vector<std::string>& argv, Args* out,
               std::string* error);

/// A name may start with a letter or digit and holds at most 64 letters,
/// digits, '_', '.' and '-'. Applies to metric and workload names.
bool ValidName(const std::string& name);

// --- Percentiles --------------------------------------------------------
//
// Quantiles are given in parts per million (p99.99 = 999900) so the rank
// arithmetic is exact integer arithmetic. The rank is nearest-rank: the
// sample at 0-based index ceil(q * n) - 1 of the sorted samples.

/// 0-based nearest-rank index of quantile `q_ppm` in `n` samples (n >= 1).
uint64_t RankIndex(uint64_t n, uint32_t q_ppm);

/// Samples strictly beyond the reported rank: n - 1 - RankIndex.
uint64_t SamplesBeyond(uint64_t n, uint32_t q_ppm);

/// The percentile rule: a reported percentile needs at least ten samples
/// beyond it, so that one stray sample cannot set it.
bool PercentileSupported(uint64_t n, uint32_t q_ppm);

/// Nearest-rank quantile of `samples` (reordered in place). Returns 0 for
/// an empty set; callers check PercentileSupported first.
template <typename T>
double Quantile(std::vector<T>* samples, uint32_t q_ppm) {
  if (samples->empty()) return 0.0;
  const uint64_t idx = RankIndex(samples->size(), q_ppm);
  std::nth_element(samples->begin(), samples->begin() + idx, samples->end());
  return (*samples)[idx];
}

/// Median of `values`; 0 when empty.
double Median(std::vector<double> values);

/// A phase of work (the measured phase, or one set-up) cut into equal
/// slices. A host probe runs in small chunks spread evenly through each
/// slice, so its time follows the shared host's speed over the slice;
/// the slice's host factor is the chunks' CPU time over their nominal
/// time. Each slice is scaled to the reference host's speed by its
/// factor: its CPU time and its latency samples are divided by it, so
/// interference that slows the slice and its probe alike cancels.
/// Figures cover every slice of the phase.
class Slices {
 public:
  explicit Slices(double probe_nominal_s) : nominal_(probe_nominal_s) {}

  /// Starts a slice: successful operations, process CPU seconds and
  /// latency samples so far.
  void Begin(uint64_t ok_ops, double cpu_s, size_t samples);
  /// Ends the slice begun last; `probe_s` is the probe's CPU time in it.
  void End(uint64_t ok_ops, double cpu_s, size_t samples, double probe_s);

  size_t count() const { return slices_.size(); }
  /// Host factor of each slice.
  std::vector<double> Factors() const;
  /// Successful operations per CPU-second of each slice, as measured.
  std::vector<double> RawRates() const;
  /// CPU seconds of every slice, each divided by its host factor.
  double ScaledCpuSeconds() const;
  /// Successful operations per ScaledCpuSeconds().
  double Rate() const;

  /// Divides each slice's latency samples by its host factor.
  void Normalize(std::vector<float>* samples) const;

 private:
  struct Slice {
    uint64_t ok0, ok1;
    double cpu0, cpu1;
    size_t samples0, samples1;
    double factor;
  };
  double nominal_;
  Slice open_{};
  std::vector<Slice> slices_;
};

// --- Failure accounting -------------------------------------------------

/// User operations of one run. Every non-OK call, refused read, payload
/// mismatch and post-run readback miss is a failure; only succeeded()
/// operations count towards throughput (Slices).
struct OpCounts {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Ok() { ++attempted; }
  void Fail() {
    ++attempted;
    ++failed;
  }
  uint64_t succeeded() const { return attempted - failed; }
  double FailRatio() const;
  /// Successful / attempted; 1 when nothing was attempted.
  double OkRatio() const;
};

// --- Metrics ------------------------------------------------------------

/// Values measured by one run, by name. Names not set read as 0 (a layer
/// the workload does not exercise). The metric list and units live in
/// BENCHMARK.json alone; run.py builds the result line from it.
class Metrics {
 public:
  /// Throws std::invalid_argument when `name` is not ValidName.
  void Set(const std::string& name, double value);
  double Get(const std::string& name) const;
  const std::vector<std::pair<std::string, double>>& values() const {
    return values_;
  }

 private:
  std::vector<std::pair<std::string, double>> values_;
};

/// The program's result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`, the latter mapping every metric set to its
/// value with all its digits.
std::string ResultLine(bool correct, const OpCounts& ops,
                       const Metrics& metrics);

}  // namespace lss::perfbench

#endif  // LSS_PERFBENCH_SUMMARY_H_
