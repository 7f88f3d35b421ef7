// perfbench: the repository benchmark. Runs one workload from a seed,
// prints a report and then one JSON line mapping every metric it
// measured to its value; run.py turns that line into the result, taking
// the metric list and units from BENCHMARK.json. See perfbench/README.md.
//
//   perfbench --workload synth-zipf|durable-mixed|tpcc --seed N
//             --seconds S --trace 0|1 [--workdir DIR]
//
// --trace 0 reports the end-to-end metrics; --trace 1 records a span per
// call into a layer, reports the per-layer metrics and writes the spans
// to DIR/spans-<workload>.bin. Exit status: 0 when every correctness
// gate passed, 1 when one failed, 2 on a bad argument.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "spans.h"
#include "summary.h"
#include "workloads.h"

namespace lss::perfbench {
namespace {

// Wall seconds of `reps` host probes in a row.
double ProbeWallSeconds(int reps) {
  const int64_t t0 = NowNs();
  for (int i = 0; i < reps; ++i) HostProbeWork();
  return static_cast<double>(NowNs() - t0) * 1e-9;
}

/// Host calibration, recorded with every result so figures from
/// different hosts can be told apart: the host probe's time on one core,
/// and the parallel capacity (how many probes' worth of work the host
/// completes while one runs alone, when every hardware thread runs them).
void Calibrate(Metrics* metrics, std::vector<std::string>* notes) {
  constexpr int kReps = 32;
  ProbeWallSeconds(kReps);  // let the core reach its clock
  const double one = ProbeWallSeconds(kReps);
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  const int64_t t0 = NowNs();
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < n; ++i) {
    threads.emplace_back([] { ProbeWallSeconds(kReps); });
  }
  for (std::thread& t : threads) t.join();
  const double all = static_cast<double>(NowNs() - t0) * 1e-9;
  const double capacity = all > 0.0 ? n * one / all : 0.0;
  metrics->Set("host.probe_ms", one / kReps * 1e3);
  metrics->Set("host.parallel_capacity", capacity);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "host: probe %.3f ms on one core; %u threads ran %.2f "
                "cores' worth of probes",
                one / kReps * 1e3, n, capacity);
  notes->push_back(buf);
}

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(std::vector<std::string>(argv + 1, argv + argc), &args,
                 &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }

  Metrics host;
  std::vector<std::string> host_notes;
  Calibrate(&host, &host_notes);

  SpanLog spans;
  RunOutput out = RunWorkload(args, args.trace ? &spans : nullptr);
  // The store's footprint: peak RSS above what the harness held before
  // set-up (drawn inputs, reserved latency and span buffers).
  const double peak_mb = PeakRssMb();
  out.metrics.Set("peak_rss_mb", peak_mb - out.harness_rss_mb);
  char rss[96];
  std::snprintf(rss, sizeof(rss),
                "peak RSS %.1f MB, of which the harness held %.1f MB before "
                "set-up",
                peak_mb, out.harness_rss_mb);
  out.notes.push_back(rss);
  out.metrics.Set("host.probe_ms", host.Get("host.probe_ms"));
  out.metrics.Set("host.parallel_capacity",
                  host.Get("host.parallel_capacity"));
  out.notes.insert(out.notes.begin(), host_notes.begin(), host_notes.end());

  if (args.trace) {
    const std::string path =
        args.workdir + "/spans-" + args.workload + ".bin";
    const bool written = spans.Write(path);
    out.notes.push_back((written ? "spans written to " : "CANNOT WRITE ") +
                        path);
    if (!written) out.correct = false;
  }
  if (out.ops.attempted == 0) out.ops.Fail();  // nothing ran: say so

  std::printf("perfbench %s seed=%llu seconds=%u trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  for (const std::string& line : out.notes) {
    std::printf("  %s\n", line.c_str());
  }
  for (const auto& [name, value] : out.metrics.values()) {
    if (!std::isfinite(value)) {
      std::printf("  NOT FINITE: %s\n", name.c_str());
      out.correct = false;
    }
  }
  std::printf("%s\n", ResultLine(out.correct, out.ops, out.metrics).c_str());
  return out.correct ? 0 : 1;
}

}  // namespace
}  // namespace lss::perfbench

int main(int argc, char** argv) { return lss::perfbench::Main(argc, argv); }
