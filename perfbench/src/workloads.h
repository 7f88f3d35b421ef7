#ifndef LSS_PERFBENCH_WORKLOADS_H_
#define LSS_PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "spans.h"
#include "summary.h"

namespace lss::perfbench {

/// What one workload run measured.
struct RunOutput {
  OpCounts ops;
  /// False when a correctness gate failed (invariants, consistency,
  /// payload or readback mismatch, an unsupported percentile).
  bool correct = true;
  Metrics metrics;
  /// Resident set size before set-up, once the inputs are drawn and the
  /// harness's buffers are reserved; peak_rss_mb is taken above it.
  double harness_rss_mb = 0.0;
  /// Human-readable report lines (sample counts, flags, gate results).
  std::vector<std::string> notes;
};

/// Runs `args.workload`. `spans` is null for the untraced run; the
/// traced run records one span per call into a layer.
RunOutput RunWorkload(const Args& args, SpanLog* spans);

}  // namespace lss::perfbench

#endif  // LSS_PERFBENCH_WORKLOADS_H_
