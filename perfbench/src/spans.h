#ifndef LSS_PERFBENCH_SPANS_H_
#define LSS_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace lss::perfbench {

namespace internal {
// Time-stamp-counter scale, calibrated against steady_clock at start-up:
// nanoseconds per tick in 32.32 fixed point.
struct TscScale {
  uint64_t tick0;
  uint64_t ns_per_tick_q32;
};
extern const TscScale kTscScale;
}  // namespace internal

/// Nanoseconds on a monotonic clock. On x86-64 this reads the time-stamp
/// counter and scales it, in integer arithmetic, by a factor calibrated
/// against steady_clock at start-up: about half the cost of a
/// steady_clock read, which matters when every sub-microsecond store call
/// is timed.
/// Elsewhere it is steady_clock.
inline int64_t NowNs() {
#if defined(__x86_64__)
  const unsigned __int128 ticks = __rdtsc() - internal::kTscScale.tick0;
  return static_cast<int64_t>((ticks * internal::kTscScale.ns_per_tick_q32) >>
                              32);
#else
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
#endif
}

/// Seconds of CPU time used by the whole process (all threads, so the
/// seal pipeline's I/O thread is included).
double ProcessCpuSeconds();

/// Seconds of CPU time used by the calling thread alone.
double ThreadCpuSeconds();

/// Peak resident set size of the process in MB.
double PeakRssMb();

/// Resident set size of the process now, in MB.
double CurrentRssMb();

/// The calibration loop: a fixed chain of dependent integer operations
/// in registers, timed once per run to tell hosts apart. It touches no
/// memory, so it sees the core's clock and time-slicing but not the
/// shared caches.
void HostProbeWork();

/// The host-speed probe, in chunks: one chunk is a fixed number of
/// independent random reads from a 12 MiB table, about the size of the
/// synth-zipf store's own data. Other tenants of this host slow the
/// store's memory-bound work through the shared caches and memory by up
/// to 1.5x, for a second to minutes at a time; these reads slow down with
/// it, where the register loop above does not. The table is allocated
/// when the program starts, before any workload. Returns the calling
/// thread's CPU seconds for the chunk; other threads (the seal
/// pipeline's) keep running meanwhile and their CPU does not count here.
double ProbeChunkSeconds();

/// In-memory span log of the traced run: one span per call the benchmark
/// makes into a layer (name, start, end and the span that caused it).
/// Spans stay in memory while the workload runs and are written out
/// once, after measurement.
///
/// A run records millions of leaf spans (one per store call), so a leaf
/// takes 16 bytes: its parent is one of the few spans opened with Open
/// (phases such as the measured phase or the trace replay), kept apart.
class SpanLog {
 public:
  /// Handle of an opened span; kNoParent marks a root.
  using Parent = uint16_t;
  static constexpr Parent kNoParent = UINT16_MAX;

  /// Id of `name`, registering it on first use.
  uint16_t Intern(const std::string& name);

  /// Opens a span that will have children; close it with Close.
  Parent Open(uint16_t name, Parent parent, int64_t start_ns);
  void Close(Parent id, int64_t end_ns) { opened_[id].end_ns = end_ns; }

  /// Makes room for `leaves` more leaf spans up front and touches it, so
  /// recording never pauses to grow the log or to fault in its pages.
  void Reserve(size_t leaves) {
    const size_t used = leaves_.size();
    leaves_.resize(used + leaves);
    leaves_.resize(used);
  }

  /// Records a finished leaf span.
  void Add(uint16_t name, Parent parent, int64_t start_ns, int64_t end_ns) {
    const int64_t dur = end_ns - start_ns;
    if (dur < 0 || dur > UINT32_MAX) {
      Close(Open(name, parent, start_ns), end_ns);
      return;
    }
    leaves_.push_back(
        Leaf{start_ns, static_cast<uint32_t>(dur), name, parent});
  }

  size_t size() const { return opened_.size() + leaves_.size(); }

  /// Durations in seconds of every span called `name`.
  std::vector<float> Durations(const std::string& name) const;
  /// Summed duration in seconds of every span called `name`.
  double TotalSeconds(const std::string& name) const;
  /// Duration in seconds of opened span `id`.
  double Seconds(Parent id) const;
  /// Summed duration of the direct children of `parent`: the part of the
  /// parent's interval that some layer's span covers.
  double ChildSeconds(Parent parent) const;

  /// Writes the log to `path`: a text header (format line, the span
  /// names, then one "start_ns end_ns name parent" line per opened span)
  /// followed by the leaf spans as raw little-endian 16-byte records
  /// (int64 start_ns, uint32 dur_ns, uint16 name, uint16 parent). Names
  /// and parents are indexes into the header's lists; README.md has a
  /// reader. Returns false on I/O error.
  bool Write(const std::string& path) const;

 private:
  struct Opened {
    int64_t start_ns;
    int64_t end_ns;
    uint16_t name;
    Parent parent;
  };
  struct Leaf {
    int64_t start_ns;
    uint32_t dur_ns;
    uint16_t name;
    Parent parent;
  };

  static_assert(sizeof(Leaf) == 16, "leaf spans are written raw");

  std::vector<std::string> names_;
  std::vector<Opened> opened_;
  std::vector<Leaf> leaves_;
};

}  // namespace lss::perfbench

#endif  // LSS_PERFBENCH_SPANS_H_
