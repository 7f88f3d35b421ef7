#include "spans.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <ctime>
#include <stdexcept>

namespace lss::perfbench {

namespace internal {
namespace {

// Counts ticks over 20 ms of steady_clock time.
TscScale CalibrateTsc() {
#if defined(__x86_64__)
  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0 = Clock::now();
  const uint64_t c0 = __rdtsc();
  Clock::time_point t1 = t0;
  while (t1 - t0 < std::chrono::milliseconds(20)) t1 = Clock::now();
  const uint64_t c1 = __rdtsc();
  const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
  return TscScale{c0, static_cast<uint64_t>(ns / static_cast<double>(c1 - c0) *
                                            4294967296.0)};
#else
  return TscScale{0, 0};
#endif
}

}  // namespace

const TscScale kTscScale = CalibrateTsc();

}  // namespace internal

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double CurrentRssMb() {
  long pages = 0, resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  const int got = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

namespace {

// The probes' results land here so they cannot be optimised away.
volatile uint64_t g_probe_sink = 0;

constexpr size_t kProbeTableWords = size_t{3} << 20;  // 12 MiB
constexpr int kProbeChunkReads = 1024;

std::vector<uint32_t> MakeProbeTable() {
  std::vector<uint32_t> table(kProbeTableWords);
  for (size_t i = 0; i < table.size(); ++i) {
    table[i] = static_cast<uint32_t>(i);
  }
  return table;
}

const std::vector<uint32_t> g_probe_table = MakeProbeTable();
uint64_t g_probe_state = 88172645463325252ull;  // xorshift64

}  // namespace

void HostProbeWork() {
  uint64_t x = 88172645463325252ull;
  for (uint32_t i = 0; i < (1u << 20); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  g_probe_sink = x;
}

double ProbeChunkSeconds() {
  const uint32_t* const table = g_probe_table.data();
  uint64_t x = g_probe_state;
  uint64_t sum = 0;
  const double t0 = ThreadCpuSeconds();
  for (int i = 0; i < kProbeChunkReads; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    sum += table[(x >> 20) % kProbeTableWords];
  }
  const double s = ThreadCpuSeconds() - t0;
  g_probe_state = x;
  g_probe_sink = sum;
  return s;
}

uint16_t SpanLog::Intern(const std::string& name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint16_t>(i);
  }
  names_.push_back(name);
  return static_cast<uint16_t>(names_.size() - 1);
}

SpanLog::Parent SpanLog::Open(uint16_t name, Parent parent,
                              int64_t start_ns) {
  if (opened_.size() >= kNoParent) {
    throw std::length_error("SpanLog: too many opened spans");
  }
  opened_.push_back(Opened{start_ns, start_ns, name, parent});
  return static_cast<Parent>(opened_.size() - 1);
}

std::vector<float> SpanLog::Durations(const std::string& name) const {
  std::vector<float> out;
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] != name) continue;
    for (const Opened& s : opened_) {
      if (s.name == i) {
        out.push_back(static_cast<float>(s.end_ns - s.start_ns) * 1e-9f);
      }
    }
    for (const Leaf& s : leaves_) {
      if (s.name == i) out.push_back(static_cast<float>(s.dur_ns) * 1e-9f);
    }
  }
  return out;
}

double SpanLog::TotalSeconds(const std::string& name) const {
  double total = 0.0;
  for (float d : Durations(name)) total += d;
  return total;
}

double SpanLog::Seconds(Parent id) const {
  return static_cast<double>(opened_[id].end_ns - opened_[id].start_ns) *
         1e-9;
}

double SpanLog::ChildSeconds(Parent parent) const {
  int64_t total = 0;
  for (const Opened& s : opened_) {
    if (s.parent == parent) total += s.end_ns - s.start_ns;
  }
  for (const Leaf& s : leaves_) {
    if (s.parent == parent) total += s.dur_ns;
  }
  return static_cast<double>(total) * 1e-9;
}

bool SpanLog::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::fprintf(f, "lss-perfbench-spans 1\nnames %zu\n", names_.size());
  for (const std::string& n : names_) std::fprintf(f, "%s\n", n.c_str());
  std::fprintf(f, "opened %zu\n", opened_.size());
  for (const Opened& s : opened_) {
    std::fprintf(f, "%lld %lld %u %u\n", static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.name, s.parent);
  }
  std::fprintf(f, "leaves %zu\n", leaves_.size());
  const size_t written =
      std::fwrite(leaves_.data(), sizeof(Leaf), leaves_.size(), f);
  return std::fclose(f) == 0 && written == leaves_.size();
}

}  // namespace lss::perfbench
