#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <system_error>

#include <unistd.h>

#include "core/io_backend.h"
#include "core/policy_factory.h"
#include "core/sharded_store.h"
#include "tpcc/tpcc_db.h"
#include "util/rng.h"
#include "workload/runner.h"
#include "workload/trace.h"
#include "workload/zipfian_workload.h"

namespace lss::perfbench {
namespace {

constexpr uint32_t kP50 = 500000;
constexpr uint32_t kP99 = 990000;
constexpr uint32_t kP9999 = 999900;

/// The measured phase and each set-up are cut into this many equal
/// slices of work, each scaled by its own host factor (Slices).
constexpr size_t kSlices = 40;

/// The host probe runs this many chunks (ProbeChunkSeconds) per slice,
/// spread evenly through it.
constexpr size_t kProbeChunks = 50;
/// ProbeChunkSeconds() on the reference host (README.md): the speed that
/// figures are scaled to.
constexpr double kProbeChunkNominalSeconds = 20e-6;
constexpr double kProbeNominalSeconds =
    kProbeChunks * kProbeChunkNominalSeconds;

/// Set-up runs this many times per run, each timed like the measured
/// phase (SliceCutter); setup_s is the median, and the last set-up's
/// state is measured.
constexpr int kSetupReps = 5;

/// Steady-state check: Wamp over the two halves of the measured phase
/// must agree within this share of their mean (the paper warms up "until
/// write amplification stabilized", §6.2).
constexpr double kSteadyTolerance = 0.05;

/// The paper's 80-20 skew (§6.2.2).
constexpr double kZipfTheta = 0.99;

// Measured-phase sizes. The phase is a fixed amount of work, --seconds
// times a per-workload rate, so both sides of a comparison run identical
// inputs and the exact counts (Wamp, device bytes, refusals) repeat for a
// seed. The rates make the phase last about --seconds on the reference
// host (README.md). The floors keep the percentile rule satisfiable.
constexpr uint64_t kZipfUpdatesPerSecond = 1600000;
constexpr uint64_t kMixedOpsPerSecond = 150000;
constexpr uint64_t kTpccTxnsPerSecond = 20000;
constexpr uint64_t kMixedCommitEvery = 1000;  // ops per Checkpoint()
// A p99.99 Write needs 100 000 samples, a p99 transaction 1 000 and a
// commit p99 1 000 commits; each probe chunk needs an op of its own.
constexpr uint64_t kMinWrites = 100000;
constexpr uint64_t kMinMixedOps = 1200 * kMixedCommitEvery;
constexpr uint64_t kMinTpccTxns = kSlices * kProbeChunks;

// TPC-C at fig6's reduced cardinality; the pool holds 10% of the 16 540
// pages population builds, so the growing database outgrows the cache.
constexpr uint32_t kTpccPoolPages = 1654;
constexpr uint64_t kTpccWarmTxns = 20000;
constexpr uint64_t kTpccCheckpointEvery = 2000;

std::string Format(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

/// Wall and process-CPU clock of one phase.
struct Phase {
  int64_t start_ns = NowNs();
  double start_cpu = ProcessCpuSeconds();

  double WallSeconds() const {
    return static_cast<double>(NowNs() - start_ns) * 1e-9;
  }
  double CpuSeconds() const { return ProcessCpuSeconds() - start_cpu; }
};

/// Shared state of one workload run: the output being built and the
/// span log (null when untraced, which makes every span call a no-op).
class Run {
 public:
  explicit Run(SpanLog* spans) : spans_(spans) {}

  RunOutput& out() { return out_; }
  bool traced() const { return spans_ != nullptr; }
  const SpanLog* spans() const { return spans_; }

  uint16_t Name(const char* name) {
    return spans_ != nullptr ? spans_->Intern(name) : 0;
  }
  SpanLog::Parent Open(uint16_t name, SpanLog::Parent parent,
                       int64_t start_ns) {
    return spans_ != nullptr ? spans_->Open(name, parent, start_ns) : 0;
  }
  void Close(SpanLog::Parent id, int64_t end_ns) {
    if (spans_ != nullptr) spans_->Close(id, end_ns);
  }
  void Reserve(size_t leaves) {
    if (spans_ != nullptr) spans_->Reserve(leaves);
  }
  void Add(uint16_t name, SpanLog::Parent parent, int64_t start_ns,
           int64_t end_ns) {
    if (spans_ != nullptr) spans_->Add(name, parent, start_ns, end_ns);
  }

  void Set(const std::string& name, double value) {
    out_.metrics.Set(name, value);
  }
  void Note(const std::string& line) { out_.notes.push_back(line); }

  /// A correctness gate: a failure marks the run incorrect.
  void Gate(bool ok, const std::string& what) {
    Note(std::string(ok ? "gate ok: " : "GATE FAILED: ") + what);
    if (!ok) out_.correct = false;
  }

  /// Sets `name` to the `q_ppm` quantile of `samples` times `scale`,
  /// stating the sample count. A quantile without ten samples beyond it
  /// is left unreported (0), as is one of an empty set (a layer this
  /// workload does not exercise).
  void SetQuantile(const std::string& name, std::vector<float> samples,
                   uint32_t q_ppm, double scale) {
    if (samples.empty()) return;
    const uint64_t n = samples.size();
    if (!PercentileSupported(n, q_ppm)) {
      Note(Format("%s not reported: %llu samples leave fewer than 10 "
                  "beyond it",
                  name.c_str(), static_cast<unsigned long long>(n)));
      return;
    }
    Set(name, Quantile(&samples, q_ppm) * scale);
    Note(Format("%s over %llu samples (%llu beyond)", name.c_str(),
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(SamplesBeyond(n, q_ppm))));
  }

  /// The end-to-end figures of the measured phase at the reference
  /// host's speed (Slices): successful operations per CPU-second, and the
  /// median and `tail_ppm` quantile of the latencies `us` (microseconds)
  /// of the workload's user call. The traced run reports only its rate,
  /// to compare with the untraced run.
  void SetEndToEnd(const Phase& phase, const Slices& slices,
                   const char* call, std::vector<float> us,
                   uint32_t tail_ppm) {
    Note(Format("measured phase: %.3f s wall, %.3f s CPU, %zu slices",
                phase.WallSeconds(), phase.CpuSeconds(), slices.count()));
    auto list = [](const std::vector<double>& v) {
      std::string out;
      for (double x : v) out += Format(" %.4g", x);
      return out;
    };
    Note("ops per CPU-second by slice, as measured:" +
         list(slices.RawRates()));
    Note("host factor by slice:" + list(slices.Factors()));
    Set("host.factor", Median(slices.Factors()));
    Set(traced() ? "trace.ops_per_cpu_s" : "ops_per_cpu_s",
        slices.Rate());
    if (traced()) return;
    slices.Normalize(&us);
    SetLatency("latency_p50_us", &us, kP50, call);
    SetLatency("latency_tail_us", &us, tail_ppm, call);
  }

  /// Sets end-to-end metric `name` to the `q_ppm` quantile of `us`
  /// (reordered in place); one without ten samples beyond it fails the
  /// run.
  void SetLatency(const char* name, std::vector<float>* us, uint32_t q_ppm,
                  const char* call) {
    const uint64_t n = us->size();
    if (!PercentileSupported(n, q_ppm)) {
      Gate(false, Format("%s: %llu %s latencies leave fewer than 10 "
                         "samples beyond p%g",
                         name, static_cast<unsigned long long>(n), call,
                         q_ppm / 1e4));
      return;
    }
    Set(name, Quantile(us, q_ppm));
    Note(Format("%s: %s at p%g over %llu samples (%llu beyond)", name, call,
                q_ppm / 1e4, static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(SamplesBeyond(n, q_ppm))));
  }

  /// Per-layer times of the store's write path from the traced run's
  /// spans. A Write counts as a cleaning write when the shard's cleaning
  /// counter advanced during the call.
  void SetWriteLayerMetrics() {
    if (spans_ == nullptr) return;
    Set("core.store.write_plain_s", spans_->TotalSeconds("core.store.write"));
    Set("core.store.write_clean_s",
        spans_->TotalSeconds("core.store.write_clean"));
    std::vector<float> all = spans_->Durations("core.store.write");
    std::vector<float> clean = spans_->Durations("core.store.write_clean");
    SetQuantile("core.store.write_plain_ns_p50", all, kP50, 1e9);
    SetQuantile("core.store.write_clean_us_p50", clean, kP50, 1e6);
    all.insert(all.end(), clean.begin(), clean.end());
    SetQuantile("core.store.write_clean_us_p99", std::move(clean), kP99, 1e6);
    Set("core.store.write_samples", static_cast<double>(all.size()));
    SetQuantile("core.store.write_us_p9999", std::move(all), kP9999, 1e6);
  }

 private:
  SpanLog* spans_;
  RunOutput out_;
};

/// The bench::DefaultConfig geometry (512 KiB segments of 4 KiB pages,
/// cleaning 16 victims when fewer than 4 segments are free, a 16-segment
/// sort buffer) with the MDC variant's placement settings.
StoreConfig Geometry(uint32_t segments) {
  StoreConfig cfg;
  cfg.page_bytes = 4096;
  cfg.segment_bytes = 128 * 4096;
  cfg.num_segments = segments;
  cfg.clean_trigger_segments = 4;
  cfg.clean_batch_segments = 16;
  cfg.write_buffer_segments = 16;
  ApplyVariantConfig(Variant::kMdc, &cfg);
  return cfg;
}

std::unique_ptr<ShardedStore> CreateStore(const StoreConfig& cfg,
                                          Status* status) {
  return ShardedStore::Create(
      cfg, 1, [] { return MakePolicy(Variant::kMdc); }, status);
}

/// `count` Zipf-distributed page ids.
std::vector<uint32_t> DrawPages(const ZipfianWorkload& zipf, Rng& rng,
                                uint64_t count) {
  std::vector<uint32_t> out(count);
  for (uint32_t& p : out) p = static_cast<uint32_t>(zipf.NextPage(rng));
  return out;
}

/// Times Write calls into a 1-shard store: a span per call in the traced
/// run, and latency samples on request in both modes.
class WriteTimer {
 public:
  WriteTimer(Run* run, ShardedStore* store)
      : run_(run),
        store_(store),
        stats_(store->shard(0).stats()),
        write_(run->Name("core.store.write")),
        write_clean_(run->Name("core.store.write_clean")) {}

  /// Appends the call's latency in microseconds to `us` unless it is
  /// null.
  Status Write(PageId page, uint32_t bytes, SpanLog::Parent parent,
               std::vector<float>* us) {
    const int64_t t0 = NowNs();
    Status s = store_->Write(page, bytes);
    const int64_t t1 = NowNs();
    if (us != nullptr) us->push_back(static_cast<float>(t1 - t0) * 1e-3f);
    if (run_->traced()) {
      // The counter is read once per call: its value after this call is
      // the next call's "before".
      const uint64_t cleanings = stats_.cleanings;
      run_->Add(cleanings != cleanings_ ? write_clean_ : write_, parent, t0,
                t1);
      cleanings_ = cleanings;
    }
    return s;
  }

 private:
  Run* run_;
  ShardedStore* store_;
  const StoreStats& stats_;  // the shard's counters, for the cleaning test
  uint64_t cleanings_ = stats_.cleanings;
  uint16_t write_;
  uint16_t write_clean_;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Wamp, its two halves (steady-state check) and the cleaner's counters
/// over the measured phase. `half` is the snapshot at its midpoint.
void SetStoreMetrics(const StoreStats& end, const StoreStats& half,
                     Run* run) {
  const double h1 = half.WriteAmplification();
  const double h2 = Ratio(
      static_cast<double>(end.gc_pages_written - half.gc_pages_written),
      static_cast<double>(end.user_pages_written - half.user_pages_written));
  run->Set("wamp", end.WriteAmplification());
  run->Set("core.store.wamp_half1", h1);
  run->Set("core.store.wamp_half2", h2);
  const double drift = Ratio(std::abs(h2 - h1), (h1 + h2) / 2.0);
  run->Note(Format("steady state %s: Wamp %.4f then %.4f (drift %.2f%%, "
                   "tolerance %.0f%%)",
                   drift <= kSteadyTolerance ? "ok" : "NOT REACHED", h1, h2,
                   100.0 * drift, 100.0 * kSteadyTolerance));
  run->Set("core.policies.cleanings", static_cast<double>(end.cleanings));
  run->Set("core.policies.pages_moved_per_cleaning",
           Ratio(static_cast<double>(end.gc_pages_written),
                 static_cast<double>(end.cleanings)));
  run->Set("core.policies.mean_clean_emptiness", end.MeanCleanEmptiness());
}

/// Times SelectVictims at the configured batch on the quiescent shard,
/// after measurement; median of 101 calls, in microseconds.
double ProbeSelectVictims(const ShardedStore& store) {
  const StoreShard& shard = store.shard(0);
  const size_t batch =
      shard.policy().PreferredBatch(shard.config().clean_batch_segments);
  std::vector<double> us;
  std::vector<SegmentId> victims;
  for (int i = 0; i < 101; ++i) {
    victims.clear();
    const int64_t t0 = NowNs();
    shard.policy().SelectVictims(shard, 0, batch, &victims);
    us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
  }
  return Median(us);
}

/// Cuts n ops of work into kSlices equal slices, with kProbeChunks probe
/// chunks spread evenly through each. A chunk runs on the calling thread
/// and is timed on that thread's clock; a slice's CPU time is the whole
/// process's less the chunks', so what other threads (the seal pipeline)
/// do while a chunk runs counts towards the slice. In the measured phase
/// a chunk is a root span of its own ("host.probe") in `run`: the
/// benchmark's time, not a layer's. A set-up passes no run and records no
/// spans.
class SliceCutter {
 public:
  SliceCutter(Run* run, size_t n) : run_(run), slices_(kProbeNominalSeconds) {
    const size_t chunks = kSlices * kProbeChunks;
    for (size_t k = 1; k <= chunks; ++k) chunk_ends_.push_back(n * k / chunks);
    chunk_ends_.push_back(SIZE_MAX);
    if (run_ != nullptr) {
      probe_name_ = run_->Name("host.probe");
      run_->Reserve(chunks);
    }
  }

  void Begin(uint64_t ok_ops, size_t samples) {
    slices_.Begin(ok_ops, Cpu(), samples);
  }

  /// Call after op `done` (1-based) with the counts so far.
  void After(size_t done, uint64_t ok_ops, size_t samples) {
    if (done != chunk_ends_[next_]) return;
    ++next_;
    const int64_t t0 = NowNs();
    const double chunk = ProbeChunkSeconds();
    if (run_ != nullptr) {
      run_->Add(probe_name_, SpanLog::kNoParent, t0, NowNs());
    }
    slice_probe_s_ += chunk;
    probe_s_ += chunk;
    if (next_ % kProbeChunks != 0) return;
    // Read after the chunk, so CPU that other threads spent during it
    // counts towards this slice.
    const double cpu = Cpu();
    slices_.End(ok_ops, cpu, samples, slice_probe_s_);
    slices_.Begin(ok_ops, cpu, samples);
    slice_probe_s_ = 0.0;
  }

  const Slices& slices() const { return slices_; }

 private:
  /// Process CPU seconds less the chunks'.
  double Cpu() const { return ProcessCpuSeconds() - probe_s_; }

  Run* run_;
  uint16_t probe_name_ = 0;
  Slices slices_;
  std::vector<size_t> chunk_ends_;
  size_t next_ = 0;
  double slice_probe_s_ = 0.0;  // the open slice's chunks
  double probe_s_ = 0.0;        // every chunk so far
};

/// Reports setup_s, the median set-up, and lists each set-up's time.
void ReportSetup(const std::vector<double>& seconds, Run* run) {
  run->Set("setup_s", Median(seconds));
  std::string list;
  for (double s : seconds) list += Format(" %.3f", s);
  run->Note("set-up CPU seconds by repetition, at reference host speed:" +
            list);
}

/// Makes room for `n` samples in `v` and touches it, so that filling it
/// costs the measured phase no page faults and its pages are resident
/// before the harness baseline is read.
void Touch(std::vector<float>* v, size_t n) {
  v->resize(n);
  v->clear();
}

/// Share of the measured phase (span `root`) that layer spans cover. The
/// host probe's chunks and the check of each read's payload lie inside
/// the phase but are the benchmark's own time, so they leave the
/// interval.
void SetCoverage(SpanLog::Parent root, Run* run) {
  if (!run->traced()) return;
  const SpanLog& spans = *run->spans();
  run->Set("trace.layer_share",
           Ratio(spans.ChildSeconds(root),
                 spans.Seconds(root) - spans.TotalSeconds("host.probe") -
                     spans.TotalSeconds("check.payload")));
  run->Set("trace.spans", static_cast<double>(spans.size()));
}

// --- synth-zipf ----------------------------------------------------------
//
// The paper's simulator path: null backend, MDC, write-only scrambled
// Zipf 0.99 at F = 0.9 on 1024 x 512 KiB segments. The cleaner dominates
// the write path here and there is no I/O or B+-tree in it.

RunOutput RunSynthZipf(const Args& args, SpanLog* spans) {
  Run run(spans);
  const StoreConfig cfg = Geometry(1024);
  const uint64_t pages = cfg.UserPagesForFillFactor(0.9);
  const uint64_t measured =
      std::max(kMinWrites, args.seconds * kZipfUpdatesPerSecond);

  // Inputs, drawn before anything is timed.
  const ZipfianWorkload zipf(pages, kZipfTheta);
  Rng rng(args.seed);
  const std::vector<uint32_t> warm_ops = DrawPages(zipf, rng, 8 * pages);
  const std::vector<uint32_t> ops = DrawPages(zipf, rng, measured);
  run.Note(Format("synth-zipf: %llu pages, %llu warm-up + %llu measured "
                  "updates",
                  static_cast<unsigned long long>(pages),
                  static_cast<unsigned long long>(warm_ops.size()),
                  static_cast<unsigned long long>(ops.size())));

  // Every update is timed; the traced run keeps spans instead of latency
  // samples.
  std::vector<float> write_us;
  std::vector<float>* const us = run.traced() ? nullptr : &write_us;
  if (us != nullptr) Touch(us, ops.size());
  run.Reserve(ops.size());
  run.out().harness_rss_mb = CurrentRssMb();

  // Set-up: create, load every page once, warm up to steady state.
  std::unique_ptr<ShardedStore> store;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    store.reset();
    SliceCutter setup(nullptr, pages + warm_ops.size());
    setup.Begin(0, 0);
    Status status;
    store = CreateStore(cfg, &status);
    size_t done = 0;
    for (PageId p = 0; status.ok() && p < pages; ++p) {
      status = store->Write(p);
      setup.After(++done, 0, 0);
    }
    for (size_t i = 0; status.ok() && i < warm_ops.size(); ++i) {
      status = store->Write(warm_ops[i]);
      setup.After(++done, 0, 0);
    }
    if (!status.ok()) {
      run.out().ops.Fail();
      run.Gate(false, "set-up: " + status.ToString());
      return std::move(run.out());
    }
    setup_s.push_back(setup.slices().ScaledCpuSeconds());
    store->ResetMeasurement();
  }
  ReportSetup(setup_s, &run);

  // Measured phase.
  WriteTimer timer(&run, store.get());
  OpCounts& counts = run.out().ops;
  StoreStats half;
  const size_t half_at = ops.size() / 2;
  const Phase phase;
  const SpanLog::Parent root =
      run.Open(run.Name("measure"), SpanLog::kNoParent, NowNs());
  SliceCutter cutter(&run, ops.size());
  cutter.Begin(0, 0);
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i == half_at) half = store->AggregatedStats();
    if (timer.Write(ops[i], 0, root, us).ok()) {
      counts.Ok();
    } else {
      counts.Fail();
    }
    cutter.After(i + 1, counts.succeeded(), write_us.size());
  }
  run.Close(root, NowNs());

  run.Set("ok_ratio", counts.OkRatio());
  run.SetEndToEnd(phase, cutter.slices(), "Write", std::move(write_us),
                  kP9999);
  run.SetWriteLayerMetrics();
  SetStoreMetrics(store->AggregatedStats(), half, &run);
  SetCoverage(root, &run);
  run.Set("core.policies.select_victims_us", ProbeSelectVictims(*store));

  const Status inv = store->CheckInvariants();
  run.Gate(inv.ok(), "CheckInvariants after measurement: " + inv.ToString());
  run.Gate(counts.failed == 0, Format("%llu of %llu updates failed",
                                      static_cast<unsigned long long>(
                                          counts.failed),
                                      static_cast<unsigned long long>(
                                          counts.attempted)));
  return std::move(run.out());
}

// --- durable-mixed ---------------------------------------------------------
//
// The same store used durably: file backend with fsync on, async seal
// pipeline, 512 x 512 KiB segments at F = 0.8. Half the ops read (and
// verify) a page, half write one, both Zipf 0.99, and a Checkpoint()
// commit barrier runs every kMixedCommitEvery ops. The run ends with
// Close, a timed Open (recovery) and a readback of every page.

constexpr uint32_t kReadBit = 1u << 31;

RunOutput RunDurableMixed(const Args& args, SpanLog* spans) {
  namespace fs = std::filesystem;
  Run run(spans);
  const std::string dir =
      args.workdir + "/durable-mixed." + std::to_string(::getpid());
  StoreConfig cfg = Geometry(512);
  Status status = ApplyBackendSpec("file:" + dir, &cfg);  // fsync on
  cfg.async_seal = true;
  const uint64_t pages = cfg.UserPagesForFillFactor(0.8);
  uint64_t measured = std::max(kMinMixedOps, args.seconds * kMixedOpsPerSecond);
  measured -= measured % kMixedCommitEvery;  // the phase ends on a commit

  const ZipfianWorkload zipf(pages, kZipfTheta);
  Rng rng(args.seed);
  const std::vector<uint32_t> warm_ops = DrawPages(zipf, rng, 2 * pages);
  std::vector<uint32_t> ops = DrawPages(zipf, rng, measured);
  for (uint32_t& op : ops) {
    if (rng.NextBounded(2) == 0) op |= kReadBit;
  }
  run.Note(Format("durable-mixed: %llu pages, %llu warm-up writes, %llu "
                  "measured ops, commit every %llu",
                  static_cast<unsigned long long>(pages),
                  static_cast<unsigned long long>(warm_ops.size()),
                  static_cast<unsigned long long>(ops.size()),
                  static_cast<unsigned long long>(kMixedCommitEvery)));

  std::vector<float> read_us;  // successful reads only
  std::vector<float> commit_ms;
  Touch(&read_us, ops.size());
  commit_ms.reserve(ops.size() / kMixedCommitEvery);
  const size_t reads = static_cast<size_t>(
      std::count_if(ops.begin(), ops.end(),
                    [](uint32_t op) { return (op & kReadBit) != 0; }));
  // A span per op and per commit, and a payload check per read.
  run.Reserve(ops.size() + ops.size() / kMixedCommitEvery + reads);
  run.out().harness_rss_mb = CurrentRssMb();

  std::unique_ptr<ShardedStore> store;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps && status.ok(); ++rep) {
    store.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    SliceCutter setup(nullptr, pages + warm_ops.size());
    setup.Begin(0, 0);
    store = CreateStore(cfg, &status);
    size_t done = 0;
    for (PageId p = 0; status.ok() && p < pages; ++p) {
      status = store->Write(p);
      setup.After(++done, 0, 0);
    }
    for (size_t i = 0; status.ok() && i < warm_ops.size(); ++i) {
      status = store->Write(warm_ops[i]);
      // The last write commits too, so the commit is timed in the last
      // slice.
      if (status.ok() && i + 1 == warm_ops.size()) {
        status = store->Checkpoint();
      }
      setup.After(++done, 0, 0);
    }
    if (status.ok()) {
      setup_s.push_back(setup.slices().ScaledCpuSeconds());
      store->ResetMeasurement();
    }
  }
  if (!status.ok()) {
    store.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
    run.out().ops.Fail();
    run.Gate(false, "set-up: " + status.ToString());
    return std::move(run.out());
  }
  ReportSetup(setup_s, &run);

  WriteTimer timer(&run, store.get());
  const uint16_t read_name = run.Name("core.store.read");
  const uint16_t commit_name = run.Name("core.store.commit");
  const uint16_t check_name = run.Name("check.payload");
  std::vector<uint8_t> buf;
  OpCounts& counts = run.out().ops;
  uint64_t refused = 0, mismatched = 0, errors = 0;
  StoreStats half;
  const size_t half_at = ops.size() / 2;
  const Phase phase;
  const SpanLog::Parent root =
      run.Open(run.Name("measure"), SpanLog::kNoParent, NowNs());
  SliceCutter cutter(&run, ops.size());
  cutter.Begin(0, 0);
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i == half_at) half = store->AggregatedStats();
    const PageId page = ops[i] & ~kReadBit;
    if ((ops[i] & kReadBit) != 0) {
      const int64_t t0 = NowNs();
      const Status s = store->ReadPage(page, &buf);
      const int64_t t1 = NowNs();
      run.Add(read_name, root, t0, t1);
      const bool verified =
          s.ok() && buf.size() == cfg.page_bytes &&
          VerifyPagePayload(page, cfg.page_bytes, buf.data());
      // The benchmark's own check: a root span, outside the layers.
      if (run.traced()) run.Add(check_name, SpanLog::kNoParent, t1, NowNs());
      if (verified) {
        counts.Ok();
        read_us.push_back(static_cast<float>(t1 - t0) * 1e-3f);
      } else {
        counts.Fail();
        // ReadPage refuses a version still buffered or in an open
        // segment (InvalidArgument); anything else is an error.
        if (s.ok()) {
          ++mismatched;
        } else if (s.code() == Status::Code::kInvalidArgument) {
          ++refused;
        } else {
          ++errors;
        }
      }
    } else if (timer.Write(page, 0, root, nullptr).ok()) {
      counts.Ok();
    } else {
      counts.Fail();
      ++errors;
    }
    if ((i + 1) % kMixedCommitEvery == 0) {
      const int64_t t0 = NowNs();
      const Status s = store->Checkpoint();
      const int64_t t1 = NowNs();
      run.Add(commit_name, root, t0, t1);
      commit_ms.push_back(static_cast<float>(t1 - t0) * 1e-6f);
      if (s.ok()) {
        counts.Ok();
      } else {
        counts.Fail();
        ++errors;
      }
    }
    cutter.After(i + 1, counts.succeeded(), read_us.size());
  }
  run.Close(root, NowNs());
  const StoreStats stats = store->AggregatedStats();

  run.SetEndToEnd(phase, cutter.slices(), "ReadPage", std::move(read_us),
                  kP99);
  run.SetWriteLayerMetrics();
  SetStoreMetrics(stats, half, &run);
  SetCoverage(root, &run);
  run.Set("core.policies.select_victims_us", ProbeSelectVictims(*store));
  if (run.traced()) {
    run.Set("core.store.read_s", run.spans()->TotalSeconds("core.store.read"));
    run.Set("core.store.commit_s",
            run.spans()->TotalSeconds("core.store.commit"));
    run.SetQuantile("core.store.commit_ms_p50", commit_ms, kP50, 1.0);
    run.SetQuantile("core.store.commit_ms_p99", std::move(commit_ms), kP99,
                    1.0);
  }
  run.Set("core.store.read_refused", static_cast<double>(refused));
  run.Set("core.io_backend.device_write_ops",
          static_cast<double>(stats.device_write_ops));
  run.Set("core.io_backend.device_bytes_written",
          static_cast<double>(stats.device_bytes_written));
  run.Set("core.io_backend.device_bytes_per_user_byte",
          stats.DeviceBytesPerUserByte());
  run.Set("core.io_backend.write_s", stats.device_write_seconds);
  run.Set("core.io_backend.fsyncs", static_cast<double>(stats.device_fsyncs));
  run.Set("core.io_backend.fsync_s", stats.device_fsync_seconds);
  run.Set("core.seal_pipeline.ops_per_group_fsync",
          Ratio(static_cast<double>(stats.group_fsync_ops),
                static_cast<double>(stats.group_fsyncs)));
  run.Set("core.seal_pipeline.queue_stalls",
          static_cast<double>(stats.seal_queue_stalls));
  run.Set("core.seal_pipeline.checkpoint_bytes_share",
          Ratio(static_cast<double>(stats.checkpoint_bytes_written),
                static_cast<double>(stats.device_bytes_written)));
  run.Note(Format("reads refused (version not yet sealed): %llu; payload "
                  "mismatches: %llu; other errors: %llu",
                  static_cast<unsigned long long>(refused),
                  static_cast<unsigned long long>(mismatched),
                  static_cast<unsigned long long>(errors)));
  run.Gate(mismatched == 0 && errors == 0,
           "every successful read matched its payload and no call errored");
  const Status inv = store->CheckInvariants();
  run.Gate(inv.ok(), "CheckInvariants after measurement: " + inv.ToString());

  // Recovery: Close, then a timed Open from the files alone.
  const int64_t r0 = NowNs();
  const SpanLog::Parent recover =
      run.Open(run.Name("recover"), SpanLog::kNoParent, r0);
  Status s = store->Close();
  const int64_t r1 = NowNs();
  run.Add(run.Name("core.store.close"), recover, r0, r1);
  store.reset();
  std::error_code ec;
  const double meta_mib =
      static_cast<double>(fs::file_size(dir + "/shard-0000.meta", ec)) /
      (1024.0 * 1024.0);
  const int64_t r2 = NowNs();
  Status open_status;
  store = ShardedStore::Open(
      cfg, 1, [] { return MakePolicy(Variant::kMdc); }, &open_status);
  const int64_t r3 = NowNs();
  run.Add(run.Name("core.store.open"), recover, r2, r3);
  run.Close(recover, r3);
  const double open_s = static_cast<double>(r3 - r2) * 1e-9;
  run.Set("core.store.close_s", static_cast<double>(r1 - r0) * 1e-9);
  run.Set("core.store.open_s", open_s);
  run.Set("core.io_backend.meta_log_mib", meta_mib);
  run.Set("core.io_backend.open_s_per_meta_mib", Ratio(open_s, meta_mib));
  run.Gate(s.ok() && store != nullptr,
           "Close and reopen: " + s.ToString() + " / " +
               open_status.ToString());

  // Readback of every page the benchmark acknowledged: presence, size and
  // payload. Each miss is a failed operation.
  uint64_t misses = 0;
  for (PageId p = 0; store != nullptr && p < pages; ++p) {
    const bool ok = store->Contains(p) &&
                    store->PageSize(p) == cfg.page_bytes &&
                    store->ReadPage(p, &buf).ok() &&
                    buf.size() == cfg.page_bytes &&
                    VerifyPagePayload(p, cfg.page_bytes, buf.data());
    if (!ok) {
      ++misses;
      counts.Fail();
    }
  }
  run.Gate(store != nullptr && misses == 0,
           Format("readback after reopen: %llu of %llu pages missing or "
                  "wrong",
                  static_cast<unsigned long long>(misses),
                  static_cast<unsigned long long>(pages)));
  if (store != nullptr) {
    const Status reinv = store->CheckInvariants();
    run.Gate(reinv.ok(), "CheckInvariants after reopen: " + reinv.ToString());
  }
  run.Set("ok_ratio", counts.OkRatio());
  store.reset();
  fs::remove_all(dir, ec);
  return std::move(run.out());
}

// --- tpcc ------------------------------------------------------------------
//
// One worker runs the standard TPC-C mix on the latch-coupled B+-tree
// with an LRU pool of 10% of the populated database and an engine
// checkpoint every 2 000 transactions; the collected page-write trace is
// then replayed through MDC at F = 0.8. The only workload that drives
// btree, buffer_pool and tpcc; the store does little work here.

const char* const kTxnSpanNames[5] = {"tpcc.new_order", "tpcc.payment",
                                      "tpcc.order_status", "tpcc.delivery",
                                      "tpcc.stock_level"};

RunOutput RunTpcc(const Args& args, SpanLog* spans) {
  Run run(spans);
  tpcc::TpccConfig tc;
  tc.warehouses = 4;
  tc.districts_per_warehouse = 10;
  tc.customers_per_district = 400;
  tc.items = 5000;
  tc.orders_per_district = 400;
  tc.buffer_pool_pages = kTpccPoolPages;
  tc.seed = args.seed;
  tc.workers = 1;
  tc.pool_policy = EvictionPolicyKind::kExactLru;
  const uint64_t measured =
      std::max(kMinTpccTxns, args.seconds * kTpccTxnsPerSecond);

  std::vector<float> txn_us;
  Touch(&txn_us, measured);
  run.Reserve(measured + measured / kTpccCheckpointEvery + 1);
  run.out().harness_rss_mb = CurrentRssMb();

  // Set-up: populate, push the database to storage, warm up. Op 1 of the
  // set-up is the population (one call, so the probe cannot run inside
  // it), then one op per warm-up transaction.
  std::unique_ptr<Trace> trace;
  std::unique_ptr<tpcc::TpccDb> db;
  std::vector<double> setup_s;
  std::vector<double> populate_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    db.reset();
    trace = std::make_unique<Trace>();
    SliceCutter setup(nullptr, 1 + kTpccWarmTxns);
    setup.Begin(0, 0);
    const Phase populate;
    db = std::make_unique<tpcc::TpccDb>(tc, trace.get());
    db->Populate();
    populate_s.push_back(populate.WallSeconds());
    db->Checkpoint();
    setup.After(1, 0, 0);
    for (uint64_t i = 1; i <= kTpccWarmTxns; ++i) {
      db->RunNextTransaction();
      if (i % kTpccCheckpointEvery == 0) db->Checkpoint();
      setup.After(1 + i, 0, 0);
    }
    setup_s.push_back(setup.slices().ScaledCpuSeconds());
  }
  ReportSetup(setup_s, &run);
  run.Set("tpcc.populate_s", Median(populate_s));
  run.Note(Format("tpcc: %llu pages after warm-up, pool %u pages, %llu "
                  "measured transactions",
                  static_cast<unsigned long long>(db->PageCount()),
                  kTpccPoolPages, static_cast<unsigned long long>(measured)));

  uint16_t txn_names[5];
  for (int t = 0; t < 5; ++t) txn_names[t] = run.Name(kTxnSpanNames[t]);
  const uint16_t checkpoint_name = run.Name("tpcc.checkpoint");
  const BufferPool& pool = db->pool();
  const uint64_t hits0 = pool.hits(), misses0 = pool.misses(),
                 evictions0 = pool.evictions(),
                 write_backs0 = pool.write_backs(),
                 latches0 = pool.latch_acquisitions();
  const size_t measure_from = trace->Size();
  std::vector<double> checkpoint_ms;
  OpCounts& counts = run.out().ops;

  const Phase phase;
  const SpanLog::Parent root =
      run.Open(run.Name("measure"), SpanLog::kNoParent, NowNs());
  SliceCutter cutter(&run, measured);
  cutter.Begin(0, 0);
  for (uint64_t i = 1; i <= measured; ++i) {
    const int64_t t0 = NowNs();
    const tpcc::TpccDb::TxnType type = db->RunNextTransaction();
    const int64_t t1 = NowNs();
    txn_us.push_back(static_cast<float>(t1 - t0) * 1e-3f);
    run.Add(txn_names[static_cast<int>(type)], root, t0, t1);
    counts.Ok();
    // The last checkpoint closes the trace, as trace generation does.
    if (i % kTpccCheckpointEvery == 0 || i == measured) {
      const int64_t c0 = NowNs();
      db->Checkpoint();
      const int64_t c1 = NowNs();
      run.Add(checkpoint_name, root, c0, c1);
      checkpoint_ms.push_back(static_cast<double>(c1 - c0) * 1e-6);
    }
    cutter.After(i, counts.succeeded(), txn_us.size());
  }
  const double txns = static_cast<double>(measured);
  run.SetEndToEnd(phase, cutter.slices(), "transaction", std::move(txn_us),
                  kP99);
  run.Set("btree.buffer_pool.hit_rate",
          Ratio(static_cast<double>(pool.hits() - hits0),
                static_cast<double>(pool.hits() - hits0 + pool.misses() -
                                    misses0)));
  run.Set("btree.buffer_pool.misses_per_txn",
          static_cast<double>(pool.misses() - misses0) / txns);
  run.Set("btree.buffer_pool.evictions_per_txn",
          static_cast<double>(pool.evictions() - evictions0) / txns);
  run.Set("btree.buffer_pool.write_backs_per_txn",
          static_cast<double>(pool.write_backs() - write_backs0) / txns);
  run.Set("btree.buffer_pool.latch_acquisitions_per_txn",
          static_cast<double>(pool.latch_acquisitions() - latches0) / txns);
  run.Set("workload.trace.records_per_txn",
          static_cast<double>(trace->Size() - measure_from) / txns);
  run.Note(Format("tpcc: the database grew to %llu pages over the measured "
                  "phase, so the replay's Wamp rises with its fill",
                  static_cast<unsigned long long>(db->PageCount())));

  // Replay the whole trace through MDC, on a device sized (as fig6 does)
  // so the final database fills F = 0.8 of it; the trace's measured part
  // is timed and counted.
  const int64_t replay_start = NowNs();
  const SpanLog::Parent replay =
      run.Open(run.Name("workload.trace.replay"), root, replay_start);
  StoreConfig cfg = Geometry(8);
  const uint32_t reserve =
      cfg.clean_trigger_segments + cfg.clean_batch_segments / 2 + 4;
  cfg = ScaleConfigForFill(
      cfg, db->PageCount() + reserve * cfg.PagesPerSegment() / 64, 0.8);
  cfg.num_segments += reserve;
  Status status;
  std::unique_ptr<ShardedStore> store = CreateStore(cfg, &status);
  uint64_t replay_errors = status.ok() ? 0 : 1;
  const std::vector<TraceRecord>& records = trace->records();
  const size_t half_at = measure_from + (records.size() - measure_from) / 2;
  StoreStats half;
  if (store != nullptr) {
    WriteTimer timer(&run, store.get());
    run.Reserve(records.size());
    for (size_t i = 0; i < records.size(); ++i) {
      if (i == measure_from) store->ResetMeasurement();
      if (i == half_at) half = store->AggregatedStats();
      const TraceRecord& rec = records[i];
      Status s;
      if (rec.op == TraceRecord::Op::kWrite) {
        s = timer.Write(rec.page, rec.bytes, replay, nullptr);
      } else {
        s = store->Delete(rec.page);
        if (s.code() == Status::Code::kNotFound) s = Status::OK();
      }
      if (!s.ok()) ++replay_errors;
    }
  }
  const int64_t replay_end = NowNs();
  run.Close(replay, replay_end);
  run.Close(root, replay_end);
  run.Set("workload.trace.replay_s",
          static_cast<double>(replay_end - replay_start) * 1e-9);
  run.Set("ok_ratio", counts.OkRatio());

  run.SetWriteLayerMetrics();
  SetCoverage(root, &run);
  if (store != nullptr) {
    SetStoreMetrics(store->AggregatedStats(), half, &run);
    run.Set("core.policies.select_victims_us", ProbeSelectVictims(*store));
  }
  if (run.traced()) {
    for (int t = 0; t < 5; ++t) {
      const std::string name = kTxnSpanNames[t];
      std::vector<float> d = run.spans()->Durations(name);
      run.SetQuantile(name + "_us_p50", d, kP50, 1e6);
      run.SetQuantile(name + "_us_p99", std::move(d), kP99, 1e6);
    }
    run.Set("tpcc.checkpoint_ms", Median(checkpoint_ms));
  }

  run.Gate(replay_errors == 0,
           Format("trace replay: %llu failed calls",
                  static_cast<unsigned long long>(replay_errors)));
  if (store != nullptr) {
    const Status inv = store->CheckInvariants();
    run.Gate(inv.ok(), "CheckInvariants after replay: " + inv.ToString());
  }
  const Status consistency = db->CheckConsistency();
  run.Gate(consistency.ok(),
           "TpccDb::CheckConsistency: " + consistency.ToString());
  return std::move(run.out());
}

}  // namespace

RunOutput RunWorkload(const Args& args, SpanLog* spans) {
  if (args.workload == "synth-zipf") return RunSynthZipf(args, spans);
  if (args.workload == "durable-mixed") return RunDurableMixed(args, spans);
  return RunTpcc(args, spans);
}

}  // namespace lss::perfbench
