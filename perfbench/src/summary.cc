#include "summary.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace lss::perfbench {

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"synth-zipf",
                                                 "durable-mixed", "tpcc"};
  return names;
}

namespace {

// Strict base-10 parse, the rule bench::ParseEnvInt applies to the
// LSS_BENCH_* knobs: the whole string must be an integer in [min, max].
bool ParseInt(const std::string& s, uint64_t min, uint64_t max,
              uint64_t* out) {
  if (s.empty() || s[0] < '0' || s[0] > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (*end != '\0' || errno == ERANGE || v < min || v > max) return false;
  *out = v;
  return true;
}

}  // namespace

bool ParseArgs(const std::vector<std::string>& argv, Args* out,
               std::string* error) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (size_t i = 0; i < argv.size(); i += 2) {
    const std::string& flag = argv[i];
    if (i + 1 >= argv.size()) {
      *error = flag + ": missing value";
      return false;
    }
    const std::string& value = argv[i + 1];
    auto bad = [&](const char* want) {
      *error = flag + ": invalid value '" + value + "' (want " + want + ")";
      return false;
    };
    uint64_t v = 0;
    if (flag == "--workload") {
      const auto& names = WorkloadNames();
      if (std::find(names.begin(), names.end(), value) == names.end()) {
        return bad("synth-zipf | durable-mixed | tpcc");
      }
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseInt(value, 0, std::numeric_limits<uint32_t>::max(), &v)) {
        return bad("an integer in [0, 4294967295]");
      }
      args.seed = v;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseInt(value, 1, 60, &v)) return bad("an integer in [1, 60]");
      args.seconds = static_cast<uint32_t>(v);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return bad("0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--workdir") {
      if (value.empty()) return bad("a directory");
      args.workdir = value;
    } else {
      *error = "unknown flag '" + flag + "'";
      return false;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    *error = "usage: perfbench --workload W --seed N --seconds S --trace 0|1"
             " [--workdir DIR]";
    return false;
  }
  *out = args;
  return true;
}

bool ValidName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  for (char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

uint64_t RankIndex(uint64_t n, uint32_t q_ppm) {
  // ceil(q * n) - 1 in integers; q_ppm <= 1e6 and n < 2^40 keep the
  // product far below 2^64.
  const uint64_t rank = (static_cast<uint64_t>(q_ppm) * n + 999999) / 1000000;
  return rank == 0 ? 0 : rank - 1;
}

uint64_t SamplesBeyond(uint64_t n, uint32_t q_ppm) {
  return n == 0 ? 0 : n - 1 - RankIndex(n, q_ppm);
}

bool PercentileSupported(uint64_t n, uint32_t q_ppm) {
  return n > 0 && SamplesBeyond(n, q_ppm) >= 10;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

void Slices::Begin(uint64_t ok_ops, double cpu_s, size_t samples) {
  open_ = Slice{ok_ops, ok_ops, cpu_s, cpu_s, samples, samples, 1.0};
}

void Slices::End(uint64_t ok_ops, double cpu_s, size_t samples,
                 double probe_s) {
  open_.ok1 = ok_ops;
  open_.cpu1 = cpu_s;
  open_.samples1 = samples;
  open_.factor = nominal_ > 0.0 && probe_s > 0.0 ? probe_s / nominal_ : 1.0;
  slices_.push_back(open_);
}

std::vector<double> Slices::Factors() const {
  std::vector<double> out;
  for (const Slice& s : slices_) out.push_back(s.factor);
  return out;
}

std::vector<double> Slices::RawRates() const {
  std::vector<double> out;
  for (const Slice& s : slices_) {
    const double cpu = s.cpu1 - s.cpu0;
    out.push_back(cpu > 0.0 ? static_cast<double>(s.ok1 - s.ok0) / cpu : 0.0);
  }
  return out;
}

void Slices::Normalize(std::vector<float>* samples) const {
  for (const Slice& s : slices_) {
    const float scale = static_cast<float>(1.0 / s.factor);
    for (size_t i = s.samples0; i < s.samples1; ++i) (*samples)[i] *= scale;
  }
}

double Slices::ScaledCpuSeconds() const {
  double cpu = 0.0;
  for (const Slice& s : slices_) cpu += (s.cpu1 - s.cpu0) / s.factor;
  return cpu;
}

double Slices::Rate() const {
  uint64_t ops = 0;
  for (const Slice& s : slices_) ops += s.ok1 - s.ok0;
  const double cpu = ScaledCpuSeconds();
  return cpu > 0.0 ? static_cast<double>(ops) / cpu : 0.0;
}

double OpCounts::FailRatio() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

double OpCounts::OkRatio() const {
  return attempted == 0 ? 1.0 : 1.0 - FailRatio();
}

void Metrics::Set(const std::string& name, double value) {
  if (!ValidName(name)) {
    throw std::invalid_argument("invalid metric name '" + name + "'");
  }
  for (auto& kv : values_) {
    if (kv.first == name) {
      kv.second = value;
      return;
    }
  }
  values_.emplace_back(name, value);
}

double Metrics::Get(const std::string& name) const {
  for (const auto& kv : values_) {
    if (kv.first == name) return kv.second;
  }
  return 0.0;
}

std::string ResultLine(bool correct, const OpCounts& ops,
                       const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ops.attempted);
  out += ", \"failed\": " + std::to_string(ops.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics.values()) {
    char buf[64];
    // %.17g keeps every digit of the measured value.
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": " + buf;
  }
  out += "}}";
  return out;
}

}  // namespace lss::perfbench
