#include "summary.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace lss::perfbench {
namespace {

Args Parse(const std::vector<std::string>& argv, bool* ok,
           std::string* error) {
  Args args;
  *ok = ParseArgs(argv, &args, error);
  return args;
}

TEST(PercentileRuleTest, NeedsTenSamplesBeyondTheReportedRank) {
  // p99.99 needs 100 000 samples; one fewer leaves nine beyond it.
  EXPECT_EQ(SamplesBeyond(100000, 999900), 10u);
  EXPECT_TRUE(PercentileSupported(100000, 999900));
  EXPECT_EQ(SamplesBeyond(99999, 999900), 9u);
  EXPECT_FALSE(PercentileSupported(99999, 999900));
  // p99 needs 1 000 and the median 20.
  EXPECT_TRUE(PercentileSupported(1000, 990000));
  EXPECT_FALSE(PercentileSupported(999, 990000));
  EXPECT_TRUE(PercentileSupported(20, 500000));
  EXPECT_FALSE(PercentileSupported(19, 500000));
  EXPECT_FALSE(PercentileSupported(0, 500000));
}

TEST(PercentileRuleTest, NearestRankPicksTheSampleAtTheRank) {
  std::vector<double> samples;
  for (int i = 100000; i >= 1; --i) samples.push_back(i);  // reversed
  // Nearest rank: index ceil(q * n) - 1 of the sorted samples.
  EXPECT_EQ(Quantile(&samples, 500000), 50000.0);
  EXPECT_EQ(Quantile(&samples, 999900), 99990.0);
  const uint64_t beyond =
      std::count_if(samples.begin(), samples.end(),
                    [](double v) { return v > 99990.0; });
  EXPECT_EQ(beyond, SamplesBeyond(samples.size(), 999900));
  std::vector<double> empty;
  EXPECT_EQ(Quantile(&empty, 500000), 0.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(SlicesTest, ScalesEachSliceToTheReferenceHostSpeed) {
  Slices slices(/*probe_nominal_s=*/0.002);
  // Slice 1: 1000 ops in 1 s, probe at nominal speed.
  slices.Begin(0, 10.0, 0);
  slices.End(1000, 11.0, 30, 0.002);
  // Slice 2: the host ran half as fast (probe took twice as long), so
  // 500 ops in 1 s count as 1000 at reference speed.
  slices.Begin(1000, 11.5, 30);
  slices.End(1500, 12.5, 60, 0.004);
  // Slice 3: 900 ops in 1 s at nominal speed.
  slices.Begin(1500, 12.5, 60);
  slices.End(2400, 13.5, 90, 0.002);
  ASSERT_EQ(slices.count(), 3u);
  EXPECT_EQ(slices.RawRates(), (std::vector<double>{1000, 500, 900}));
  EXPECT_EQ(slices.Factors(), (std::vector<double>{1, 2, 1}));
  // Over the phase: 2400 ops in 1 + 1/2 + 1 CPU-seconds at reference
  // speed.
  EXPECT_EQ(slices.ScaledCpuSeconds(), 2.5);
  EXPECT_EQ(slices.Rate(), 960);

  // Latencies of slice 2 are halved.
  std::vector<float> us(90);
  for (size_t i = 0; i < 90; ++i) us[i] = i < 30 ? 10 : i < 60 ? 40 : 30;
  slices.Normalize(&us);
  EXPECT_EQ(us[15], 10.0f);
  EXPECT_EQ(us[45], 20.0f);
  EXPECT_EQ(us[75], 30.0f);
  EXPECT_EQ(Slices(0.002).Rate(), 0.0);
}

TEST(FailAccountingTest, RefusedReadsFailAndDoNotCountAsThroughput) {
  OpCounts ops;
  for (int i = 0; i < 6; ++i) ops.Ok();    // reads and writes that worked
  for (int i = 0; i < 2; ++i) ops.Fail();  // refused reads
  ops.Fail();                              // a readback miss
  EXPECT_EQ(ops.attempted, 9u);
  EXPECT_EQ(ops.failed, 3u);
  EXPECT_EQ(ops.succeeded(), 6u);
  EXPECT_DOUBLE_EQ(ops.FailRatio(), 3.0 / 9.0);
  EXPECT_DOUBLE_EQ(ops.OkRatio(), 6.0 / 9.0);
  EXPECT_EQ(OpCounts().OkRatio(), 1.0);
  // Throughput is taken over succeeded(): six operations in 2 CPU-s.
  Slices slices(0.002);
  slices.Begin(0, 0.0, 0);
  slices.End(ops.succeeded(), 2.0, 0, 0.002);
  EXPECT_DOUBLE_EQ(slices.Rate(), 3.0);
}

TEST(NameCharsetTest, MetricAndWorkloadNamesAreValid) {
  for (const std::string& w : WorkloadNames()) {
    EXPECT_TRUE(ValidName(w)) << w;
  }
  EXPECT_TRUE(ValidName("core.store.write_p50-x"));
  EXPECT_FALSE(ValidName(""));
  EXPECT_FALSE(ValidName(".hidden"));
  EXPECT_FALSE(ValidName("_x"));
  EXPECT_FALSE(ValidName("has space"));
  EXPECT_FALSE(ValidName("slash/name"));
  EXPECT_FALSE(ValidName(std::string(65, 'a')));
  EXPECT_TRUE(ValidName(std::string(64, 'a')));
  // A metric is only ever set under a valid name.
  Metrics m;
  EXPECT_THROW(m.Set("bad name", 1.0), std::invalid_argument);
  EXPECT_THROW(m.Set("", 1.0), std::invalid_argument);
  EXPECT_NO_THROW(m.Set("core.policies.cleanings", 1.0));
}

TEST(ParseArgsTest, AcceptsAWellFormedCommandLine) {
  bool ok = false;
  std::string error;
  const Args a = Parse({"--workload", "tpcc", "--seed", "42", "--seconds",
                        "10", "--trace", "1", "--workdir", "out"},
                       &ok, &error);
  ASSERT_TRUE(ok) << error;
  EXPECT_EQ(a.workload, "tpcc");
  EXPECT_EQ(a.seed, 42u);
  EXPECT_EQ(a.seconds, 10u);
  EXPECT_TRUE(a.trace);
  EXPECT_EQ(a.workdir, "out");
}

TEST(ParseArgsTest, RejectsBadValuesNamingThem) {
  const std::vector<std::string> base = {"--workload", "synth-zipf",
                                         "--seed",     "1",
                                         "--seconds",  "5",
                                         "--trace",    "0"};
  struct Case {
    size_t index;  // value to replace in `base`
    std::string value;
  };
  const std::vector<Case> cases = {
      {1, "synth_zipf"}, {1, ""},   {3, "12x"}, {3, "-1"},
      {3, " 7"},         {3, "+7"}, {3, "4294967296"},
      {5, "0"},          {5, "61"}, {7, "2"},   {7, "yes"},
  };
  for (const Case& c : cases) {
    std::vector<std::string> argv = base;
    argv[c.index] = c.value;
    bool ok = true;
    std::string error;
    Parse(argv, &ok, &error);
    EXPECT_FALSE(ok) << c.value;
    EXPECT_NE(error.find("'" + c.value + "'"), std::string::npos) << error;
    EXPECT_NE(error.find(argv[c.index - 1]), std::string::npos) << error;
  }
}

TEST(ParseArgsTest, RejectsMissingAndUnknownFlags) {
  bool ok = true;
  std::string error;
  Parse({"--workload", "tpcc", "--seed", "1", "--seconds", "5"}, &ok,
        &error);
  EXPECT_FALSE(ok);
  Parse({"--workload", "tpcc", "--seed"}, &ok, &error);
  EXPECT_FALSE(ok);
  Parse({"--workload", "tpcc", "--seed", "1", "--seconds", "5", "--trace",
         "0", "--bogus", "1"},
        &ok, &error);
  EXPECT_FALSE(ok);
  EXPECT_NE(error.find("--bogus"), std::string::npos);
}

TEST(ResultLineTest, CarriesEveryMetricSetWithAllItsDigits) {
  OpCounts ops;
  ops.Ok();
  ops.Fail();
  Metrics m;
  m.Set("wamp", 1.5);
  m.Set("core.store.read_refused", 7);
  m.Set("setup_s", 1.0 / 3.0);
  m.Set("wamp", 1.25);  // set again: replaced, not repeated
  EXPECT_EQ(ResultLine(true, ops, m),
            "{\"correct\": true, \"attempted\": 2, \"failed\": 1, "
            "\"metrics\": {\"wamp\": 1.25, \"core.store.read_refused\": 7, "
            "\"setup_s\": 0.33333333333333331}}");
  EXPECT_EQ(ResultLine(false, OpCounts(), Metrics()),
            "{\"correct\": false, \"attempted\": 0, \"failed\": 0, "
            "\"metrics\": {}}");
}

}  // namespace
}  // namespace lss::perfbench
