// Unit tests for the common utilities: RNG, statistics, formatting,
// tables, unit conversions, and the shared command-line parser.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace hero {
namespace {

// --- command line ---

TEST(Cli, ParseUintTakesWholeNonNegativeIntegers) {
  EXPECT_EQ(cli::parse_uint("0", "n"), 0u);
  EXPECT_EQ(cli::parse_uint("10", "n"), 10u);
  EXPECT_EQ(cli::parse_uint("99999999999", "n"), 99999999999u);
  EXPECT_EQ(cli::parse_uint("18446744073709551615", "n"),
            18446744073709551615u);
  EXPECT_EQ(cli::parse_uint("255", "n", 255), 255u);
  for (const char* bad : {"", "10abc", "7x", "abc", "1.5", "-5", "+5", " 7",
                          "7 ", "0x10", "1e3"}) {
    EXPECT_THROW((void)cli::parse_uint(bad, "n"), std::invalid_argument)
        << "'" << bad << "'";
  }
  // Out of range: past uint64, or past the caller's maximum.
  EXPECT_THROW((void)cli::parse_uint("18446744073709551616", "n"),
               std::invalid_argument);
  EXPECT_THROW((void)cli::parse_uint("99999999999999999999999", "n"),
               std::invalid_argument);
  EXPECT_THROW((void)cli::parse_uint("256", "n", 255), std::invalid_argument);
  try {
    (void)cli::parse_uint("10abc", "argument 2");
    FAIL() << "no throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "argument 2: '10abc' is not a non-negative integer");
  }
}

TEST(Cli, PositionalSizeRejectsWhatIsNotACount) {
  cli::Options opts;
  opts.positional = {"2", "10abc", "-5", "99999999999",
                     "18446744073709551616"};
  EXPECT_EQ(cli::positional_size(opts, 0, 7), 2u);
  EXPECT_EQ(cli::positional_size(opts, 5, 7), 7u);  // past the end
  EXPECT_THROW((void)cli::positional_size(opts, 1, 7), std::invalid_argument);
  EXPECT_THROW((void)cli::positional_size(opts, 2, 7), std::invalid_argument);
  // A huge count parses exactly; sizing a run by it is the caller's call.
  EXPECT_EQ(cli::positional_size(opts, 3, 7), 99999999999u);
  EXPECT_THROW((void)cli::positional_size(opts, 4, 7), std::invalid_argument);
}

/// parse_args over a mutable copy of `args` (argv[0] is added).
cli::Options parse(std::vector<std::string> args) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  int argc = static_cast<int>(args.size());
  return cli::parse_args(argc, argv.data(), "prog", ~0u);  // every flag
}

TEST(Cli, SeedAndInstancesFlags) {
  const cli::Options opts = parse({"--seed", "7", "--instances", "3", "2"});
  EXPECT_EQ(opts.seed, 7u);
  EXPECT_TRUE(opts.seed_given);
  EXPECT_EQ(opts.instances, 3u);
  EXPECT_EQ(opts.positional, std::vector<std::string>{"2"});
  EXPECT_EQ(parse({"--instances", "0"}).instances, 1u);
  EXPECT_EQ(parse({"--seed", "18446744073709551615"}).seed,
            18446744073709551615u);
}

TEST(CliDeathTest, BadFlagValueExitsTwoWithOneErrorLine) {
  EXPECT_EXIT((void)parse({"--seed", "abc"}), ::testing::ExitedWithCode(2),
              "^error: --seed: 'abc' is not a non-negative integer\n$");
  EXPECT_EXIT((void)parse({"--seed", "7x"}), ::testing::ExitedWithCode(2),
              "error: --seed: '7x'");
  EXPECT_EXIT((void)parse({"--seed", "-1"}), ::testing::ExitedWithCode(2),
              "error: --seed: '-1'");
  EXPECT_EXIT((void)parse({"--instances", "1.5"}),
              ::testing::ExitedWithCode(2), "error: --instances: '1.5'");
  EXPECT_EXIT((void)parse({"--instances", "-5"}),
              ::testing::ExitedWithCode(2), "error: --instances: '-5'");
  EXPECT_EXIT((void)parse({"--instances", "18446744073709551616"}),
              ::testing::ExitedWithCode(2), "is out of range");
}

TEST(CliDeathTest, SharedFlagOutsideAcceptedSetExitsTwo) {
  std::vector<std::string> args = {"prog", "4", "--router", "bogus"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  int argc = static_cast<int>(args.size());
  EXPECT_EXIT((void)cli::parse_args(argc, argv.data(), "prog [n] [--seed N]",
                                    cli::kSeed),
              ::testing::ExitedWithCode(2),
              "^error: --router is not an option here \\(usage: prog "
              "\\[n\\] \\[--seed N\\]\\)\n$");
  // Accepted flags still parse.
  args = {"prog", "--seed", "3", "4"};
  argv.clear();
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  argc = static_cast<int>(args.size());
  const cli::Options opts =
      cli::parse_args(argc, argv.data(), "prog", cli::kSeed);
  EXPECT_EQ(opts.seed, 3u);
  EXPECT_EQ(opts.positional, std::vector<std::string>{"4"});
}

// --- units ---

TEST(Units, BandwidthConversions) {
  EXPECT_DOUBLE_EQ(raw(100.0 * units::Gbps), 12.5e9);  // 100 Gbit/s = 12.5 GB/s
  EXPECT_DOUBLE_EQ(raw(600.0 * units::GBps), 600e9);
  EXPECT_DOUBLE_EQ(raw(1.0 * units::MiB), 1048576.0);
}

TEST(Units, TransferTime) {
  // 1 MB over 100 Gbps is 80 us (the Fig. 2 per-hop number).
  EXPECT_NEAR(raw(transfer_time(1.0 * units::MB, 100.0 * units::Gbps)),
              raw(80.0 * units::us), 1e-12);
}

TEST(Units, TransferOverDeadLinkNeverCompletes) {
  // Regression: a zero-bandwidth link used to "complete" transfers in 0 s,
  // silently pricing dead paths as free. It must be infinitely slow.
  EXPECT_TRUE(std::isinf(raw(transfer_time(123.0 * units::B, Bandwidth{0.0}))));
  EXPECT_GT(transfer_time(1.0 * units::B, Bandwidth{0.0}),
            transfer_time(1.0 * units::GiB, 1.0 * units::bps));
  EXPECT_TRUE(
      std::isinf(raw(transfer_time(1.0 * units::MiB, -1.0 * units::GBps))));
}

// --- rng ---

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntInRangeAndCoversValues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.uniform_int(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIntZeroIsZero) {
  Rng rng(3);
  EXPECT_EQ(rng.uniform_int(0), 0u);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  Summary s;
  for (int i = 0; i < 20000; ++i) s.add(rng.normal(3.0, 2.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.08);
  EXPECT_NEAR(s.stddev(), 2.0, 0.08);
}

TEST(Rng, LognormalMedian) {
  Rng rng(17);
  Percentiles p;
  for (int i = 0; i < 20000; ++i) p.add(rng.lognormal(std::log(100.0), 0.5));
  EXPECT_NEAR(p.median(), 100.0, 5.0);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(23);
  std::vector<double> w{1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.weighted_index(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[2] / 10000.0, 0.75, 0.03);
}

TEST(Rng, WeightedIndexEmptyOrNonpositive) {
  Rng rng(29);
  EXPECT_EQ(rng.weighted_index({}), 0u);
  EXPECT_EQ(rng.weighted_index({0.0, 0.0}), 0u);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(31);
  Rng b = a.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 4);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(37);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  auto resorted = v;
  std::sort(resorted.begin(), resorted.end());
  EXPECT_EQ(resorted, sorted);
}

// --- Summary ---

TEST(Summary, BasicMoments) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Summary, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Summary, MergeMatchesCombined) {
  Summary a, b, all;
  Rng rng(41);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.normal();
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

// --- Percentiles ---

TEST(Percentiles, ExactQuantiles) {
  Percentiles p;
  for (int i = 1; i <= 100; ++i) p.add(i);
  EXPECT_DOUBLE_EQ(p.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(p.quantile(1.0), 100.0);
  EXPECT_NEAR(p.median(), 50.5, 1e-9);
  EXPECT_NEAR(p.p90(), 90.1, 1e-9);
}

TEST(Percentiles, InterpolatesBetweenSamples) {
  Percentiles p;
  p.add(0.0);
  p.add(10.0);
  EXPECT_DOUBLE_EQ(p.quantile(0.25), 2.5);
}

TEST(Percentiles, FractionBelow) {
  Percentiles p;
  for (int i = 1; i <= 10; ++i) p.add(i);
  EXPECT_DOUBLE_EQ(p.fraction_below(5.0), 0.5);
  EXPECT_DOUBLE_EQ(p.fraction_below(0.5), 0.0);
  EXPECT_DOUBLE_EQ(p.fraction_below(10.0), 1.0);
}

TEST(Percentiles, EmptyReturnsZero) {
  Percentiles p;
  EXPECT_DOUBLE_EQ(p.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(p.mean(), 0.0);
  EXPECT_DOUBLE_EQ(p.fraction_below(1.0), 0.0);
}

TEST(Percentiles, AddAfterQuantileStillSorted) {
  Percentiles p;
  p.add(5.0);
  EXPECT_DOUBLE_EQ(p.median(), 5.0);
  p.add(1.0);
  EXPECT_DOUBLE_EQ(p.quantile(0.0), 1.0);
}

// --- Ewma ---

TEST(Ewma, FirstObservationSeeds) {
  Ewma e(0.5);
  e.observe(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
}

TEST(Ewma, SmoothsTowardNewValues) {
  Ewma e(0.5);
  e.observe(0.0);
  e.observe(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 5.0);
  e.observe(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 7.5);
}

// --- TimeWeighted ---

TEST(TimeWeighted, PiecewiseConstantAverage) {
  TimeWeighted tw;
  tw.observe(0.0, 1.0);
  tw.observe(1.0, 3.0);  // value was 1.0 on [0,1)
  tw.observe(3.0, 0.0);  // value was 3.0 on [1,3)
  EXPECT_DOUBLE_EQ(tw.average(), (1.0 * 1.0 + 3.0 * 2.0) / 3.0);
  EXPECT_DOUBLE_EQ(tw.peak(), 3.0);
  EXPECT_DOUBLE_EQ(tw.current(), 0.0);
}

TEST(TimeWeighted, SingleObservationAverageIsValue) {
  TimeWeighted tw;
  tw.observe(5.0, 2.0);
  EXPECT_DOUBLE_EQ(tw.average(), 2.0);
}

// --- Histogram ---

TEST(Histogram, BucketsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);   // bucket 0
  h.add(9.99);  // bucket 4
  h.add(-1.0);  // clamps to 0
  h.add(100.0); // clamps to 4
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(4), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bucket_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(1), 4.0);
}

TEST(Histogram, RejectsDegenerateShapes) {
  EXPECT_THROW(Histogram(0.0, 0.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

// --- MovingAverage ---

TEST(MovingAverage, WindowedMean) {
  MovingAverage ma(3);
  ma.add(1.0);
  EXPECT_DOUBLE_EQ(ma.value(), 1.0);
  ma.add(2.0);
  ma.add(3.0);
  EXPECT_DOUBLE_EQ(ma.value(), 2.0);
  ma.add(10.0);  // evicts 1.0
  EXPECT_DOUBLE_EQ(ma.value(), 5.0);
}

TEST(MovingAverage, RejectsZeroWindow) {
  EXPECT_THROW(MovingAverage(0), std::invalid_argument);
}

// --- format ---

TEST(Format, ReplacesPlaceholders) {
  EXPECT_EQ(strfmt("a={} b={}", 1, "x"), "a=1 b=x");
}

TEST(Format, LiteralBraces) {
  EXPECT_EQ(strfmt("{{}} {}", 5), "{} 5");
}

TEST(Format, ExtraArgumentsDropped) {
  EXPECT_EQ(strfmt("only {}", 1, 2, 3), "only 1");
}

TEST(Format, MissingArgumentsLeaveTail) {
  EXPECT_EQ(strfmt("a={} b={}", 1), "a=1 b={}");
}

// --- table ---

TEST(Table, RendersAlignedGrid) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row_values("y", {2.5}, 1);
  const std::string out = t.render();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("| x"), std::string::npos);
  EXPECT_NE(out.find("2.5"), std::string::npos);
  // Header, 2 rows, 3 separators = 6 lines.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 6);
}

TEST(Table, ShortRowsPadded) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_NE(t.render().find("only"), std::string::npos);
}

TEST(FmtDouble, Precision) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_double(1.0, 0), "1");
}

}  // namespace
}  // namespace hero
