#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/flags.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"

namespace dace {
namespace {

// ------------------------------------------------------------- Status ----

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad thing");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad thing");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::DataLoss("x").code(), StatusCode::kDataLoss);
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value(), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("missing");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(7);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> taken = std::move(v).value();
  EXPECT_EQ(*taken, 7);
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

StatusOr<int> DoubleIfPositive(int x) {
  DACE_RETURN_IF_ERROR(FailIfNegative(x));
  return 2 * x;
}

StatusOr<int> ChainOf(int x) {
  DACE_ASSIGN_OR_RETURN(const int doubled, DoubleIfPositive(x));
  return doubled + 1;
}

TEST(StatusMacrosTest, ReturnIfErrorPropagates) {
  EXPECT_FALSE(DoubleIfPositive(-1).ok());
  EXPECT_EQ(*DoubleIfPositive(4), 8);
}

TEST(StatusMacrosTest, AssignOrReturnChains) {
  EXPECT_EQ(*ChainOf(10), 21);
  EXPECT_EQ(ChainOf(-5).status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------ Strings ----

TEST(StringsTest, StrSplitBasic) {
  const auto parts = StrSplit("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringsTest, StrSplitKeepsEmptyPieces) {
  const auto parts = StrSplit(",x,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "x");
  EXPECT_EQ(parts[2], "");
}

TEST(StringsTest, StrSplitNoDelimiter) {
  const auto parts = StrSplit("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace("x"), "x");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_TRUE(StartsWith("foo", ""));
  EXPECT_FALSE(StartsWith("fo", "foo"));
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
}

TEST(StringsTest, ParseInt64) {
  EXPECT_EQ(*ParseInt64("123"), 123);
  EXPECT_EQ(*ParseInt64("-9"), -9);
  EXPECT_EQ(*ParseInt64(" 42 "), 42);
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("99999999999999999999999").ok());
}

TEST(StringsTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(*ParseDouble("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("-2e3"), -2000.0);
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("").ok());
}

// -------------------------------------------------------------- Flags ----

TEST(FlagsTest, ParsesKeyValueForms) {
  const char* argv[] = {"prog", "--a=1", "--b", "2", "--flag"};
  auto flags = Flags::Parse(5, const_cast<char**>(argv));
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->GetInt("a", 0), 1);
  EXPECT_EQ(flags->GetInt("b", 0), 2);
  EXPECT_TRUE(flags->GetBool("flag", false));
  EXPECT_EQ(flags->GetInt("missing", 9), 9);
}

TEST(FlagsTest, RejectsPositional) {
  const char* argv[] = {"prog", "oops"};
  EXPECT_FALSE(Flags::Parse(2, const_cast<char**>(argv)).ok());
}

TEST(FlagsTest, TypedAccessors) {
  const char* argv[] = {"prog", "--x=2.5", "--s=hello", "--t=true"};
  auto flags = Flags::Parse(4, const_cast<char**>(argv));
  ASSERT_TRUE(flags.ok());
  EXPECT_DOUBLE_EQ(flags->GetDouble("x", 0.0), 2.5);
  EXPECT_EQ(flags->GetString("s", ""), "hello");
  EXPECT_TRUE(flags->GetBool("t", false));
  EXPECT_TRUE(flags->Has("x"));
  EXPECT_FALSE(flags->Has("y"));
}

TEST(FlagsTest, BoolAcceptsBothSpellingSets) {
  const char* argv[] = {"prog", "--a=1",  "--b=yes", "--c=true",
                        "--d=0", "--e=no", "--f=false"};
  auto flags = Flags::Parse(7, const_cast<char**>(argv));
  ASSERT_TRUE(flags.ok());
  for (const char* key : {"a", "b", "c"}) {
    EXPECT_TRUE(flags->GetBool(key, false)) << key;
  }
  for (const char* key : {"d", "e", "f"}) {
    EXPECT_FALSE(flags->GetBool(key, true)) << key;
  }
}

// A malformed value must never fall back to the default: `--epochs=1O`
// silently training the default epoch count is the failure this guards.
TEST(FlagsTest, MalformedValuesDieNamingKeyAndValue) {
  const char* argv[] = {"prog", "--epochs=1O", "--lr=0.0x1", "--trace=ture",
                        "--threads="};
  auto flags = Flags::Parse(5, const_cast<char**>(argv));
  ASSERT_TRUE(flags.ok());
  EXPECT_DEATH((void)flags->GetInt("epochs", 12), "--epochs.*'1O'");
  EXPECT_DEATH((void)flags->GetDouble("lr", 1e-3), "--lr.*'0.0x1'");
  EXPECT_DEATH((void)flags->GetBool("trace", false), "--trace.*'ture'");
  EXPECT_DEATH((void)flags->GetInt("threads", 0), "--threads.*''");
  // Absent keys still take the default.
  EXPECT_EQ(flags->GetInt("missing", 7), 7);
}

// Opt-in strictness: a flag the binary never read (a retired option, a
// typo) dies naming it instead of silently running the default.
TEST(FlagsTest, DieOnUnreadKeysNamesEveryUnreadKey) {
  const char* argv[] = {"prog", "--clients=2", "--json=out.json",
                        "--max-wait-us=200", "--epcohs=3"};
  auto flags = Flags::Parse(5, const_cast<char**>(argv));
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->GetInt("clients", 8), 2);
  EXPECT_TRUE(flags->Has("json"));
  EXPECT_EQ(flags->GetInt("epochs", 1), 1);  // read but absent
  EXPECT_DEATH(flags->DieOnUnreadKeys(),
               "unknown flag.*--epcohs --max-wait-us");
  (void)flags->GetInt("max-wait-us", 0);
  (void)flags->GetInt("epcohs", 0);
  flags->DieOnUnreadKeys();  // everything read: no death
}

// ---------------------------------------------------------------- Rng ----

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformIntBoundsInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(17);
  int low = 0, high = 0;
  for (int i = 0; i < 5000; ++i) {
    const int64_t v = rng.Zipf(100, 1.2);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 100);
    if (v < 10) ++low;
    if (v >= 90) ++high;
  }
  EXPECT_GT(low, 5 * high);
}

TEST(RngTest, ZipfZeroExponentIsUniformish) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.Zipf(100, 0.0));
  EXPECT_NEAR(sum / n, 49.5, 2.0);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(23);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 9000; ++i) ++counts[rng.Categorical({1.0, 2.0, 6.0})];
  EXPECT_NEAR(counts[0] / 9000.0, 1.0 / 9.0, 0.03);
  EXPECT_NEAR(counts[2] / 9000.0, 6.0 / 9.0, 0.03);
}

TEST(RngTest, CategoricalZeroWeightNeverPicked) {
  Rng rng(29);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_NE(rng.Categorical({1.0, 0.0, 1.0}), 1u);
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(31);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(HashTest, HashMixDeterministicAndSpread) {
  EXPECT_EQ(HashMix(42), HashMix(42));
  EXPECT_NE(HashMix(42), HashMix(43));
  std::set<uint64_t> values;
  for (uint64_t i = 0; i < 1000; ++i) values.insert(HashMix(i));
  EXPECT_EQ(values.size(), 1000u);
}

TEST(HashTest, HashUniformInRange) {
  for (uint64_t i = 0; i < 500; ++i) {
    const double u = HashUniform(i);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(HashTest, HashGaussianMoments) {
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = HashGaussian(static_cast<uint64_t>(i) * 2654435761u);
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.06);
}

// ---------------------------------------------------- Checks & logging ----

TEST(CheckDeathTest, CheckNeReportsBothOperands) {
  // Regression: DACE_CHECK_NE used to omit the "(a vs b)" operand detail the
  // other comparison checks print, leaving the failure message without the
  // offending values.
  const int kDupe = 3;
  EXPECT_DEATH(DACE_CHECK_NE(kDupe, 3) << "dupe id",
               "CHECK failed: \\(kDupe\\) != \\(3\\) \\(3 vs 3\\) dupe id");
}

TEST(CheckDeathTest, CheckEqReportsBothOperands) {
  EXPECT_DEATH(DACE_CHECK_EQ(2 + 2, 5), "\\(4 vs 5\\)");
}

TEST(CheckTest, PassingChecksAreSilent) {
  DACE_CHECK(true);
  DACE_CHECK_NE(1, 2);
  DACE_CHECK_EQ(4, 4);
  DACE_CHECK_OK(Status::OK());
}

// Swaps the log threshold for one test and restores the old one after.
class ScopedLogLevel {
 public:
  explicit ScopedLogLevel(LogLevel level)
      : saved_(static_cast<LogLevel>(
            internal::MinLogLevelState().load(std::memory_order_relaxed))) {
    internal::SetMinLogLevel(level);
  }
  ~ScopedLogLevel() { internal::SetMinLogLevel(saved_); }

 private:
  LogLevel saved_;
};

TEST(LoggingTest, SeverityThresholdFilters) {
  ScopedLogLevel scoped(LogLevel::kWarn);
  testing::internal::CaptureStderr();
  DACE_LOG(INFO) << "below threshold";
  DACE_LOG(WARN) << "warn line";
  DACE_LOG(ERROR) << "error line";
  const std::string out = testing::internal::GetCapturedStderr();
  EXPECT_EQ(out.find("below threshold"), std::string::npos);
  EXPECT_NE(out.find("warn line"), std::string::npos);
  EXPECT_NE(out.find("error line"), std::string::npos);
}

TEST(LoggingTest, OffSilencesEverything) {
  ScopedLogLevel scoped(LogLevel::kOff);
  testing::internal::CaptureStderr();
  DACE_LOG(ERROR) << "even errors";
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(LoggingTest, LineCarriesSeverityTagAndCallSite) {
  ScopedLogLevel scoped(LogLevel::kInfo);
  testing::internal::CaptureStderr();
  DACE_LOG(INFO) << "hello";
  const std::string out = testing::internal::GetCapturedStderr();
  EXPECT_EQ(out.rfind("[I ", 0), 0u);  // severity initial leads the prefix
  EXPECT_NE(out.find("util_test.cc:"), std::string::npos);
  EXPECT_NE(out.find("] hello\n"), std::string::npos);
}

TEST(LoggingTest, BelowThresholdDoesNotEvaluateStream) {
  ScopedLogLevel scoped(LogLevel::kError);
  int evaluations = 0;
  const auto touch = [&]() {
    ++evaluations;
    return "side effect";
  };
  testing::internal::CaptureStderr();
  DACE_LOG(INFO) << touch();
  testing::internal::GetCapturedStderr();
  EXPECT_EQ(evaluations, 0);
}

TEST(LoggingTest, MacroBindsInDanglingElse) {
  ScopedLogLevel scoped(LogLevel::kOff);
  // Must compile and take the sane branch when used unbraced inside if/else.
  bool reached_else = false;
  if (false)
    DACE_LOG(INFO) << "never";
  else
    reached_else = true;
  EXPECT_TRUE(reached_else);
}

TEST(LoggingTest, ParseLogLevelAcceptsNamesAndDigits) {
  using internal::ParseLogLevel;
  EXPECT_EQ(ParseLogLevel("INFO", LogLevel::kOff), LogLevel::kInfo);
  EXPECT_EQ(ParseLogLevel("WARN", LogLevel::kOff), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("ERROR", LogLevel::kOff), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel("OFF", LogLevel::kInfo), LogLevel::kOff);
  EXPECT_EQ(ParseLogLevel("2", LogLevel::kOff), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel(nullptr, LogLevel::kWarn), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("", LogLevel::kError), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel("bogus", LogLevel::kWarn), LogLevel::kWarn);
}

// Property sweep: UniformInt stays in bounds for many random ranges.
class RngRangeTest : public ::testing::TestWithParam<int> {};

TEST_P(RngRangeTest, UniformIntAlwaysInBounds) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  Rng range_rng(static_cast<uint64_t>(GetParam()) + 1000);
  for (int i = 0; i < 200; ++i) {
    const int64_t lo = range_rng.UniformInt(-1000, 1000);
    const int64_t hi = lo + range_rng.UniformInt(0, 500);
    const int64_t v = rng.UniformInt(lo, hi);
    EXPECT_GE(v, lo);
    EXPECT_LE(v, hi);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngRangeTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace dace
