#include "common/flags.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace nc {
namespace {

Flags make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, EmptyHasDefaults) {
  const Flags f = make({});
  EXPECT_EQ(f.get_int("nodes", 42), 42);
  EXPECT_EQ(f.get_double("x", 1.5), 1.5);
  EXPECT_EQ(f.get_string("name", "d"), "d");
  EXPECT_FALSE(f.get_bool("full", false));
  EXPECT_FALSE(f.has("nodes"));
  EXPECT_EQ(f.program(), "prog");
}

TEST(Flags, EqualsForm) {
  const Flags f = make({"--nodes=10", "--rate=0.5", "--name=abc"});
  EXPECT_EQ(f.get_int("nodes", 0), 10);
  EXPECT_EQ(f.get_double("rate", 0.0), 0.5);
  EXPECT_EQ(f.get_string("name", ""), "abc");
}

TEST(Flags, SpaceForm) {
  const Flags f = make({"--nodes", "10", "--name", "abc"});
  EXPECT_EQ(f.get_int("nodes", 0), 10);
  EXPECT_EQ(f.get_string("name", ""), "abc");
}

TEST(Flags, BareSwitchIsTrue) {
  const Flags f = make({"--full"});
  EXPECT_TRUE(f.get_bool("full", false));
  EXPECT_TRUE(f.has("full"));
}

TEST(Flags, ExplicitBooleans) {
  const Flags f = make({"--a=true", "--b=false", "--c=1", "--d=0"});
  EXPECT_TRUE(f.get_bool("a", false));
  EXPECT_FALSE(f.get_bool("b", true));
  EXPECT_TRUE(f.get_bool("c", false));
  EXPECT_FALSE(f.get_bool("d", true));
}

TEST(Flags, DoubleList) {
  const Flags f = make({"--taus=1,2,4.5,8"});
  const auto xs = f.get_double_list("taus", {});
  ASSERT_EQ(xs.size(), 4u);
  EXPECT_EQ(xs[0], 1.0);
  EXPECT_EQ(xs[3], 8.0);
  const auto dflt = f.get_double_list("other", {9.0});
  ASSERT_EQ(dflt.size(), 1u);
  EXPECT_EQ(dflt[0], 9.0);
}

TEST(Flags, NegativeNumberAsValue) {
  const Flags f = make({"--offset=-3"});
  EXPECT_EQ(f.get_int("offset", 0), -3);
}

TEST(Flags, PositionalArgumentRejected) {
  EXPECT_THROW(make({"positional"}), CheckError);
}

TEST(Flags, MalformedNumbersRejected) {
  const Flags f = make({"--x=abc"});
  EXPECT_THROW((void)f.get_int("x", 0), CheckError);
  EXPECT_THROW((void)f.get_double("x", 0.0), CheckError);
  EXPECT_THROW((void)f.get_bool("x", false), CheckError);
}

TEST(Flags, LastValueWins) {
  const Flags f = make({"--n=1", "--n=2"});
  EXPECT_EQ(f.get_int("n", 0), 2);
}

TEST(Flags, UnknownFlagsListsOnlyUnrecognizedNames) {
  const Flags f = make({"--nodes=10", "--typo=1", "--zz"});
  const auto unknown = f.unknown_flags({"nodes", "hours"});
  ASSERT_EQ(unknown.size(), 2u);
  EXPECT_EQ(unknown[0], "typo");  // sorted
  EXPECT_EQ(unknown[1], "zz");
  EXPECT_TRUE(f.unknown_flags({"nodes", "typo", "zz"}).empty());
}

TEST(Flags, CheckKnownThrowsNamingTheFlag) {
  const Flags f = make({"--nodes=10", "--typo=1"});
  EXPECT_NO_THROW(f.check_known({"nodes", "typo"}));
  try {
    f.check_known({"nodes"});
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("--typo"), std::string::npos);
  }
}

TEST(Flags, UsageListsAllowedFlags) {
  const std::string u = Flags::usage("prog", {"nodes", "hours"});
  EXPECT_NE(u.find("usage: prog"), std::string::npos);
  EXPECT_NE(u.find("--nodes"), std::string::npos);
  EXPECT_NE(u.find("--hours"), std::string::npos);
}

using FlagsDeathTest = ::testing::Test;

TEST(FlagsDeathTest, ParseOrExitRejectsUnknownFlagWithUsage) {
  const char* argv[] = {"prog", "--typo=1"};
  EXPECT_EXIT((void)Flags::parse_or_exit(2, argv, {"nodes"}),
              ::testing::ExitedWithCode(2), "usage: prog");
}

TEST(FlagsDeathTest, ParseOrExitRejectsPositionalWithUsage) {
  const char* argv[] = {"prog", "positional"};
  EXPECT_EXIT((void)Flags::parse_or_exit(2, argv, {"nodes"}),
              ::testing::ExitedWithCode(2), "usage: prog");
}

// Values are parsed after parse_or_exit returns; a malformed one must still
// exit 2 with the usage line instead of escaping as an uncaught throw.
TEST(FlagsDeathTest, ParseOrExitRejectsMalformedValueWithUsage) {
  const char* argv[] = {"prog", "--nodes=abc", "--hours=x", "--full=maybe"};
  const Flags f = Flags::parse_or_exit(4, argv, {"nodes", "hours", "full"});
  EXPECT_EXIT((void)f.get_int("nodes", 0), ::testing::ExitedWithCode(2),
              "bad integer for --nodes: abc\nusage: prog");
  EXPECT_EXIT((void)f.get_double("hours", 0.0), ::testing::ExitedWithCode(2),
              "usage: prog");
  EXPECT_EXIT((void)f.get_bool("full", false), ::testing::ExitedWithCode(2),
              "usage: prog");
}

TEST(FlagsDeathTest, ParseOrExitAcceptsKnownFlags) {
  const char* argv[] = {"prog", "--nodes=12"};
  const Flags f = Flags::parse_or_exit(2, argv, {"nodes"});
  EXPECT_EQ(f.get_int("nodes", 0), 12);
}

}  // namespace
}  // namespace nc
