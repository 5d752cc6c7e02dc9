#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/fatal.hpp"

namespace {

using opalsim::util::CliArgs;
using opalsim::util::ConfigError;

CliArgs parse(std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  return CliArgs(static_cast<int>(v.size()), v.data());
}

TEST(CliArgs, ParsesKeyEqualsValue) {
  auto a = parse({"prog", "--steps=10", "--cutoff=9.5"});
  EXPECT_EQ(a.get_long("steps", 0), 10);
  EXPECT_DOUBLE_EQ(a.get_double("cutoff", 0), 9.5);
}

TEST(CliArgs, ParsesKeySpaceValue) {
  auto a = parse({"prog", "--platform", "j90", "--servers", "7"});
  EXPECT_EQ(a.get_or("platform", ""), "j90");
  EXPECT_EQ(a.get_long("servers", 0), 7);
}

TEST(CliArgs, BooleanFlags) {
  auto a = parse({"prog", "--trace", "--overlap", "--servers", "3"});
  EXPECT_TRUE(a.get_flag("trace"));
  EXPECT_TRUE(a.get_flag("overlap"));
  EXPECT_FALSE(a.get_flag("minimize"));
}

TEST(CliArgs, FlagFollowedByOptionIsBoolean) {
  auto a = parse({"prog", "--trace", "--steps", "5"});
  EXPECT_TRUE(a.get_flag("trace"));
  EXPECT_EQ(a.get_long("steps", 0), 5);
}

TEST(CliArgs, PositionalArguments) {
  auto a = parse({"prog", "input.dat", "--k", "v", "output.dat"});
  ASSERT_EQ(a.positional().size(), 2u);
  EXPECT_EQ(a.positional()[0], "input.dat");
  EXPECT_EQ(a.positional()[1], "output.dat");
}

TEST(CliArgs, DefaultsWhenMissing) {
  auto a = parse({"prog"});
  EXPECT_FALSE(a.get("nope").has_value());
  EXPECT_EQ(a.get_or("nope", "dflt"), "dflt");
  EXPECT_EQ(a.get_long("nope", 42), 42);
  EXPECT_DOUBLE_EQ(a.get_double("nope", 1.5), 1.5);
}

TEST(CliArgs, RejectsUnparsableNumbers) {
  // A present value must be entirely a number of the asked type and in its
  // range; only an absent or empty value takes the fallback.
  auto a = parse({"prog", "--a", "banana", "--b", "10abc", "--c", "1e3",
                  "--d", "1e999", "--e", "99999999999999999999", "--f="});
  for (const char* k : {"a", "b", "c", "e"}) {
    EXPECT_THROW((void)a.get_long(k, 7), ConfigError) << k;
  }
  for (const char* k : {"a", "b", "d"}) {
    EXPECT_THROW((void)a.get_double(k, 7.0), ConfigError) << k;
  }
  EXPECT_DOUBLE_EQ(a.get_double("c", 0.0), 1000.0);
  EXPECT_DOUBLE_EQ(a.get_double("e", 0.0), 1e20);
  EXPECT_EQ(a.get_long("f", 7), 7);
  try {
    (void)a.get_long("b", 7);
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.subsystem(), "cli");
    EXPECT_NE(std::string(e.what()).find("10abc"), std::string::npos);
  }
}

TEST(CliArgs, UnusedDetectsTypos) {
  auto a = parse({"prog", "--stepz", "5", "--cutoff", "9"});
  (void)a.get_double("cutoff", 0);
  auto unused = a.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "stepz");
}

TEST(CliArgs, ProgramName) {
  auto a = parse({"./tool"});
  EXPECT_EQ(a.program(), "./tool");
}

TEST(CliArgs, LastValueWinsOnDuplicates) {
  auto a = parse({"prog", "--p", "1", "--p", "2"});
  EXPECT_EQ(a.get_long("p", 0), 2);
}

}  // namespace
