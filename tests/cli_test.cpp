#include "support/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace jamelect {
namespace {

Cli make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, EqualsForm) {
  const Cli cli = make({"--n=1024", "--eps=0.25", "--name=lesk"});
  EXPECT_EQ(cli.get_uint("n", 0), 1024u);
  EXPECT_DOUBLE_EQ(cli.get_double("eps", 0), 0.25);
  EXPECT_EQ(cli.get_string("name", ""), "lesk");
}

TEST(Cli, SpaceForm) {
  const Cli cli = make({"--n", "42", "--label", "x"});
  EXPECT_EQ(cli.get_int("n", 0), 42);
  EXPECT_EQ(cli.get_string("label", ""), "x");
}

TEST(Cli, BareFlagIsTrue) {
  const Cli cli = make({"--verbose", "--n=1"});
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_FALSE(cli.has("quiet"));
}

TEST(Cli, BoolSpellings) {
  EXPECT_TRUE(make({"--x=YES"}).get_bool("x", false));
  EXPECT_TRUE(make({"--x=on"}).get_bool("x", false));
  EXPECT_FALSE(make({"--x=0"}).get_bool("x", true));
  EXPECT_FALSE(make({"--x=False"}).get_bool("x", true));
  EXPECT_THROW((void)make({"--x=maybe"}).get_bool("x", true),
               std::invalid_argument);
}

TEST(Cli, Defaults) {
  const Cli cli = make({});
  EXPECT_EQ(cli.get_int("missing", -7), -7);
  EXPECT_DOUBLE_EQ(cli.get_double("missing", 2.5), 2.5);
  EXPECT_TRUE(cli.get_bool("missing", true));
}

TEST(Cli, Positional) {
  const Cli cli = make({"first", "--k=1", "second"});
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "first");
  EXPECT_EQ(cli.positional()[1], "second");
}

TEST(Cli, NegativeNumberAsValue) {
  // `--k -3`: the value token starts with '-' but not '--'.
  const Cli cli = make({"--k", "-3"});
  EXPECT_EQ(cli.get_int("k", 0), -3);
}

TEST(Cli, ProvidedNamesAndProgram) {
  const Cli cli = make({"--b=2", "--a=1"});
  EXPECT_EQ(cli.program(), "prog");
  const auto names = cli.provided_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");  // map order: sorted
  EXPECT_EQ(names[1], "b");
}

TEST(Cli, NumbersMustParseWhole) {
  const Cli cli = make({"--a=12x", "--b=-1", "--c=abc", "--d=",
                        "--e=99999999999999999999", "--f=0.5.1"});
  EXPECT_THROW((void)cli.get_int("a", 0), std::invalid_argument);
  EXPECT_THROW((void)cli.get_uint("b", 0), std::invalid_argument);
  EXPECT_THROW((void)cli.get_uint("c", 0), std::invalid_argument);
  EXPECT_THROW((void)cli.get_uint("d", 0), std::invalid_argument);
  EXPECT_THROW((void)cli.get_uint("e", 0), std::invalid_argument);
  EXPECT_THROW((void)cli.get_double("f", 0), std::invalid_argument);
  EXPECT_EQ(cli.get_int("b", 0), -1);
}

TEST(Cli, UintBoundsAreInclusive) {
  const Cli cli = make({"--port=65535", "--big=65536", "--zero=0"});
  EXPECT_EQ(cli.get_uint("port", 0, 0, 65535), 65535u);
  EXPECT_THROW((void)cli.get_uint("big", 0, 0, 65535), std::invalid_argument);
  EXPECT_THROW((void)cli.get_uint("zero", 1, 1, 8), std::invalid_argument);
  EXPECT_EQ(cli.get_uint("missing", 9, 1, 8), 9u);  // fallbacks unchecked
}

TEST(Cli, LastValueWins) {
  const Cli cli = make({"--n=1", "--n=2"});
  EXPECT_EQ(cli.get_int("n", 0), 2);
}

}  // namespace
}  // namespace jamelect
