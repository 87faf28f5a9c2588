#include <gtest/gtest.h>

#include "common/cli.hpp"

namespace gs {
namespace {

CliArgs parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return CliArgs(int(argv.size()), argv.data());
}

TEST(Cli, KeyEqualsValue) {
  const auto a = parse({"--app=specjbb", "--minutes=30"});
  EXPECT_EQ(a.get("app", std::string("x")), "specjbb");
  EXPECT_EQ(a.get("minutes", 0), 30);
}

TEST(Cli, KeySpaceValue) {
  const auto a = parse({"--strategy", "Hybrid"});
  EXPECT_EQ(a.get("strategy", std::string("")), "Hybrid");
}

TEST(Cli, BareFlags) {
  const auto a = parse({"--des", "--thermal"});
  EXPECT_TRUE(a.flag("des"));
  EXPECT_TRUE(a.flag("thermal"));
  EXPECT_FALSE(a.flag("csv"));
  EXPECT_FALSE(a.value("des").has_value());
}

TEST(Cli, FlagFollowedByOption) {
  // --des is a flag because the next token is another option.
  const auto a = parse({"--des", "--minutes=5"});
  EXPECT_TRUE(a.flag("des"));
  EXPECT_EQ(a.get("minutes", 0), 5);
}

TEST(Cli, Defaults) {
  const auto a = parse({});
  EXPECT_EQ(a.get("app", std::string("specjbb")), "specjbb");
  EXPECT_DOUBLE_EQ(a.get("minutes", 30.0), 30.0);
  EXPECT_EQ(a.get("seed", 1), 1);
}

TEST(Cli, Positional) {
  const auto a = parse({"input.csv", "--seed=2", "out.csv"});
  ASSERT_EQ(a.positional().size(), 2u);
  EXPECT_EQ(a.positional()[0], "input.csv");
  EXPECT_EQ(a.positional()[1], "out.csv");
}

TEST(Cli, NumericParsing) {
  const auto a = parse({"--rate=2.5", "--count=7"});
  EXPECT_DOUBLE_EQ(a.get("rate", 0.0), 2.5);
  EXPECT_EQ(a.get("count", 0), 7);
}

TEST(Cli, MalformedNumberThrows) {
  const auto a = parse({"--rate=abc"});
  EXPECT_THROW((void)a.get("rate", 0.0), ContractError);
  EXPECT_THROW((void)a.get("rate", 0), ContractError);
  // The whole token must be the number: a valid prefix is not read.
  const auto b = parse({"--count=12abc", "--rate=2.5x", "--empty="});
  EXPECT_THROW((void)b.get("count", 0), ContractError);
  EXPECT_THROW((void)b.get("count", 0.0), ContractError);
  EXPECT_THROW((void)b.get("rate", 0.0), ContractError);
  EXPECT_THROW((void)b.get("rate", 0), ContractError);
  EXPECT_THROW((void)b.get("empty", 0), ContractError);
  EXPECT_THROW((void)b.get("empty", 0.0), ContractError);
  // Out of int range is malformed too, not wrapped.
  const auto c = parse({"--count=99999999999"});
  EXPECT_THROW((void)c.get("count", 0), ContractError);
  // Negative operands are numbers; range checks belong to the caller.
  const auto d = parse({"--count", "-3", "--rate", "-0.5"});
  EXPECT_EQ(d.get("count", 0), -3);
  EXPECT_DOUBLE_EQ(d.get("rate", 0.0), -0.5);
}

TEST(Cli, KeysListsOptions) {
  const auto a = parse({"--b=1", "--a=2"});
  const auto keys = a.keys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "a");  // map order
  EXPECT_EQ(keys[1], "b");
}

TEST(Cli, EmptyOptionNameThrows) {
  EXPECT_THROW(parse({"--"}), ContractError);
}

TEST(Cli, ValidateAcceptsOnlyDeclaredKeysInTheirForm) {
  const std::set<std::string> values = {"days", "dir"};
  const std::set<std::string> flags = {"batch"};
  EXPECT_NO_THROW(parse({"--batch", "--days", "2", "--dir=d"})
                      .validate(values, flags));
  EXPECT_NO_THROW(parse({}).validate(values, flags));
  // A typo, a positional argument, a value key given bare, a flag given
  // a value (`--batch 2` binds 2 to --batch).
  EXPECT_THROW(parse({"--dayz", "2"}).validate(values, flags), UsageError);
  EXPECT_THROW(parse({"extra", "--batch"}).validate(values, flags),
               UsageError);
  EXPECT_THROW(parse({"--days"}).validate(values, flags), UsageError);
  EXPECT_THROW(parse({"--batch", "2"}).validate(values, flags), UsageError);
  EXPECT_THROW(parse({"--batch=yes"}).validate(values, flags), UsageError);
}

}  // namespace
}  // namespace gs
