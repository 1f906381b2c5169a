// Tests for the shared bench helpers: the N ladder's exact-cap rung and the
// strict numeric flag parsing (malformed values must abort, not coerce).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "bench/bench_util.h"

namespace lookaside::bench {
namespace {

TEST(NLadder, DecadeCapKeepsClassicLadder) {
  EXPECT_EQ(n_ladder(100'000),
            (std::vector<std::uint64_t>{100, 1'000, 10'000, 100'000}));
}

TEST(NLadder, NonDecadeCapBecomesFinalRung) {
  // Regression: LOOKASIDE_SCALE=5000 used to run only {100, 1000},
  // silently dropping the requested cap.
  EXPECT_EQ(n_ladder(5'000), (std::vector<std::uint64_t>{100, 1'000, 5'000}));
  EXPECT_EQ(n_ladder(2'500'000),
            (std::vector<std::uint64_t>{100, 1'000, 10'000, 100'000,
                                        1'000'000, 2'500'000}));
}

TEST(NLadder, CapBelowFirstRungRunsJustTheCap) {
  EXPECT_EQ(n_ladder(50), (std::vector<std::uint64_t>{50}));
}

TEST(NLadder, ExactDecadeCapIsNotDuplicated) {
  EXPECT_EQ(n_ladder(1'000), (std::vector<std::uint64_t>{100, 1'000}));
  EXPECT_EQ(n_ladder(100), (std::vector<std::uint64_t>{100}));
}

TEST(ParseU64Flag, AcceptsPlainDecimals) {
  EXPECT_EQ(parse_u64_flag("--n", "0"), 0u);
  EXPECT_EQ(parse_u64_flag("--n", "65536"), 65536u);
}

TEST(ParseU64FlagDeathTest, RejectsMalformedValues) {
  EXPECT_EXIT(parse_u64_flag("--rounds", "abc"),
              ::testing::ExitedWithCode(2), "--rounds expects");
  EXPECT_EXIT(parse_u64_flag("--rounds", "12abc"),
              ::testing::ExitedWithCode(2), "--rounds expects");
  EXPECT_EXIT(parse_u64_flag("--rounds", ""),
              ::testing::ExitedWithCode(2), "--rounds expects");
  EXPECT_EXIT(parse_u64_flag("--rounds", "-3"),
              ::testing::ExitedWithCode(2), "--rounds expects");
}

TEST(MaxScale, UnsetEmptyAndZeroMeanTheDefault) {
  unsetenv("LOOKASIDE_SCALE");
  EXPECT_EQ(max_scale(1'000'000), 1'000'000u);
  setenv("LOOKASIDE_SCALE", "", 1);
  EXPECT_EQ(max_scale(1'000'000), 1'000'000u);
  setenv("LOOKASIDE_SCALE", "0", 1);
  EXPECT_EQ(max_scale(1'000'000), 1'000'000u);
  setenv("LOOKASIDE_SCALE", "2000", 1);
  EXPECT_EQ(max_scale(1'000'000), 2'000u);
  unsetenv("LOOKASIDE_SCALE");
}

TEST(MaxScaleDeathTest, MalformedScaleExitsInsteadOfShrinking) {
  // Regression: "10k" used to cap N at 10 and "1e6" at 1, exiting 0.
  for (const char* bad : {"10k", "1e6", "-5", " 100"}) {
    EXPECT_EXIT(
        {
          setenv("LOOKASIDE_SCALE", bad, 1);
          (void)max_scale(1'000'000);
        },
        ::testing::ExitedWithCode(2), "LOOKASIDE_SCALE expects");
  }
}

TEST(ArgParserNumeric, ParsesAndFallsBack) {
  const char* argv[] = {"bench", "--rounds=7", "--jobs=1"};
  ArgParser args(3, const_cast<char**>(argv), {"rounds"});
  EXPECT_EQ(args.numeric("rounds", 4), 7u);
  EXPECT_EQ(args.numeric("caps", 9), 9u);  // absent flag -> fallback
}

TEST(ArgParserNumericDeathTest, MalformedValueAborts) {
  const char* argv[] = {"bench", "--rounds=many", "--jobs=1"};
  ArgParser args(3, const_cast<char**>(argv), {"rounds"});
  EXPECT_EXIT((void)args.numeric("rounds", 4), ::testing::ExitedWithCode(2),
              "--rounds expects");
}

TEST(ArgParserNumericDeathTest, EmptyValueAborts) {
  const char* argv[] = {"bench", "--rounds=", "--jobs=1"};
  ArgParser args(3, const_cast<char**>(argv), {"rounds"});
  EXPECT_EXIT((void)args.numeric("rounds", 4), ::testing::ExitedWithCode(2),
              "--rounds expects");
}

TEST(ArgParserUnknownFlagDeathTest, UnknownFlagAbortsAtConstruction) {
  // Regression: `--smke` / `--iteraitons` used to be silently ignored and
  // the bench ran with its defaults, producing a plausible-looking but
  // wrong JSON. Unknown flags must abort before any work happens.
  const char* argv[] = {"bench", "--smke"};
  EXPECT_EXIT(ArgParser(2, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2), "unknown flag '--smke'");
}

TEST(ArgParserUnknownFlagDeathTest, UndeclaredExtraAborts) {
  // "rounds" belongs to bench_cache_churn; a driver that did not declare
  // it must reject it even though some other driver accepts it.
  const char* argv[] = {"bench", "--rounds=7"};
  EXPECT_EXIT(ArgParser(2, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2), "unknown flag '--rounds'");
}

TEST(ArgParserUnknownFlag, BuiltinsExtrasAndJobsValueAreAccepted) {
  // `--jobs 4` is the one two-token builtin: the bare value token after it
  // must not be mistaken for a positional/unknown argument.
  const char* argv[] = {"bench", "--smoke", "--jobs",
                        "4",     "--top=8", "--out=/dev/null"};
  ArgParser args(6, const_cast<char**>(argv), {"top"});
  EXPECT_TRUE(args.smoke());
  EXPECT_EQ(args.numeric("top", 1), 8u);
}

}  // namespace
}  // namespace lookaside::bench
