// Text-layer substrates: histograms (Figure 6 binning semantics), CSV, CLI
// flags, string utilities and table rendering.
#include <gtest/gtest.h>

#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "common/csv.hpp"
#include "common/flags.hpp"
#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"

namespace risa {
namespace {

// --- Histogram (matplotlib semantics drive the Figure 6 decode) -----------

TEST(Histogram, MatplotlibBinningLastBinClosed) {
  // 10 bins over [1, 8]: width 0.7.  cores=8 must land in the last bin and
  // cores=4 in bin 4 -- this is exactly how Figure 6's CPU panel bins.
  Histogram h(1.0, 8.0, 10);
  EXPECT_EQ(h.bin_of(1.0), 0u);
  EXPECT_EQ(h.bin_of(2.0), 1u);
  EXPECT_EQ(h.bin_of(4.0), 4u);
  EXPECT_EQ(h.bin_of(8.0), 9u);  // hi is closed
  EXPECT_THROW((void)h.bin_of(0.5), std::out_of_range);
  EXPECT_THROW((void)h.bin_of(8.5), std::out_of_range);
}

TEST(Histogram, RamBinDecodeMatchesFigure6Layout) {
  // 10 bins over [0.75, 56]: the 2017 Azure RAM sizes fall into bins
  // {0:0.75,1.75,3.5}, {1:7}, {2:14}, {4:28}, {9:56}.
  Histogram h(0.75, 56.0, 10);
  EXPECT_EQ(h.bin_of(0.75), 0u);
  EXPECT_EQ(h.bin_of(1.75), 0u);
  EXPECT_EQ(h.bin_of(3.5), 0u);
  EXPECT_EQ(h.bin_of(7.0), 1u);
  EXPECT_EQ(h.bin_of(14.0), 2u);
  EXPECT_EQ(h.bin_of(28.0), 4u);
  EXPECT_EQ(h.bin_of(56.0), 9u);
}

TEST(Histogram, CountsAndTotal) {
  Histogram h(0.0, 10.0, 5);
  for (double x : {0.5, 1.5, 2.5, 2.6, 9.9, 10.0}) h.add(x);
  EXPECT_EQ(h.total(), 6);
  EXPECT_EQ(h.count(0), 2);  // 0.5, 1.5
  EXPECT_EQ(h.count(1), 2);  // 2.5, 2.6
  EXPECT_EQ(h.count(4), 2);  // 9.9, 10.0
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 4.0);
  EXPECT_FALSE(h.to_string().empty());
}

TEST(Histogram, FromDataUsesMinMax) {
  const Histogram h = Histogram::from_data({1.0, 2.0, 4.0, 8.0}, 10);
  EXPECT_DOUBLE_EQ(h.lo(), 1.0);
  EXPECT_DOUBLE_EQ(h.hi(), 8.0);
  EXPECT_EQ(h.total(), 4);
  EXPECT_THROW(Histogram::from_data({}, 10), std::invalid_argument);
}

TEST(Histogram, DegenerateConfigsThrow) {
  EXPECT_THROW(Histogram(1.0, 1.0, 10), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

// --- CSV -------------------------------------------------------------------

TEST(Csv, EscapeQuotesAndCommas) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, RoundTrip) {
  std::ostringstream os;
  CsvWriter w(os);
  w.write_row({"id", "name", "note"});
  w.write_row({"1", "a,b", "say \"hi\""});
  std::istringstream is(os.str());
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> cells;
  for (std::string line; std::getline(is, line);) {
    CsvReader::parse_line(line, cells);
    rows.push_back(cells);
  }
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][1], "a,b");
  EXPECT_EQ(rows[1][2], "say \"hi\"");
}

TEST(Csv, UnbalancedQuotesThrow) {
  std::vector<std::string> cells;
  EXPECT_THROW(CsvReader::parse_line("\"oops", cells), std::runtime_error);
  EXPECT_THROW(CsvReader::parse_line("a,\"b\"\"", cells), std::runtime_error);
}

TEST(Csv, ToleratesCrlf) {
  std::vector<std::string> cells;
  CsvReader::parse_line("a,b\r", cells);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[1], "b");
  // Inside quotes a '\r' is field content.
  CsvReader::parse_line("\"x\ry\",z\r", cells);
  EXPECT_EQ(cells, (std::vector<std::string>{"x\ry", "z"}));
}

/// Rows parsed into one vector each see only their own fields, whatever
/// the rows before them held.
TEST(Csv, ReusedCellsHoldOnlyTheCurrentRow) {
  std::vector<std::string> cells;
  CsvReader::parse_line("alpha,beta,gamma,a much longer field than SSO holds",
                        cells);
  ASSERT_EQ(cells.size(), 4u);
  CsvReader::parse_line("x", cells);
  EXPECT_EQ(cells, (std::vector<std::string>{"x"}));
  CsvReader::parse_line("\"q,1\",,\"say \"\"hi\"\"\"", cells);
  EXPECT_EQ(cells, (std::vector<std::string>{"q,1", "", "say \"hi\""}));
  CsvReader::parse_line("", cells);
  EXPECT_EQ(cells, (std::vector<std::string>{""}));
  CsvReader::parse_line("a\"b\"c,d", cells);  // quotes mid-field
  EXPECT_EQ(cells, (std::vector<std::string>{"abc", "d"}));
}

// --- Flags -------------------------------------------------------------------

TEST(Flags, ParsesAllForms) {
  Flags f;
  f.define_i64("count", 5, "a count");
  f.define("label", "x", "a label");
  f.define("verbose", "false", "a bool");
  const char* argv[] = {"prog", "--count=9", "--label", "hello", "--verbose",
                        "positional"};
  const auto positional = f.parse(6, argv);
  EXPECT_EQ(f.i64("count"), 9);
  EXPECT_EQ(f.str("label"), "hello");
  EXPECT_TRUE(f.b("verbose"));
  ASSERT_EQ(positional.size(), 1u);
  EXPECT_EQ(positional[0], "positional");
}

TEST(Flags, UnknownFlagThrows) {
  Flags f;
  f.define("a", "1", "");
  const char* argv[] = {"prog", "--typo=1"};
  EXPECT_THROW(f.parse(2, argv), std::runtime_error);
}

TEST(Flags, DuplicateDefineThrows) {
  Flags f;
  f.define("a", "1", "");
  EXPECT_THROW(f.define("a", "2", ""), std::logic_error);
}

TEST(Flags, RejectsValuesTheirKindRefuses) {
  const auto parses = [](const char* arg) {
    Flags f;
    f.define("seed", "42", "");
    f.define("verify", "false", "");
    f.define("rate", "1.0", "");
    f.define("label", "x", "");
    const char* argv[] = {"prog", arg};
    try {
      (void)f.parse(2, argv);
    } catch (const std::runtime_error&) {
      return false;
    }
    return true;
  };
  EXPECT_FALSE(parses("--seed=7x"));
  EXPECT_FALSE(parses("--verify=ture"));
  EXPECT_FALSE(parses("--rate=2.5junk"));
  EXPECT_FALSE(parses("--sed=7"));
  EXPECT_FALSE(parses("--seed"));  // missing value
  EXPECT_TRUE(parses("--seed=7"));
  EXPECT_TRUE(parses("--verify=0"));
  EXPECT_TRUE(parses("--rate=2.5"));
  EXPECT_TRUE(parses("--label=7x"));  // text flags take anything

  // An integer flag refuses a fraction at parse time, and only an integer
  // flag reads through i64().
  Flags f;
  f.define_i64("count", 5, "");
  f.define("rate", "1", "");
  const char* fraction[] = {"prog", "--count=2.5"};
  EXPECT_THROW((void)f.parse(2, fraction), std::runtime_error);
  const char* argv[] = {"prog", "--count=7", "--rate=2.5"};
  (void)f.parse(3, argv);
  EXPECT_EQ(f.i64("count"), 7);
  EXPECT_DOUBLE_EQ(f.f64("rate"), 2.5);
  EXPECT_THROW((void)f.i64("rate"), std::logic_error);
  EXPECT_THROW((void)f.i64("nope"), std::logic_error);
}

TEST(Flags, IntegerFlagFailsTheDriverParse) {
  Flags f;
  define_threads_flag(f, /*default_value=*/1);
  const char* argv[] = {"prog", "--threads=2.5"};
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(f.parse_or_usage(2, argv));
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("bad value for --threads"), std::string::npos) << err;
}

TEST(FlagsDeathTest, HelpPrintsUsageAndExitsZero) {
  const auto help = [](bool benchmark_mode) {
    Flags f;
    f.define("label", "x", "");
    const char* raw[] = {"prog", "--label=y", "--help"};
    char* argv[3];
    for (int i = 0; i < 3; ++i) argv[i] = const_cast<char*>(raw[i]);
    int argc = 3;
    (void)(benchmark_mode ? f.parse_benchmark_or_usage(argc, argv)
                          : f.parse_or_usage(argc, argv));
    std::exit(7);  // not reached: --help exits first
  };
  EXPECT_EXIT(help(false), ::testing::ExitedWithCode(0), "");
  EXPECT_EXIT(help(true), ::testing::ExitedWithCode(0), "");
}

TEST(Flags, BareFormTakesItsDeclaredValue) {
  Flags f;
  f.define("emit_json", "", "", "BENCH_x.json");
  f.define_i64("streaming", 0, "", 10'000'000);
  define_threads_flag(f, /*default_value=*/1);
  const char* bare[] = {"prog", "--emit_json", "--streaming", "--threads", "4"};
  EXPECT_TRUE(f.parse(5, bare).empty());
  EXPECT_EQ(f.str("emit_json"), "BENCH_x.json");
  EXPECT_EQ(f.i64("streaming"), 10'000'000);
  EXPECT_EQ(f.i64("threads"), 4);

  const char* valued[] = {"prog", "--emit_json=out.json", "--streaming=500",
                          "--threads=2"};
  EXPECT_TRUE(f.parse(4, valued).empty());
  EXPECT_EQ(f.str("emit_json"), "out.json");
  EXPECT_EQ(f.i64("streaming"), 500);
  EXPECT_EQ(f.i64("threads"), 2);
  EXPECT_NE(f.usage("prog").find("bare: BENCH_x.json"), std::string::npos);
}

TEST(Flags, BenchmarkModeLeavesOnlyBenchmarkFlags) {
  Flags f;
  f.define("emit_json", "", "", "BENCH_x.json");
  f.define("verbose", "false", "");
  const char* raw[] = {"prog", "--emit_json", "--benchmark_min_time=0.01s",
                       "--verbose", "--benchmark_filter=NONE"};
  char* argv[5];
  for (int i = 0; i < 5; ++i) argv[i] = const_cast<char*>(raw[i]);
  int argc = 5;
  ASSERT_TRUE(f.parse_benchmark_or_usage(argc, argv));
  // The bare flag did not swallow the --benchmark_* token after it.
  EXPECT_EQ(f.str("emit_json"), "BENCH_x.json");
  EXPECT_TRUE(f.b("verbose"));
  ASSERT_EQ(argc, 3);
  EXPECT_STREQ(argv[0], "prog");
  EXPECT_STREQ(argv[1], "--benchmark_min_time=0.01s");
  EXPECT_STREQ(argv[2], "--benchmark_filter=NONE");

  // Neither an unknown flag nor a positional gets through to the harness.
  for (const char* stray : {"--evnts_floor=1", "positional"}) {
    Flags g;
    g.define("events_floor", "0", "");
    char* args[] = {const_cast<char*>("prog"), const_cast<char*>(stray)};
    int n = 2;
    EXPECT_FALSE(g.parse_benchmark_or_usage(n, args)) << stray;
  }
}

TEST(Flags, UsageMentionsDefaults) {
  Flags f;
  f.define("seed", "42", "RNG seed");
  const std::string usage = f.usage("prog");
  EXPECT_NE(usage.find("--seed"), std::string::npos);
  EXPECT_NE(usage.find("42"), std::string::npos);
}

// --- string_util -------------------------------------------------------------

TEST(StringUtil, SplitAndTrim) {
  const auto parts = split("a, b ,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(trim(parts[1]), "b");
  EXPECT_EQ(trim("  x\t\n"), "x");
  EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(StringUtil, Parsers) {
  EXPECT_EQ(parse_i64(" 42 "), 42);
  EXPECT_DOUBLE_EQ(parse_f64("2.5"), 2.5);
  EXPECT_TRUE(parse_bool("Yes"));
  EXPECT_FALSE(parse_bool("off"));
  EXPECT_EQ(parse_i64("+7"), 7);
  EXPECT_EQ(parse_i64("-7"), -7);
  EXPECT_DOUBLE_EQ(parse_f64("1e3"), 1000.0);
  EXPECT_THROW((void)parse_i64("4x"), std::runtime_error);
  EXPECT_THROW((void)parse_i64("2.5"), std::runtime_error);
  EXPECT_THROW((void)parse_i64("9223372036854775808"), std::runtime_error);
  EXPECT_THROW((void)parse_i64("+-7"), std::runtime_error);
  EXPECT_THROW((void)parse_f64(""), std::runtime_error);
  EXPECT_THROW((void)parse_f64("2.5junk"), std::runtime_error);
  EXPECT_THROW((void)parse_f64("1e999"), std::runtime_error);
  EXPECT_THROW((void)parse_bool("maybe"), std::runtime_error);
}

TEST(StringUtil, ToF64KeepsTheStrtodGrammar) {
  // Spellings std::from_chars does not read are still numbers.
  EXPECT_EQ(to_f64("+1.5"), 1.5);
  EXPECT_EQ(to_f64("0x1p3"), 8.0);
  EXPECT_EQ(to_f64("-0X1.8P1"), -3.0);
  for (const char* inf : {"inf", "INF", "Infinity", "+inf", "iNfInItY"}) {
    EXPECT_EQ(to_f64(inf), HUGE_VAL) << inf;
  }
  EXPECT_EQ(to_f64("-inf"), -HUGE_VAL);
  for (const char* nan : {"nan", "NaN", "-nan", "nan(123)", "NAN(abc_9)"}) {
    const std::optional<double> v = to_f64(nan);
    ASSERT_TRUE(v.has_value()) << nan;
    EXPECT_TRUE(std::isnan(*v)) << nan;
  }
  // Surrounding whitespace is trimmed; strtod also skips a leading \v or
  // \f that trim() keeps.
  EXPECT_EQ(to_f64(" \t2.5\r\n"), 2.5);
  EXPECT_EQ(to_f64("\v2.5"), 2.5);
  EXPECT_EQ(to_f64(" \f 2.5"), 2.5);
  EXPECT_EQ(to_f64("2.5\v"), std::nullopt);
  EXPECT_EQ(to_f64(".5"), 0.5);
  EXPECT_EQ(to_f64("5."), 5.0);
  EXPECT_EQ(to_f64("-0"), 0.0);
  EXPECT_TRUE(std::signbit(*to_f64("-0")));
  EXPECT_EQ(to_f64("0.0"), 0.0);
  // Malformed or partly read text.
  for (const char* bad : {"", " ", ".", "1e", "1e+", "--1", "+-1", "1.5x",
                          "0x", "in", "1,5", "1 2"}) {
    EXPECT_EQ(to_f64(bad), std::nullopt) << '"' << bad << '"';
  }
  // Overflow, and underflow: strtod flags (ERANGE) every result whose
  // exact value is below DBL_MIN, subnormal or zero, even one that rounds
  // up to DBL_MIN.
  for (const char* range : {"1e309", "-1e309", "1.7976931348623159e308",
                            "1e-400", "-2e-324", "4.9e-324", "1e-310",
                            "2.2250738585072011e-308"}) {
    EXPECT_EQ(to_f64(range), std::nullopt) << range;
  }
  EXPECT_EQ(to_f64("1.7976931348623157e308"), 1.7976931348623157e308);
  EXPECT_EQ(to_f64("2.2250738585072014e-308"), 2.2250738585072014e-308);
  EXPECT_EQ(to_f64("0.1"), 0.1);
  EXPECT_EQ(to_f64("123456.78901234567"), 123456.78901234567);
}

/// The strtod reading to_f64 must reproduce: the whole of trim(s), no
/// ERANGE.
std::optional<double> strtod_reference(std::string_view s) {
  const std::string text(trim(s));
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() || errno == ERANGE) {
    return std::nullopt;
  }
  return v;
}

TEST(StringUtil, ToF64MatchesStrtodOnRandomText) {
  Rng rng(20231112);
  const std::string alphabet = "0123456789.eE+-xXpPaAfFnNiItTyY( )\t";
  const auto expect_same = [](const std::string& text) {
    const std::optional<double> got = to_f64(text);
    const std::optional<double> want = strtod_reference(text);
    ASSERT_EQ(got.has_value(), want.has_value()) << '"' << text << '"';
    if (got) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(*got),
                std::bit_cast<std::uint64_t>(*want))
          << '"' << text << '"';
    }
  };
  for (int i = 0; i < 20000; ++i) {
    // Random doubles over the whole exponent range, subnormals included,
    // printed at 17 significant digits (the trace writer's precision) and
    // at random shorter ones.
    const auto bits = static_cast<std::uint64_t>(rng.uniform_int(
        0, std::numeric_limits<std::int64_t>::max()));
    const double x = std::bit_cast<double>(bits);
    char buf[64];
    const int digits = rng.uniform_int(0, 1) == 0
                           ? 17
                           : static_cast<int>(rng.uniform_int(1, 20));
    std::snprintf(buf, sizeof buf, "%.*g", digits, x);
    expect_same(buf);
    // Near-numbers: short random strings over the number alphabet.
    std::string text;
    const auto len = rng.uniform_int(0, 8);
    for (std::int64_t k = 0; k < len; ++k) {
      text.push_back(alphabet[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(alphabet.size()) - 1))]);
    }
    expect_same(text);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(StringUtil, Strformat) {
  EXPECT_EQ(strformat("%d-%s", 7, "ok"), "7-ok");
  EXPECT_EQ(strformat("%.2f", 3.14159), "3.14");
}

// --- TextTable ----------------------------------------------------------------

TEST(TextTable, RendersAlignedGrid) {
  TextTable t({"Algorithm", "Value"});
  t.add_row({"RISA", "7"});
  t.add_row({"NULB", "255"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| RISA"), std::string::npos);
  EXPECT_NE(s.find("255 |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.columns(), 2u);
}

TEST(TextTable, RowWidthMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TextTable, NumberFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::pct(0.525, 1), "52.5%");
}

}  // namespace
}  // namespace risa
