// The one command-line parser of every example, bench and benchmark
// driver.  Syntax: --name=value | --name value | --name (bare form).
//
// Every flag has a kind, and parse() checks each value with string_util's
// strict readers.  define() derives the kind from the default: a
// "true"/"false" default makes a boolean (parse_bool spellings; the bare
// form means true), a numeric default a real number (parse_f64 must take
// the whole value), anything else text.  define_i64() declares an integer
// (parse_i64: a fraction is refused at parse time), the only kind i64()
// reads.  A flag defined with a bare value takes it when it appears
// without `=`, and never consumes the next argument.  Unknown flags and
// bad values are errors, and so are stray positionals in a driver that
// takes none, so a typo fails the run instead of dropping a setting.
// `--help` prints the usage to stdout and exits 0.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace risa {

class Flags {
 public:
  /// Register flags before parse().  `help` is printed by usage().
  void define(const std::string& name, const std::string& default_value,
              const std::string& help);
  /// A flag that may also appear bare (`--name`), meaning `bare_value`.
  void define(const std::string& name, const std::string& default_value,
              const std::string& help, const std::string& bare_value);
  /// An integer flag, optionally with a bare value.
  void define_i64(const std::string& name, std::int64_t default_value,
                  const std::string& help,
                  std::optional<std::int64_t> bare_value = std::nullopt);

  /// Parse argv; throws std::runtime_error on an unknown flag, a missing
  /// value or a value its kind rejects.  Returns positional arguments.
  std::vector<std::string> parse(int argc, const char* const* argv);

  [[nodiscard]] std::string str(const std::string& name) const;
  /// Typed reads throw std::runtime_error naming the flag when the value
  /// does not parse whole.  i64() of a flag not declared with define_i64()
  /// is a std::logic_error (a driver bug, whatever the value).
  [[nodiscard]] std::int64_t i64(const std::string& name) const;
  [[nodiscard]] double f64(const std::string& name) const;
  [[nodiscard]] bool b(const std::string& name) const;

  [[nodiscard]] std::string usage(const std::string& program) const;

  /// parse() with the standard CLI error policy: on failure, print the
  /// error and usage to stderr and return false (the caller exits 1).
  /// Positional arguments are rejected unless `positional_out` is given.
  /// On `--help`, print the usage to stdout and exit 0.
  [[nodiscard]] bool parse_or_usage(int argc, const char* const* argv,
                                    std::vector<std::string>* positional_out =
                                        nullptr);

  /// parse_or_usage() for a google-benchmark main: consumes the defined
  /// flags and leaves every `--benchmark_*` argument in argv (compacted in
  /// place) for benchmark::Initialize.  Any other argument is an error;
  /// `--help` prints the usage and exits 0 as above.
  [[nodiscard]] bool parse_benchmark_or_usage(int& argc, char** argv);

 private:
  enum class Kind : std::uint8_t { Text, Bool, Real, Integer };

  struct Entry {
    std::string name;
    std::string value;
    std::string default_value;
    std::string help;
    std::optional<std::string> bare;
    Kind kind = Kind::Text;
  };

  /// The kind define() derives from a default value.
  static Kind kind_of(const std::string& default_value);
  void add(const std::string& name, const std::string& default_value,
           const std::string& help, std::optional<std::string> bare,
           Kind kind);
  /// Exit 0 after printing the usage when argv asks for `--help`.
  void exit_on_help(int argc, const char* const* argv) const;
  /// Assign every flag in argv[1..argc); returns the indices of the
  /// arguments left over (positionals, and `--benchmark_*` ones when
  /// `keep_benchmark`).
  std::vector<int> consume(int argc, const char* const* argv,
                           bool keep_benchmark);
  Entry* find(const std::string& name);
  [[nodiscard]] const Entry* find(const std::string& name) const;

  std::vector<Entry> entries_;
};

// --- Worker-thread count plumbing -------------------------------------------
//
// Every driver that fans a scenario matrix over the sweep runner takes the
// same `--threads N` flag: 0 (the usual default) resolves to the RISA_THREADS
// environment override when set, else to std::thread::hardware_concurrency.

/// RISA_THREADS env override when positive, else hardware concurrency
/// (minimum 1).
[[nodiscard]] int default_thread_count();

/// Define `--threads` on `flags`.  `default_value` 0 = auto (see above);
/// timing-sensitive drivers (Figures 11/12) pass 1.
void define_threads_flag(Flags& flags, int default_value = 0);

/// Resolve the parsed `--threads` value: positive values pass through,
/// everything else resolves via default_thread_count().
[[nodiscard]] int thread_count(const Flags& flags);

/// Resolve a raw requested count with the same rule (for callers without a
/// Flags instance).
[[nodiscard]] int resolve_thread_count(long long requested);

}  // namespace risa
