#include "common/flags.hpp"

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "common/string_util.hpp"

namespace risa {

namespace {

bool is_bool_literal(const std::string& s) {
  return s == "true" || s == "false";
}

/// `parse(value)`, its error naming the flag.
template <typename Parse>
auto read_as(const std::string& name, const std::string& value, Parse parse) {
  try {
    return parse(value);
  } catch (const std::runtime_error& err) {
    throw std::runtime_error("Flags: bad value for --" + name + ": " +
                             err.what());
  }
}

}  // namespace

Flags::Kind Flags::kind_of(const std::string& default_value) {
  if (is_bool_literal(default_value)) return Kind::Bool;
  return to_f64(default_value) ? Kind::Real : Kind::Text;
}

void Flags::define(const std::string& name, const std::string& default_value,
                   const std::string& help) {
  add(name, default_value, help,
      is_bool_literal(default_value) ? std::optional<std::string>("true")
                                     : std::nullopt,
      kind_of(default_value));
}

void Flags::define(const std::string& name, const std::string& default_value,
                   const std::string& help, const std::string& bare_value) {
  add(name, default_value, help, bare_value, kind_of(default_value));
}

void Flags::define_i64(const std::string& name, std::int64_t default_value,
                       const std::string& help,
                       std::optional<std::int64_t> bare_value) {
  add(name, std::to_string(default_value), help,
      bare_value ? std::optional<std::string>(std::to_string(*bare_value))
                 : std::nullopt,
      Kind::Integer);
}

void Flags::add(const std::string& name, const std::string& default_value,
                const std::string& help, std::optional<std::string> bare,
                Kind kind) {
  if (find(name) != nullptr) {
    throw std::logic_error("Flags: duplicate flag --" + name);
  }
  entries_.push_back(
      {name, default_value, default_value, help, std::move(bare), kind});
}

Flags::Entry* Flags::find(const std::string& name) {
  for (auto& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

const Flags::Entry* Flags::find(const std::string& name) const {
  for (const auto& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

std::vector<int> Flags::consume(int argc, const char* const* argv,
                                bool keep_benchmark) {
  std::vector<int> rest;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!arg.starts_with("--") ||
        (keep_benchmark && arg.starts_with("--benchmark_"))) {
      rest.push_back(i);
      continue;
    }
    arg.remove_prefix(2);
    const std::size_t eq = arg.find('=');
    const std::string name(arg.substr(0, eq));
    Entry* e = find(name);
    if (e == nullptr) throw std::runtime_error("Flags: unknown flag --" + name);
    if (eq != std::string_view::npos) {
      e->value = arg.substr(eq + 1);
    } else if (e->bare) {
      e->value = *e->bare;
    } else if (i + 1 < argc) {
      e->value = argv[++i];
    } else {
      throw std::runtime_error("Flags: missing value for --" + name);
    }
    switch (e->kind) {
      case Kind::Bool: (void)read_as(name, e->value, parse_bool); break;
      case Kind::Real: (void)read_as(name, e->value, parse_f64); break;
      case Kind::Integer: (void)read_as(name, e->value, parse_i64); break;
      case Kind::Text: break;
    }
  }
  return rest;
}

std::vector<std::string> Flags::parse(int argc, const char* const* argv) {
  std::vector<std::string> positional;
  for (const int i : consume(argc, argv, /*keep_benchmark=*/false)) {
    positional.emplace_back(argv[i]);
  }
  return positional;
}

std::string Flags::str(const std::string& name) const {
  const Entry* e = find(name);
  if (e == nullptr) throw std::logic_error("Flags: undefined flag --" + name);
  return e->value;
}

std::int64_t Flags::i64(const std::string& name) const {
  const Entry* e = find(name);
  if (e == nullptr || e->kind != Kind::Integer) {
    throw std::logic_error("Flags: i64() of --" + name +
                           ", which is not an integer flag");
  }
  return read_as(name, e->value, parse_i64);
}

double Flags::f64(const std::string& name) const {
  return read_as(name, str(name), parse_f64);
}

bool Flags::b(const std::string& name) const {
  return read_as(name, str(name), parse_bool);
}

void Flags::exit_on_help(int argc, const char* const* argv) const {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--help") {
      std::cout << usage(argv[0]);
      std::exit(0);
    }
  }
}

bool Flags::parse_or_usage(int argc, const char* const* argv,
                           std::vector<std::string>* positional_out) {
  exit_on_help(argc, argv);
  try {
    std::vector<std::string> positional = parse(argc, argv);
    if (positional_out != nullptr) {
      *positional_out = std::move(positional);
    } else if (!positional.empty()) {
      throw std::runtime_error("unexpected positional argument '" +
                               positional.front() + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n" << usage(argv[0]);
    return false;
  }
  return true;
}

bool Flags::parse_benchmark_or_usage(int& argc, char** argv) {
  exit_on_help(argc, argv);
  try {
    const std::vector<int> rest = consume(argc, argv, /*keep_benchmark=*/true);
    int out = 1;
    for (const int i : rest) {
      if (!std::string_view(argv[i]).starts_with("--benchmark_")) {
        throw std::runtime_error("unexpected argument '" +
                                 std::string(argv[i]) + "'");
      }
      argv[out++] = argv[i];
    }
    argc = out;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n" << usage(argv[0]);
    return false;
  }
  return true;
}

int default_thread_count() {
  if (const char* env = std::getenv("RISA_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) return static_cast<int>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void define_threads_flag(Flags& flags, int default_value) {
  flags.define_i64("threads", default_value,
                   "Worker threads for the scenario sweep (0 = RISA_THREADS "
                   "env override, else hardware concurrency)");
}

int thread_count(const Flags& flags) {
  return resolve_thread_count(flags.i64("threads"));
}

int resolve_thread_count(long long requested) {
  return requested > 0 ? static_cast<int>(requested) : default_thread_count();
}

std::string Flags::usage(const std::string& program) const {
  std::ostringstream os;
  os << "Usage: " << program << " [flags]\n";
  for (const auto& e : entries_) {
    os << "  --" << e.name << " (default: " << e.default_value;
    if (e.bare && e.kind != Kind::Bool) {
      os << "; bare: " << *e.bare;
    }
    os << ")\n      " << e.help << "\n";
  }
  return os.str();
}

}  // namespace risa
