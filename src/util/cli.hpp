#pragma once
// Minimal command-line flag parsing for the tools/ executables:
// --name value and --flag forms, with typed accessors, defaults, and
// usage generation. No external dependencies.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ngs::util {

class CliParser {
 public:
  CliParser(std::string program, std::string description)
      : program_(std::move(program)), description_(std::move(description)) {}

  /// Registers an option (for usage output). `takes_value` false makes it
  /// a boolean switch.
  void add_option(const std::string& name, const std::string& help,
                  bool takes_value = true,
                  const std::string& default_value = "");

  /// Parses argv. Returns false (and fills error()) on unknown options,
  /// missing values and any argument that is not an option (there are
  /// no positional arguments). "--help" sets help_requested().
  bool parse(int argc, const char* const* argv);

  bool help_requested() const noexcept { return help_; }
  const std::string& error() const noexcept { return error_; }
  const std::string& program() const noexcept { return program_; }

  /// True when add_option registered `name` (whether or not it was set).
  bool declares(const std::string& name) const {
    return options_.count(name) != 0;
  }

  bool has(const std::string& name) const;
  std::string get(const std::string& name,
                  const std::string& fallback = "") const;
  /// Every occurrence of a repeatable option, in command-line order
  /// (get() keeps returning the last one). Empty if never passed.
  std::vector<std::string> get_all(const std::string& name) const;
  /// The value of `name`; throws ngs::Error(kConfig) "--name is
  /// required" when it is unset or empty.
  std::string required(const std::string& name) const;
  /// Strict signed value of `name` (`fallback` when never set): throws
  /// ngs::Error(kConfig) naming the flag unless the whole text is a
  /// base-10 integer that fits 64 bits (so "abc", "4k", "+5" and "" are
  /// rejected).
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  /// Strict value of `name` (`fallback` when never set): parse_size of
  /// the flag's text.
  std::size_t get_size(const std::string& name, std::size_t fallback,
                       std::size_t min = 0,
                       std::size_t max = SIZE_MAX) const;
  /// Strict value of `name` (`fallback` when never set): parse_double
  /// of the flag's text.
  double get_double(const std::string& name, double fallback,
                    double min = std::numeric_limits<double>::lowest(),
                    double max = std::numeric_limits<double>::max()) const;

  std::string usage() const;

 private:
  struct Option {
    std::string help;
    bool takes_value = true;
    std::string default_value;
  };

  std::string program_;
  std::string description_;
  std::map<std::string, Option> options_;  // ordered for usage output
  std::map<std::string, std::string> values_;
  std::map<std::string, std::vector<std::string>> all_values_;
  std::string error_;
  bool help_ = false;
};

/// Strict parse of one value of flag `name`: throws ngs::Error(kConfig)
/// naming the flag unless the whole of `text` is a base-10 integer in
/// [min, max] (so "-1", "4k", "" and values past 64 bits are rejected).
/// Flags whose value embeds an integer parse that part with it.
std::size_t parse_size(const std::string& name, const std::string& text,
                       std::size_t min = 0, std::size_t max = SIZE_MAX);

/// Strict parse of one value of flag `name`: throws ngs::Error(kConfig)
/// naming the flag unless the whole of `text` is a decimal number in
/// [min, max] (so "abc", "0.1x", "" and "nan" are rejected). Flags that
/// take a list parse each item with it.
double parse_double(const std::string& name, const std::string& text,
                    double min = std::numeric_limits<double>::lowest(),
                    double max = std::numeric_limits<double>::max());

}  // namespace ngs::util
