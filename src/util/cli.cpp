#include "util/cli.hpp"

#include <charconv>
#include <sstream>

#include "util/error.hpp"

namespace ngs::util {

void CliParser::add_option(const std::string& name, const std::string& help,
                           bool takes_value,
                           const std::string& default_value) {
  options_[name] = Option{help, takes_value, default_value};
  if (takes_value && !default_value.empty()) {
    values_[name] = default_value;
  }
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_ = true;
      return true;
    }
    // No tool takes a bare argument, so a stray word or a single-dash
    // typo of a flag is an error rather than silently dropped.
    if (arg.rfind("--", 0) != 0) {
      error_ = "unexpected argument: " + arg;
      return false;
    }
    const std::string name = arg.substr(2);
    const auto it = options_.find(name);
    if (it == options_.end()) {
      error_ = "unknown option: " + arg;
      return false;
    }
    if (!it->second.takes_value) {
      values_.insert_or_assign(name, std::string(1, '1'));
      continue;
    }
    if (i + 1 >= argc) {
      error_ = "option " + arg + " requires a value";
      return false;
    }
    values_[name] = argv[++i];
    all_values_[name].push_back(values_[name]);
  }
  return true;
}

std::vector<std::string> CliParser::get_all(const std::string& name) const {
  const auto it = all_values_.find(name);
  return it == all_values_.end() ? std::vector<std::string>{} : it->second;
}

bool CliParser::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string CliParser::get(const std::string& name,
                           const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::string CliParser::required(const std::string& name) const {
  std::string value = get(name);
  if (value.empty()) {
    throw Error(ErrorKind::kConfig, "cli", "--" + name + " is required");
  }
  return value;
}

std::int64_t CliParser::get_int(const std::string& name,
                                std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  std::int64_t value = 0;
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc() || end != last) {
    throw Error(ErrorKind::kConfig, "cli",
                "--" + name + " must be an integer, got '" + text + "'");
  }
  return value;
}

std::size_t CliParser::get_size(const std::string& name,
                                std::size_t fallback, std::size_t min,
                                std::size_t max) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback
                             : parse_size(name, it->second, min, max);
}

std::size_t parse_size(const std::string& name, const std::string& text,
                       std::size_t min, std::size_t max) {
  std::size_t value = 0;
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc() || end != last || value < min || value > max) {
    std::string range = ">= " + std::to_string(min);
    if (max != SIZE_MAX) range += " and <= " + std::to_string(max);
    throw Error(ErrorKind::kConfig, "cli",
                "--" + name + " must be an integer " + range + ", got '" +
                    text + "'");
  }
  return value;
}

double CliParser::get_double(const std::string& name, double fallback,
                             double min, double max) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback
                             : parse_double(name, it->second, min, max);
}

double parse_double(const std::string& name, const std::string& text,
                    double min, double max) {
  double value = 0.0;
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  // NaN fails both comparisons, so the range check rejects it too.
  if (ec != std::errc() || end != last || !(value >= min && value <= max)) {
    const bool has_min = min > std::numeric_limits<double>::lowest();
    std::ostringstream os;
    os << "--" << name << " must be a number";
    if (has_min) os << " >= " << min;
    if (max < std::numeric_limits<double>::max()) {
      os << (has_min ? " and" : "") << " <= " << max;
    }
    os << ", got '" << text << "'";
    throw Error(ErrorKind::kConfig, "cli", os.str());
  }
  return value;
}

std::string CliParser::usage() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\nOptions:\n";
  for (const auto& [name, opt] : options_) {
    os << "  --" << name << (opt.takes_value ? " <value>" : "") << "\n      "
       << opt.help;
    if (!opt.default_value.empty()) {
      os << " (default: " << opt.default_value << ")";
    }
    os << "\n";
  }
  os << "  --help\n      Show this message.\n";
  return os.str();
}

}  // namespace ngs::util
