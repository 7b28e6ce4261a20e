#include "fault/fault.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "util/cli.hpp"

namespace ngs::fault {

namespace {

/// FNV-1a over the site name: mixed with the global seed so each
/// probability trigger gets an independent, reproducible stream.
std::uint64_t site_hash(std::string_view name) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

bool known_site(const std::string& name) {
  for (const char* site : sites::kAll) {
    if (name == site) return true;
  }
  return false;
}

[[noreturn]] void spec_error(const std::string& detail) {
  throw Error(ErrorKind::kConfig, "fault.spec",
              "fault spec: " + detail +
                  " (grammar: site=always|once|n<K>|p<F>|off,...,seed=<N>; "
                  "sites listed in fault::sites)");
}

/// The number `parse` reads from a trigger or the seed, the strict
/// util::parse_size / parse_double contract (whole text, in range, no
/// NaN); on bad text a spec error that says `what`.
template <typename Parse>
auto spec_number(const Parse& parse, const std::string& what) {
  try {
    return parse();
  } catch (const Error& e) {
    spec_error(what + ": " + e.what());
  }
}

}  // namespace

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

void Registry::arm(const std::string& site, const std::string& trigger) {
  if (!known_site(site)) {
    spec_error("unknown injection site '" + site + "'");
  }
  SiteState state;
  state.rng.reseed(seed_ ^ site_hash(site));
  if (trigger == "always") {
    state.trigger = Trigger::kAlways;
  } else if (trigger == "once") {
    state.trigger = Trigger::kOnce;
  } else if (trigger == "off") {
    state.trigger = Trigger::kNever;
  } else if (trigger.size() > 1 && trigger[0] == 'n') {
    state.trigger = Trigger::kNth;
    state.nth = spec_number(
        [&] { return util::parse_size("fault-spec", trigger.substr(1), 1); },
        "bad nth-call trigger '" + trigger + "' for " + site);
  } else if (trigger.size() > 1 && trigger[0] == 'p') {
    state.trigger = Trigger::kProbability;
    state.probability = spec_number(
        [&] {
          return util::parse_double("fault-spec", trigger.substr(1), 0.0, 1.0);
        },
        "bad probability trigger '" + trigger + "' for " + site);
  } else {
    spec_error("bad trigger '" + trigger + "' for " + site);
  }
  // Preserve counters if the site was hit before being (re)armed.
  const auto it = sites_.find(site);
  if (it != sites_.end()) {
    state.hits = it->second.hits;
    state.fires = it->second.fires;
  }
  sites_[site] = state;
}

void Registry::configure(const std::string& spec) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> tokens;
  {
    std::string token;
    std::istringstream is(spec);
    while (std::getline(is, token, ',')) {
      const auto b = token.find_first_not_of(" \t");
      const auto e = token.find_last_not_of(" \t");
      if (b == std::string::npos) continue;  // empty/blank token
      tokens.push_back(token.substr(b, e - b + 1));
    }
  }
  // First pass for seed= so it applies to every site in this spec
  // regardless of position.
  for (const auto& token : tokens) {
    if (token.rfind("seed=", 0) != 0) continue;
    seed_ = spec_number(
        [&] { return util::parse_size("fault-spec", token.substr(5)); },
        "bad seed '" + token.substr(5) + "'");
  }
  for (const auto& token : tokens) {
    if (token.rfind("seed=", 0) == 0) continue;
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size()) {
      spec_error("expected site=trigger, got '" + token + "'");
    }
    arm(token.substr(0, eq), token.substr(eq + 1));
  }
  refresh_enabled_locked();
}

bool Registry::configure_from_env() {
  const char* spec = std::getenv("NGS_FAULT_SPEC");
  if (spec == nullptr || *spec == '\0') return false;
  configure(spec);
  return true;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  sites_.clear();
  seed_ = 0x5eed;
  enabled_.store(false, std::memory_order_relaxed);
}

void Registry::refresh_enabled_locked() {
  bool any = false;
  for (const auto& [name, state] : sites_) {
    any |= state.trigger != Trigger::kNever;
  }
  enabled_.store(any, std::memory_order_relaxed);
}

bool Registry::should_fire(const char* site) noexcept {
  if (!enabled()) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  SiteState& state = sites_[site];  // unarmed sites still count hits
  ++state.hits;
  bool fire = false;
  switch (state.trigger) {
    case Trigger::kNever: break;
    case Trigger::kAlways: fire = true; break;
    case Trigger::kOnce: fire = state.fires == 0; break;
    case Trigger::kNth: fire = state.hits == state.nth; break;
    case Trigger::kProbability:
      fire = state.rng.bernoulli(state.probability);
      break;
  }
  if (fire) ++state.fires;
  return fire;
}

SiteStats Registry::stats(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sites_.find(site);
  if (it == sites_.end()) return {};
  return {it->second.hits, it->second.fires};
}

std::vector<std::pair<std::string, SiteStats>> Registry::all_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, SiteStats>> out;
  out.reserve(sites_.size());
  for (const auto& [name, state] : sites_) {
    out.emplace_back(name, SiteStats{state.hits, state.fires});
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::string Registry::summary() const {
  std::ostringstream os;
  for (const auto& [name, stats] : all_stats()) {
    os << name << ": hits=" << stats.hits << " fires=" << stats.fires
       << "\n";
  }
  return os.str();
}

namespace detail {

void backoff_sleep(int milliseconds) {
  if (milliseconds <= 0) return;
  std::this_thread::sleep_for(std::chrono::milliseconds(milliseconds));
}

}  // namespace detail

}  // namespace ngs::fault
