// Typed NICSCHED_* environment parsing.
//
// Every subsystem that reads environment overrides (overload control, the
// rack ToR, the tenant layer, the bench harness) used to carry its own copy
// of the same strtod/strtoull helpers. EnvSpec centralizes them:
//
//  * typed getters with fallbacks (flag / number / u64 / text / duration),
//    all registering the key they touched;
//  * one documented-key registry, so `unknown_keys()` can flag a typo'd
//    NICSCHED_* variable instead of silently ignoring it (the classic
//    "NICSCHED_OVERLOAD_DEPTH_LIMT=64 did nothing" failure);
//  * header-only, so layers below core (overload, rack) can use it without
//    a link-time dependency cycle.
//
// Parsing semantics are identical to the helpers this replaces: empty or
// unset values yield the fallback, flags treat "0"/"false"/"off" as false
// and anything else as true, and malformed numbers fall back rather than
// abort — environment overrides must never turn a reproducible run into a
// crash.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.h"

extern "C" char** environ;

namespace nicsched::core {

class EnvSpec {
 public:
  /// Every NICSCHED_* key the codebase documents, plus any key a getter has
  /// touched this process. Pre-seeding with the documented set keeps
  /// `unknown_keys()` accurate even before a subsystem's from_env ran.
  static std::set<std::string, std::less<>>& known_keys() {
    static std::set<std::string, std::less<>> keys = {
        // Harness / sinks.
        "NICSCHED_FAST", "NICSCHED_RESULT_DIR",
        // Overload control (DESIGN §11).
        "NICSCHED_OVERLOAD", "NICSCHED_OVERLOAD_DEADLINE_US",
        "NICSCHED_OVERLOAD_RETRY_BUDGET", "NICSCHED_OVERLOAD_RETRY_TIMEOUT_US",
        "NICSCHED_OVERLOAD_ADMISSION", "NICSCHED_OVERLOAD_DELAY_LIMIT_US",
        "NICSCHED_OVERLOAD_DEPTH_LIMIT", "NICSCHED_OVERLOAD_SHEDDING",
        "NICSCHED_OVERLOAD_ADAPTIVE_K",
        // Rack ToR (DESIGN §12).
        "NICSCHED_RACK_POLICY", "NICSCHED_RACK_DECISION_NS",
        "NICSCHED_RACK_LINK_NS", "NICSCHED_RACK_LINK_GBPS",
        "NICSCHED_RACK_STALE_US", "NICSCHED_RACK_SOJOURN_ALPHA",
        "NICSCHED_RACK_SOJOURN_WEIGHT", "NICSCHED_RACK_AFFINITY_TTL_US",
        "NICSCHED_RACK_HOST_TIMEOUT_US", "NICSCHED_RACK_SEED",
        // Rack failover, hedging, and seeded chaos (DESIGN §16).
        "NICSCHED_RACK_FAILOVER", "NICSCHED_RACK_FAILOVER_PROBE_US",
        "NICSCHED_RACK_FAILOVER_TIMEOUT_US", "NICSCHED_RACK_HEDGE",
        "NICSCHED_RACK_HEDGE_US", "NICSCHED_RACK_HEDGE_CANCEL",
        "NICSCHED_CHAOS", "NICSCHED_CHAOS_SEED",
        // Tenant layer (DESIGN §13).
        "NICSCHED_TENANTS",
        // RDMA dispatch / feedback staleness (DESIGN §15).
        "NICSCHED_FEEDBACK_STALENESS_US",
    };
    return keys;
  }

  static void note_key(std::string_view key) {
    known_keys().emplace(key);
  }

  /// Raw lookup; registers the key. Returns nullptr for unset or empty.
  static const char* raw(const char* key) {
    note_key(key);
    const char* value = std::getenv(key);
    return (value == nullptr || *value == '\0') ? nullptr : value;
  }

  static bool flag(const char* key, bool fallback) {
    const char* value = raw(key);
    if (value == nullptr) return fallback;
    const std::string_view text(value);
    return !(text == "0" || text == "false" || text == "off");
  }

  static double number(const char* key, double fallback) {
    const char* value = raw(key);
    if (value == nullptr) return fallback;
    char* end = nullptr;
    const double parsed = std::strtod(value, &end);
    return end == value ? fallback : parsed;
  }

  static std::uint64_t u64(const char* key, std::uint64_t fallback) {
    const char* value = raw(key);
    if (value == nullptr) return fallback;
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(value, &end, 10);
    return end == value ? fallback : static_cast<std::uint64_t>(parsed);
  }

  /// Fills `out` and returns true when the key is set and non-empty.
  static bool text(const char* key, std::string& out) {
    const char* value = raw(key);
    if (value == nullptr) return false;
    out = value;
    return true;
  }

  static sim::Duration micros(const char* key, sim::Duration fallback) {
    return sim::Duration::micros(number(key, fallback.to_micros()));
  }

  static sim::Duration nanos(const char* key, sim::Duration fallback) {
    return sim::Duration::nanos(number(key, fallback.to_nanos()));
  }

  /// NICSCHED_*-prefixed environment variables that match no key in
  /// `known_keys()` — almost always a typo in an override the user believed
  /// was taking effect.
  static std::vector<std::string> unknown_keys() {
    std::vector<std::string> unknown;
    const auto& known = known_keys();
    for (char** entry = environ; entry != nullptr && *entry != nullptr;
         ++entry) {
      const std::string_view line(*entry);
      if (line.rfind("NICSCHED_", 0) != 0) continue;
      const std::size_t eq = line.find('=');
      const std::string_view key =
          eq == std::string_view::npos ? line : line.substr(0, eq);
      if (known.find(key) == known.end()) unknown.emplace_back(key);
    }
    return unknown;
  }
};

}  // namespace nicsched::core
