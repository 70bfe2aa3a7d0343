// FNV-1a over 64-bit words: the one hash behind plan and tune-config
// identity, the planner's memo keys and the spec fingerprint that wisdom
// files persist (so its values must not change).
#pragma once

#include <cstdint>
#include <initializer_list>

namespace repro {

/// FNV-1a of `words`, each folded in whole (one xor and one multiply).
constexpr std::uint64_t fnv1a(std::initializer_list<std::uint64_t> words) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint64_t w : words) {
    h ^= w;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace repro
