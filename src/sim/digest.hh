/**
 * @file
 * Digest: a running FNV-1a hash for behavioural fingerprints.
 *
 * The event queue fingerprints *how* a run fired its events; a
 * Digest fingerprints *what* it did: deliveries, counters, verdicts.
 * Two runs that fold the same values in the same order agree, so a
 * change that fires fewer events but simulates the same system keeps
 * every digest.  Integers are folded as their eight little-endian
 * bytes, strings as their length and then their bytes.
 */

#pragma once

#include <cstdint>
#include <string_view>

namespace nectar::sim {

class Digest
{
  public:
    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    mix(std::string_view s)
    {
        mix(static_cast<std::uint64_t>(s.size()));
        for (char c : s)
            byte(static_cast<std::uint8_t>(c));
    }

    std::uint64_t value() const { return h; }

  private:
    void
    byte(std::uint8_t b)
    {
        h = (h ^ b) * 0x100000001b3ULL;
    }

    std::uint64_t h = 0xcbf29ce484222325ULL; // FNV offset basis
};

} // namespace nectar::sim
