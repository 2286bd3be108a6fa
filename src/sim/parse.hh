/**
 * @file
 * Whole-value number parsing for text inputs (plan files, tool flags).
 */

#pragma once

#include <charconv>
#include <cmath>
#include <string_view>
#include <type_traits>

namespace nectar::sim {

/** Parse all of @p s as a T: false on an empty string, a leading
 *  space or '+', trailing junk, a value out of range, or inf/nan. */
template <typename T>
bool
parseWhole(std::string_view s, T &out)
{
    auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
    if constexpr (std::is_floating_point_v<T>)
        if (!std::isfinite(out))
            return false;
    return ec == std::errc() && p == s.data() + s.size();
}

} // namespace nectar::sim
