#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string_view>

/// Strict numeric parsing for CLI flags and environment knobs.
///
/// `std::atoi`/`std::atof` turn garbage into silent zeros — `--workers abc`
/// became 0 workers and `VCAQOE_BENCH_TREES=forty` trained a 0-tree forest.
/// These helpers parse with `std::from_chars` and succeed only when the
/// whole input is consumed and the value is in range, so callers can tell
/// "0" from "not a number" and reject the latter loudly.
namespace vcaqoe::common {

/// Full-consume integer parse (decimal, optional leading '-'; no leading
/// whitespace, no trailing characters, no overflow). nullopt on anything
/// else.
inline std::optional<long long> parseInt(std::string_view text) {
  long long value = 0;
  const auto result =
      std::from_chars(text.data(), text.data() + text.size(), value, 10);
  if (result.ec != std::errc() || result.ptr != text.data() + text.size()) {
    return std::nullopt;
  }
  return value;
}

/// Full-consume finite-double parse (decimal or scientific; no leading
/// whitespace or '+', no trailing characters, no "inf"/"nan", no
/// overflow-to-infinity). nullopt on anything else.
inline std::optional<double> parseDouble(std::string_view text) {
  double value = 0.0;
  const auto result =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (result.ec != std::errc() || result.ptr != text.data() + text.size() ||
      !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

/// Resolves a decimal number token that `std::from_chars` parsed but
/// reported out of double range, as strtod would: overflow to +/-HUGE_VAL,
/// underflow to +/-0.0. libstdc++'s from_chars leaves its output untouched
/// in that case, so "-1e999999" would otherwise read as 0.0. The token is
/// what from_chars consumed (optional '-', digits with an optional point,
/// optional exponent).
inline double outOfRangeDouble(std::string_view token) {
  const bool negative = !token.empty() && token.front() == '-';
  // Count significant integer digits (leading '-' / zeros stripped).
  std::size_t i = negative ? 1 : 0;
  while (i < token.size() && token[i] == '0') ++i;
  std::int64_t intDigits = 0;
  while (i < token.size() && token[i] >= '0' && token[i] <= '9') {
    ++i;
    ++intDigits;
  }
  // Explicit exponent, clamped so absurd exponents cannot overflow the
  // arithmetic below.
  std::int64_t exponent = 0;
  const std::size_t e = token.find_first_of("eE");
  if (e != std::string_view::npos) {
    const bool expNegative = token[e + 1] == '-';
    std::size_t d = e + 1 + (expNegative || token[e + 1] == '+' ? 1 : 0);
    for (; d < token.size(); ++d) {
      exponent = std::min<std::int64_t>(exponent * 10 + (token[d] - '0'),
                                        std::int64_t{1} << 40);
    }
    if (expNegative) exponent = -exponent;
  }
  // Decimal magnitude ~ exponent + integer-digit count; doubles overflow
  // past ~1e308 and underflow below ~1e-324, so the sign of the estimate
  // is decisive for any out-of-range token.
  const bool overflow = exponent + intDigits > 0;
  const double magnitude = overflow ? HUGE_VAL : 0.0;
  return negative ? -magnitude : magnitude;
}

}  // namespace vcaqoe::common
