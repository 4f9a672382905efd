// String helpers shared by report emitters/parsers and table rendering.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace prcost {

/// Split `s` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view s, char sep);

/// Strip ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

/// Lower-case ASCII copy.
std::string to_lower(std::string_view s);

/// Fixed-point decimal rendering with `digits` fractional digits.
std::string format_fixed(double v, int digits);

/// Render bytes with a binary-unit suffix, e.g. "82.9 KiB".
std::string format_bytes(double bytes);

/// Parse a non-negative integer; throws ParseError (with the offending
/// token) on junk, sign characters, trailing garbage, or overflow.
unsigned long long parse_u64(std::string_view s);

/// Parse a finite decimal double ("0.25", "1e-3", "-2.5"); throws
/// ParseError (with the offending token) on junk, trailing garbage,
/// overflow, or non-finite results. Hex floats and nan/inf are rejected.
double parse_double(std::string_view s);

}  // namespace prcost
