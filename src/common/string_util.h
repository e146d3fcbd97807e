#pragma once

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace erq {

/// Returns `s` converted to ASCII lowercase.
std::string ToLower(std::string_view s);

/// Returns `s` converted to ASCII uppercase.
std::string ToUpper(std::string_view s);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Concatenates `parts` into one string, sized once. Preferred over
/// chains of `"(" + str + ...`, which GCC 12 at -O3 misreports as
/// overlapping copies (-Wrestrict).
std::string StrCat(std::initializer_list<std::string_view> parts);

/// Splits `s` on the single character `sep`; empty fields are preserved.
std::vector<std::string> Split(std::string_view s, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

}  // namespace erq

