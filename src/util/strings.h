// Small string helpers used throughout the MicroGrid code base.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mg::util {

/// Remove leading and trailing whitespace.
std::string_view trim(std::string_view s);

/// Parse the whole of `s` as a number (surrounding whitespace allowed);
/// nullopt when it is malformed, out of range, or has trailing text.
std::optional<double> parseDouble(std::string_view s);
std::optional<std::int64_t> parseInt(std::string_view s);

/// Split on a delimiter character. Empty fields are preserved:
/// split("a,,b", ',') -> {"a", "", "b"}. split("", ',') -> {""}.
std::vector<std::string> split(std::string_view s, char delim);

/// Split on a delimiter and trim each field.
std::vector<std::string> splitTrim(std::string_view s, char delim);

/// Split on arbitrary runs of whitespace; no empty fields are produced.
std::vector<std::string> splitWhitespace(std::string_view s);

/// ASCII lower-case copy.
std::string toLower(std::string_view s);

/// Case-insensitive ASCII comparison.
bool iequals(std::string_view a, std::string_view b);

bool startsWith(std::string_view s, std::string_view prefix);
bool endsWith(std::string_view s, std::string_view suffix);

/// Join the elements of `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Shell-style glob match supporting only '*' (any run of characters).
/// Used by the GIS filter language, e.g. "(hn=vm*.ucsd.edu)".
bool globMatch(std::string_view pattern, std::string_view text);

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace mg::util
