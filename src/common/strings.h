// Small string utilities shared across the library.

#ifndef COLORFUL_XML_COMMON_STRINGS_H_
#define COLORFUL_XML_COMMON_STRINGS_H_

#include <cstdarg>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mct {

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits `s` on runs of ASCII whitespace, dropping empty fields. This is
/// the tokenization used for IDREFS attribute lists.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `haystack` contains `needle` (XQuery fn:contains on strings).
bool Contains(std::string_view haystack, std::string_view needle);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Strips leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

/// Parses a decimal integer; nullopt when `s` is not entirely an integer.
std::optional<int64_t> ParseInt(std::string_view s);

/// Parses a decimal floating point number; nullopt when malformed.
std::optional<double> ParseDouble(std::string_view s);

/// Lower-cases ASCII letters.
std::string AsciiLower(std::string_view s);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// StrFormat over a va_list, for printf-style wrappers. Consumes `args`.
std::string StrFormatV(const char* fmt, va_list args)
    __attribute__((format(printf, 1, 0)));

/// Escapes `s` for embedding inside a JSON string literal (quotes,
/// backslashes, control characters).
std::string EscapeJson(std::string_view s);

}  // namespace mct

#endif  // COLORFUL_XML_COMMON_STRINGS_H_
