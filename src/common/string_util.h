#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fexiot {

/// \brief Splits \p text on \p sep, keeping empty fields.
std::vector<std::string> Split(std::string_view text, char sep);

/// \brief Splits \p text on any whitespace run, dropping empty fields.
std::vector<std::string> SplitWhitespace(std::string_view text);

/// \brief Joins \p parts with \p sep.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// \brief ASCII lower-cases \p text.
std::string ToLower(std::string_view text);

/// \brief Strips leading/trailing whitespace.
std::string Trim(std::string_view text);

/// \brief True if \p text starts with \p prefix.
bool StartsWith(std::string_view text, std::string_view prefix);

/// \brief True if \p text ends with \p suffix.
bool EndsWith(std::string_view text, std::string_view suffix);

/// \brief True if \p haystack contains \p needle.
bool Contains(std::string_view haystack, std::string_view needle);

/// 64-bit FNV-1a offset basis (the hash of zero bytes).
constexpr uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;

/// \brief Folds \p size bytes at \p data into the running 64-bit FNV-1a
/// hash \p h and returns the result. Chained calls hash the concatenation,
/// so every content fingerprint in the tree is built on this one loop.
inline uint64_t Fnv1a(const void* data, size_t size,
                      uint64_t h = kFnv1aOffset) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;  // FNV-1a prime
  }
  return h;
}

/// \brief Stable 64-bit FNV-1a hash of \p text (platform independent).
uint64_t HashString(std::string_view text);

/// \brief Formats a double with fixed precision.
std::string FormatDouble(double value, int precision = 3);

}  // namespace fexiot
