// Small text helpers shared by the .g / PLA / DIMACS parsers and the
// table-formatting code in bench/.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace mps::util {

/// Split on any amount of whitespace; no empty tokens.
std::vector<std::string> split_ws(std::string_view s);

/// Split on a single character delimiter; keeps empty fields.
std::vector<std::string> split_on(std::string_view s, char delim);

/// Strip leading/trailing whitespace.
std::string_view trim(std::string_view s);

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Right-pad (positive width) or left-pad (negative) to |width| columns.
std::string pad(std::string_view s, int width);

}  // namespace mps::util
