// JSON string escaping shared by every writer of JSON text: run reports
// and serve envelopes.
#pragma once

#include <string>
#include <string_view>

namespace st2 {

/// Escapes `s` for a JSON string body per RFC 8259: quote, backslash, \n,
/// \r and \t get their short escapes, every other control byte is written
/// as \u00XX, and all other bytes pass through unchanged.
std::string json_escape(std::string_view s);

}  // namespace st2
