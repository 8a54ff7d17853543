#ifndef HDMAP_COMMON_JSON_ESCAPE_H_
#define HDMAP_COMMON_JSON_ESCAPE_H_

#include <string>
#include <string_view>

namespace hdmap {

/// Appends `value` to `*out` escaped for the inside of a JSON string
/// literal: quote, backslash and every control character (as \n, \t, \r
/// or \u00XX). The one escaper behind every JSON document the library
/// emits — metrics, event log, Chrome trace export and the kStats node
/// status — so any caller-supplied string keeps the document parseable.
void AppendJsonEscaped(std::string_view value, std::string* out);

}  // namespace hdmap

#endif  // HDMAP_COMMON_JSON_ESCAPE_H_
