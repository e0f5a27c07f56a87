#pragma once
// JSON output helpers shared by the exporters (the serving trace and the
// metrics registry): string escaping and writing a JSON document to a
// file.

#include <string>

namespace cimtpu::sim {

/// JSON string escaping (control characters, quotes, backslash).
std::string json_escape(const std::string& text);

/// Writes `json` to `path`; throws ConfigError when the file cannot be
/// created.
void write_json_file(const std::string& path, const std::string& json);

}  // namespace cimtpu::sim
