#include "sim/trace.h"

#include <cstdio>
#include <fstream>

#include "common/status.h"

namespace cimtpu::sim {

std::string json_escape(const std::string& text) {
  std::string escaped;
  escaped.reserve(text.size() + 8);
  for (char c : text) {
    switch (c) {
      case '"':
        escaped += "\\\"";
        break;
      case '\\':
        escaped += "\\\\";
        break;
      case '\n':
        escaped += "\\n";
        break;
      case '\r':
        escaped += "\\r";
        break;
      case '\t':
        escaped += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          escaped += buffer;
        } else {
          escaped += c;
        }
    }
  }
  return escaped;
}

void write_json_file(const std::string& path, const std::string& json) {
  std::ofstream out(path);
  CIMTPU_CONFIG_CHECK(out.good(), "cannot open JSON output file: " << path);
  out << json << "\n";
  out.close();
  CIMTPU_CONFIG_CHECK(!out.fail(), "cannot write JSON output file: " << path);
}

}  // namespace cimtpu::sim
