#include "sim/trace.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/status.h"

namespace cimtpu::sim {
namespace {

std::string number(double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%.12g", value);
  return buffer;
}

void append_field(std::ostringstream& out, bool& first, const char* key,
                  const std::string& value, bool quoted) {
  if (!first) out << ",";
  first = false;
  out << "\"" << key << "\":";
  if (quoted) {
    out << "\"" << json_escape(value) << "\"";
  } else {
    out << value;
  }
}

}  // namespace

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

std::string to_json(const OpResult& op) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  append_field(out, first, "name", op.name, true);
  append_field(out, first, "group", op.group, true);
  append_field(out, first, "on_mxu", op.on_mxu ? "true" : "false", false);
  append_field(out, first, "mapping", op.mapping_strategy, true);
  append_field(out, first, "units_used", number(op.units_used), false);
  append_field(out, first, "latency_s", number(op.latency), false);
  append_field(out, first, "compute_s", number(op.compute_time), false);
  append_field(out, first, "memory_s", number(op.memory_time), false);
  append_field(out, first, "useful_macs", number(op.useful_macs), false);
  append_field(out, first, "utilization", number(op.utilization), false);
  append_field(out, first, "mxu_energy_j", number(op.mxu_energy()), false);
  append_field(out, first, "vpu_energy_j", number(op.vpu_energy), false);
  append_field(out, first, "memory_energy_j", number(op.memory_energy),
               false);
  out << "}";
  return out.str();
}

std::string to_json(const GraphResult& result, bool include_ops) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  append_field(out, first, "name", result.name, true);
  append_field(out, first, "latency_s", number(result.latency), false);
  append_field(out, first, "mxu_busy_s", number(result.mxu_busy_time), false);
  append_field(out, first, "mxu_energy_j", number(result.mxu_energy()), false);
  append_field(out, first, "total_energy_j", number(result.total_energy()),
               false);
  append_field(out, first, "mxu_power_w", number(result.mxu_power()), false);
  append_field(out, first, "useful_macs", number(result.useful_macs), false);

  out << ",\"groups\":{";
  bool first_group = true;
  for (const auto& [name, group] : result.groups) {
    if (!first_group) out << ",";
    first_group = false;
    out << "\"" << json_escape(name) << "\":{\"latency_s\":"
        << number(group.latency)
        << ",\"mxu_energy_j\":" << number(group.mxu_energy)
        << ",\"total_energy_j\":" << number(group.total_energy) << "}";
  }
  out << "}";

  if (include_ops) {
    out << ",\"ops\":[";
    for (std::size_t i = 0; i < result.ops.size(); ++i) {
      if (i != 0) out << ",";
      out << to_json(result.ops[i]);
    }
    out << "]";
  }
  out << "}";
  return out.str();
}

void write_json_file(const std::string& path, const std::string& json) {
  std::ofstream out(path);
  CIMTPU_CONFIG_CHECK(out.good(), "cannot open JSON output file: " << path);
  out << json << "\n";
  out.close();
  CIMTPU_CONFIG_CHECK(!out.fail(), "cannot write JSON output file: " << path);
}

}  // namespace cimtpu::sim
