// JSON trace-export tests: escaping, structural validity, and value
// round-trips.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "common/status.h"
#include "sim/trace.h"
#include "sim/workload_runner.h"

namespace cimtpu::sim {
namespace {

TEST(JsonEscapeTest, PassesPlainText) {
  EXPECT_EQ(json_escape("qkv_proj"), "qkv_proj");
}

TEST(JsonEscapeTest, EscapesSpecials) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

class TraceTest : public ::testing::Test {
 protected:
  TraceTest() : chip_(arch::tpu_v4i_baseline()), simulator_(chip_) {}
  arch::TpuChip chip_;
  Simulator simulator_;
};

TEST_F(TraceTest, OpJsonContainsKeyFields) {
  const OpResult op = simulator_.run_op(
      ir::make_weight_gemm("qkv", "QKV Gen", 8, 128, 128, ir::DType::kInt8));
  const std::string json = to_json(op);
  EXPECT_NE(json.find("\"name\":\"qkv\""), std::string::npos);
  EXPECT_NE(json.find("\"group\":\"QKV Gen\""), std::string::npos);
  EXPECT_NE(json.find("\"on_mxu\":true"), std::string::npos);
  EXPECT_NE(json.find("\"latency_s\":"), std::string::npos);
  EXPECT_NE(json.find("\"useful_macs\":131072"), std::string::npos);
}

TEST_F(TraceTest, GraphJsonStructurallyBalanced) {
  const GraphResult result = simulator_.run(models::build_decode_layer(
      models::gpt3_30b(), 8, 1280, ir::Residency::kCmem));
  const std::string json = to_json(result);
  // Balanced braces/brackets; no trailing commas before closers.
  int braces = 0, brackets = 0;
  bool in_string = false;
  char prev = 0;
  for (char c : json) {
    if (c == '"' && prev != '\\') in_string = !in_string;
    if (!in_string) {
      if (c == '{') ++braces;
      if (c == '}') --braces;
      if (c == '[') ++brackets;
      if (c == ']') --brackets;
      if (c == '}' || c == ']') {
        EXPECT_NE(prev, ',');
      }
    }
    prev = c;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
  EXPECT_NE(json.find("\"groups\":{"), std::string::npos);
  EXPECT_NE(json.find("\"ops\":["), std::string::npos);
}

TEST_F(TraceTest, OpsOptional) {
  const GraphResult result = simulator_.run(models::build_decode_layer(
      models::gpt3_30b(), 8, 1280, ir::Residency::kCmem));
  const std::string without = to_json(result, /*include_ops=*/false);
  EXPECT_EQ(without.find("\"ops\""), std::string::npos);
  EXPECT_NE(without.find("\"groups\""), std::string::npos);
}

TEST_F(TraceTest, WriteJsonFile) {
  const std::string path = testing::TempDir() + "/cimtpu_trace_test.json";
  write_json_file(path, "{\"x\":1}");
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "{\"x\":1}");
  std::remove(path.c_str());
}

TEST_F(TraceTest, WriteJsonFileBadPathThrows) {
  EXPECT_THROW(write_json_file("/no/such/dir/x.json", "{}"), ConfigError);
  // /dev/full opens but fails every write: a lost write throws too, and
  // the message names the path.
  try {
    write_json_file("/dev/full", std::string(100 * 1024, ' '));
    ADD_FAILURE() << "writing to /dev/full did not throw";
  } catch (const ConfigError& error) {
    EXPECT_NE(std::string(error.what()).find("/dev/full"), std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace cimtpu::sim
