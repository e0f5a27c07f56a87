// JSON output helper tests: escaping and file writing.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "common/status.h"
#include "sim/trace.h"

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

TEST(TraceTest, WriteJsonFile) {
  const std::string path = testing::TempDir() + "/cimtpu_trace_test.json";
  write_json_file(path, "{\"x\":1}");
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "{\"x\":1}");
  std::remove(path.c_str());
}

TEST(TraceTest, WriteJsonFileBadPathThrows) {
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
