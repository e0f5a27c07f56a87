// The serving study list (serving/studies.h): its shape, the emitter's
// JSON and table rendering of one row, JSON-only values, rows free of
// host-time fields, and run_study against a direct sweep of the same
// points.

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/units.h"
#include "expect_identical_metrics.h"
#include "serving/studies.h"
#include "serving/traffic_profiles.h"

namespace cimtpu::serving {
namespace {

StudyInputs small_inputs() {
  StudyInputs inputs;
  inputs.model = llama7b_baseline_scenario(/*chips=*/1, ir::DType::kInt4).model;
  inputs.stream = zipf_chat_stream(/*seed=*/42, /*num_requests=*/200,
                                   /*arrival_rate=*/20.0);
  inputs.baseline_rates = {20.0};
  inputs.fault_rates = {1.0};
  return inputs;
}

TEST(StudyList, EightStudiesInKindOrderEachValueNamedOnce) {
  const std::vector<ServingStudy> studies = serving_studies(small_inputs());
  ASSERT_EQ(studies.size(), 8u);
  std::set<std::string> names;
  for (std::size_t i = 0; i < studies.size(); ++i) {
    const ServingStudy& study = studies[i];
    SCOPED_TRACE(study.name);
    EXPECT_EQ(static_cast<std::size_t>(study.kind), i);
    EXPECT_TRUE(names.insert(study.name).second);
    EXPECT_FALSE(study.title.empty());
    EXPECT_NE(study.points.empty(), study.sweep.arrival_rates.empty());
    for (const auto* columns : {&study.columns, &study.tenant_columns}) {
      std::set<std::string> keys, headers;
      for (const StudyColumn& column : *columns) {
        EXPECT_TRUE(column.key != nullptr || column.header != nullptr);
        EXPECT_TRUE(static_cast<bool>(column.get));
        if (column.key != nullptr) {
          EXPECT_TRUE(keys.insert(column.key).second) << column.key;
        }
        if (column.header != nullptr) {
          EXPECT_TRUE(headers.insert(column.header).second) << column.header;
        }
      }
    }
  }
  EXPECT_FALSE(
      studies[static_cast<std::size_t>(StudyKind::kFairness)].tenant_columns
          .empty());
}

TEST(StudyEmitter, OneRowRendersAsJsonAndTableCells) {
  const ServingStudy study =
      serving_studies(small_inputs())[static_cast<std::size_t>(
          StudyKind::kPolicies)];
  SweepCellResult cell;
  cell.point = study.points.front();  // preempt_newest, chunk off
  cell.metrics.goodput_tokens_per_second = 193.5;
  cell.metrics.ttft.p99 = 2.5;
  cell.metrics.counters.swap_out_bytes = 1.5 * GiB;
  cell.metrics.counters.chunked_prefill_steps = 7;
  const std::vector<SweepCellResult> cells = {cell};

  std::ostringstream json;
  write_study_json(study, cells, json);
  const std::string row = json.str();
  EXPECT_EQ(row.rfind("  \"policies\": [\n    {\"policy\": \"preempt_newest\", "
                      "\"chunk_tokens\": 0, \"kv_budget_tokens\": 8000, "
                      "\"goodput_tokens_per_s\": 193.5, \"ttft_p99_s\": 2.5",
                      0),
            0u)
      << row;
  EXPECT_NE(row.find("\"swap_bytes\": 1.61061e+09"), std::string::npos) << row;
  EXPECT_NE(row.find("\"chunked_prefill_steps\": 7"), std::string::npos);
  EXPECT_EQ(row.substr(row.size() - 5), "}\n  ]");

  const std::string table = study_table(study, cells).to_string();
  EXPECT_NE(table.find("| preempt_newest | off   | 193.5    | 2.5 s "),
            std::string::npos)
      << table;
  EXPECT_NE(table.find("| 1.50     | 7           |"), std::string::npos)
      << table;
}

TEST(StudyEmitter, JsonOnlyValueStaysOutOfTheTable) {
  // The prefix-cache study reports TPOT p99 as json_only(kTpotP99).
  const ServingStudy study =
      serving_studies(small_inputs())[static_cast<std::size_t>(
          StudyKind::kPrefixCache)];
  SweepCellResult cell;
  cell.point = study.points.front();
  cell.metrics.ttft.p99 = 2.5;
  cell.metrics.tpot.p99 = 0.375;
  const std::vector<SweepCellResult> cells = {cell};

  std::ostringstream json;
  write_study_json(study, cells, json);
  EXPECT_NE(json.str().find("\"tpot_p99_s\": 0.375"), std::string::npos)
      << json.str();

  const std::string table = study_table(study, cells).to_string();
  EXPECT_NE(table.find("TTFT p99"), std::string::npos) << table;
  EXPECT_EQ(table.find("TPOT"), std::string::npos) << table;
  EXPECT_EQ(table.find(format_time(0.375)), std::string::npos) << table;
}

TEST(StudyEmitter, NoStudyRowCarriesAHostField) {
  // Every reported value is simulated: a row of any study, on a cell whose
  // host wall time is set, names no host-time key.
  for (const ServingStudy& study : serving_studies(small_inputs())) {
    SCOPED_TRACE(study.name);
    SweepCellResult cell;
    cell.point = study.points.empty() ? study.sweep.base : study.points[0];
    cell.metrics.total_steps = 1000;
    cell.metrics.sim_wall_seconds = 0.125;
    cell.metrics.tenants.resize(2);
    const std::vector<SweepCellResult> cells = {cell};
    std::ostringstream json;
    write_study_json(study, cells, json);
    const std::string rows = json.str();
    ASSERT_NE(rows.find('{'), std::string::npos) << rows;
    EXPECT_EQ(rows.find("sim_wall_seconds"), std::string::npos) << rows;
    EXPECT_EQ(rows.find("steps_per_second"), std::string::npos) << rows;
    EXPECT_EQ(rows.find("0.125"), std::string::npos) << rows;
  }
}

TEST(StudyRunner, PointStudyMatchesADirectSweep) {
  const ServingStudy study =
      serving_studies(small_inputs())[static_cast<std::size_t>(
          StudyKind::kPrefixCache)];
  SweepOptions options;
  options.threads = 2;
  const std::vector<SweepCellResult> cells = run_study(study, options);
  const std::vector<ServingMetrics> direct = run_sweep(study.points, options);
  ASSERT_EQ(cells.size(), direct.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE(study.points[i].label);
    EXPECT_EQ(cells[i].point.label, study.points[i].label);
    EXPECT_EQ(cells[i].point.requests, nullptr);
    expect_identical_metrics(cells[i].metrics, direct[i]);
  }
  // The rendered table has one "|" line per cell plus the header.
  std::istringstream lines(study_table(study, cells).to_string());
  std::size_t rows = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind('|', 0) == 0) ++rows;
  }
  EXPECT_EQ(rows, cells.size() + 1);
}

}  // namespace
}  // namespace cimtpu::serving
