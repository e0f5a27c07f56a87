#pragma once
// The serving studies that bench_serving and serving_traffic both report,
// each described once: a canonical grid from traffic_profiles.h plus the
// one list of values its rows report.  A value carries its JSON key, its
// table header and cell format, and its getter, so both binaries print
// the same table for the same grid and bench_serving writes the same
// values as BENCH_serving.json rows.

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <variant>
#include <vector>

#include "common/table.h"
#include "serving/sweep.h"

namespace cimtpu::serving {

/// One reported value.  JSON writes numbers with default ostream
/// formatting, labels quoted and flags as true/false.
using StudyValue = std::variant<std::int64_t, double, std::string, bool>;

/// How a table cell renders a value.
enum class CellFormat {
  kText,  ///< a label as itself, a flag as on/off
  kInt,
  kFixed1,
  kFixed2,
  kFixed3,
  kFixed4,
  kTime,
  kEnergy,
  kPercent,    ///< fraction shown as "84.1%"
  kGiB,        ///< bytes shown in GiB, 2 decimals
  kOffIfZero,  ///< integer, 0 shown as "off"
};

/// What a getter reads: one grid cell and, in per-tenant rows, one of its
/// tenants (nullptr for cell-level values).
struct StudyRow {
  const SweepCellResult& cell;
  const TenantMetrics* tenant = nullptr;
};

/// One reported value: its JSON key (nullptr: table only), its table
/// header (nullptr: JSON only), its cell format and its getter.
struct StudyColumn {
  const char* key = nullptr;
  const char* header = nullptr;
  CellFormat format = CellFormat::kText;
  std::function<StudyValue(const StudyRow&)> get;
};

/// The studies, in the order serving_studies lists them.
enum class StudyKind {
  kBaseline,        ///< arrival rate x chips
  kPolicies,        ///< eviction policy x chunked prefill, KV pressure
  kFairness,        ///< FIFO vs WFQ admission, per-tenant rows
  kPrefixCache,     ///< paged-KV prefix caching off/on, block 16/64
  kSloFrontier,     ///< arrival rate x FIFO/EDF admission with deadlines
  kFaultStorm,      ///< fault rate x recovery off/on
  kClusterRouter,   ///< router policies over one cluster
  kDisaggregation,  ///< arrival rate x colocated/disaggregated cluster
};

struct ServingStudy {
  StudyKind kind = StudyKind::kBaseline;
  std::string name;   ///< short id, also the trace label when traced
  std::string title;  ///< table title
  /// BENCH_serving.json text around the rows: the block's key, its
  /// metadata and the rows array's opening, then the closers.
  std::string json_open;
  std::string json_close;

  /// The grid: a point list replaying `*requests`, or, when `points` is
  /// empty, `sweep`.
  std::vector<SweepPoint> points;
  std::shared_ptr<const std::vector<Request>> requests;
  ServingSweep sweep;

  std::vector<StudyColumn> columns;
  /// Non-empty: each cell reports one row per tenant with these values
  /// after `columns` (JSON nests them as "per_tenant").
  std::vector<StudyColumn> tenant_columns;
};

/// What the two binaries choose: the model, the baseline traffic (its
/// seed seeds every study; its size, process and rate shape the policy
/// study's trace), the baseline's arrival rates and the fault-storm
/// rate scales.
struct StudyInputs {
  models::TransformerConfig model;
  RequestStreamConfig stream;
  std::vector<double> baseline_rates;
  std::vector<double> fault_rates;
};

/// All eight studies, in StudyKind order.
std::vector<ServingStudy> serving_studies(const StudyInputs& inputs);

/// Runs a study's grid; cells come back in grid order.  Cells of a point
/// list keep arrival_rate 0: no reported value of those studies reads it.
std::vector<SweepCellResult> run_study(const ServingStudy& study,
                                       const SweepOptions& options);

/// The study's ASCII table: one row per cell (per tenant for per-tenant
/// studies, with a separator between cells).
AsciiTable study_table(const ServingStudy& study,
                       const std::vector<SweepCellResult>& cells);

/// Writes the study's BENCH_serving.json block: json_open, one row per
/// cell, json_close (no trailing separator).
void write_study_json(const ServingStudy& study,
                      const std::vector<SweepCellResult>& cells,
                      std::ostream& out);

}  // namespace cimtpu::serving
