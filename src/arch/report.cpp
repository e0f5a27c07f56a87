#include "arch/report.h"

#include <sstream>

#include "common/table.h"
#include "common/units.h"

namespace cimtpu::arch {

std::string chip_comparison(const TpuChip& baseline,
                            const TpuChip& candidate) {
  const ir::DType dtype = ir::DType::kInt8;
  std::ostringstream out;
  out << "chip comparison: " << baseline.config().name << " -> "
      << candidate.config().name << "\n";
  out << "  peak:      " << format_ops_rate(baseline.peak_ops_per_second())
      << " -> " << format_ops_rate(candidate.peak_ops_per_second()) << " ("
      << format_ratio(candidate.peak_ops_per_second() /
                      baseline.peak_ops_per_second())
      << ")\n";
  out << "  mxu area:  " << cell_f(baseline.area_report().mxus, 1)
      << " mm2 -> " << cell_f(candidate.area_report().mxus, 1) << " mm2 ("
      << format_ratio(baseline.area_report().mxus /
                      candidate.area_report().mxus)
      << " smaller)\n";
  const Watts base_peak =
      baseline.mxu().peak_dynamic_power(dtype) * baseline.mxu_count();
  const Watts cand_peak =
      candidate.mxu().peak_dynamic_power(dtype) * candidate.mxu_count();
  out << "  mxu power: " << format_power(base_peak) << " -> "
      << format_power(cand_peak) << " ("
      << format_ratio(base_peak / cand_peak) << " lower at peak)\n";
  return out.str();
}

}  // namespace cimtpu::arch
