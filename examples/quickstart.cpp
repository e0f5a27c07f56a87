// Quickstart: build a baseline TPUv4i chip and the paper's CIM-based TPU,
// run one GPT3-30B Transformer layer through both (prefill and decode), and
// print the latency / MXU-energy comparison — the experiment at the heart
// of the paper's Fig. 6.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/quickstart

#include <cstdio>

#include "arch/chip.h"
#include "arch/report.h"
#include "arch/tpu_config.h"
#include "common/table.h"
#include "common/units.h"
#include "sim/workload_runner.h"

using namespace cimtpu;

namespace {

void report_stage(const char* stage, const sim::GraphResult& baseline,
                  const sim::GraphResult& cim) {
  std::printf("  %-12s latency %9s -> %9s (%s)   MXU energy %9s -> %9s (%s)\n",
              stage, format_time(baseline.latency).c_str(),
              format_time(cim.latency).c_str(),
              format_percent_delta(cim.latency / baseline.latency - 1.0).c_str(),
              format_energy(baseline.mxu_energy()).c_str(),
              format_energy(cim.mxu_energy()).c_str(),
              format_ratio(baseline.mxu_energy() / cim.mxu_energy()).c_str());
}

}  // namespace

int main() {
  // 1. Configure the two chips (Table I).
  arch::TpuChip baseline(arch::tpu_v4i_baseline());
  arch::TpuChip cim_chip(arch::cim_tpu_default());
  sim::Simulator baseline_sim(baseline);
  sim::Simulator cim_sim(cim_chip);

  std::printf("chips: %s (%.1f TOPS) vs %s (%.1f TOPS)\n",
              baseline.config().name.c_str(),
              baseline.peak_ops_per_second() / 1e12,
              cim_chip.config().name.c_str(),
              cim_chip.peak_ops_per_second() / 1e12);
  std::printf("MXU area: %.1f mm^2 vs %.1f mm^2\n",
              baseline.mxu().area() * baseline.mxu_count(),
              cim_chip.mxu().area() * cim_chip.mxu_count());
  std::printf("\n%s", arch::chip_comparison(baseline, cim_chip).c_str());

  // 2. One GPT3-30B Transformer layer, batch 8 (paper Sec. IV-B).
  const models::TransformerConfig gpt3 = models::gpt3_30b();
  const std::int64_t batch = 8;

  // Prefill: 1024-token prompt.
  const auto prefill_base =
      sim::run_prefill_layer(baseline_sim, gpt3, batch, 1024);
  const auto prefill_cim = sim::run_prefill_layer(cim_sim, gpt3, batch, 1024);
  // Decode: the 256th output token (KV = 1024 + 256).
  const auto decode_base =
      sim::run_decode_layer(baseline_sim, gpt3, batch, 1024 + 256);
  const auto decode_cim =
      sim::run_decode_layer(cim_sim, gpt3, batch, 1024 + 256);

  std::printf("\nGPT3-30B single layer, batch 8, INT8:\n");
  report_stage("prefill", prefill_base, prefill_cim);
  report_stage("decode", decode_base, decode_cim);

  // 3. One DiT-XL/2 block at 512x512.
  const models::TransformerConfig dit = models::dit_xl_2();
  const auto geometry = models::dit_geometry_512();
  const auto dit_base = sim::run_dit_block(baseline_sim, dit, geometry, batch);
  const auto dit_cim = sim::run_dit_block(cim_sim, dit, geometry, batch);
  std::printf("\nDiT-XL/2 single block, 512x512, batch 8:\n");
  report_stage("dit-block", dit_base, dit_cim);

  // 4. Per-group latency breakdown (the Fig. 6 bars).
  auto print_groups = [](const char* title, const sim::GraphResult& a,
                         const sim::GraphResult& b) {
    std::printf("\n%s (baseline -> cim):\n", title);
    for (const auto& [group, summary] : a.groups) {
      const auto it = b.groups.find(group);
      std::printf("  %-14s %9s (%5.1f%%) -> %9s\n", group.c_str(),
                  format_time(summary.latency).c_str(),
                  100.0 * summary.latency / a.latency,
                  it == b.groups.end()
                      ? "-"
                      : format_time(it->second.latency).c_str());
    }
  };
  print_groups("decode breakdown", decode_base, decode_cim);
  print_groups("dit breakdown", dit_base, dit_cim);
  return 0;
}
