#pragma once
// Calibration constants, all referenced to the TSMC 22 nm node.
//
// Provenance:
//  * The paper's Table II publishes post-P&R results for a Gemmini-generated
//    128x128 digital systolic MXU and for the 16x8 CIM-MXU at TSMC 22 nm:
//        digital MXU : 0.77 TOPS/W, 0.648 TOPS/mm^2
//        CIM-MXU     : 7.26 TOPS/W, 1.31  TOPS/mm^2
//    (both delivering 16384 MACs/cycle).  We adopt a 1 GHz reference clock
//    at 22 nm, giving a 32.768 TOPS peak from which per-MAC energy and area
//    are backed out.
//  * SRAM/DRAM access energies follow the survey values used by LLMCompass
//    (Zhang et al., ISCA'24) and Timeloop/Accelergy component libraries.
//  * The remaining micro-architecture activity factors (bubble activity,
//    idle-clock activity, weight-load energy, CIM idle gating) are free
//    parameters of the model; they are tuned so that the end-to-end
//    simulator reproduces the paper's system-level ratios (Fig. 6 / Fig. 7)
//    and the tuning is documented in EXPERIMENTS.md.

#include <cstdint>

#include "common/units.h"

namespace cimtpu::tech::cal {

// --- Reference operating point ---------------------------------------------
inline constexpr Hertz kReferenceClock = 1.0 * GHz;  // 22 nm comparison clock
inline constexpr double kOpsPerMac = 2.0;            // 1 MAC = mul + add

// --- Table II anchors (22 nm, INT8) -----------------------------------------
inline constexpr double kDigitalMxuTopsPerWatt = 0.77;
inline constexpr double kCimMxuTopsPerWatt = 7.26;
inline constexpr double kDigitalMxuTopsPerMm2 = 0.648;
inline constexpr double kCimMxuTopsPerMm2 = 1.31;

/// Energy of one INT8 MAC in the digital systolic array, including local
/// operand registers and clocking at full utilization: 2 / 0.77e12 J.
inline constexpr Joules kDigitalMacEnergyInt8 =
    kOpsPerMac / (kDigitalMxuTopsPerWatt * 1e12);

/// Energy of one INT8 MAC inside a digital CIM macro (bit-serial read +
/// adder tree + shift-accumulate), at full utilization: 2 / 7.26e12 J.
inline constexpr Joules kCimMacEnergyInt8 =
    kOpsPerMac / (kCimMxuTopsPerWatt * 1e12);

/// BF16 energy multiplier vs INT8 for both designs.  The CIM FP path adds
/// exponent-align pre-processing and shift/round post-processing (paper
/// Sec. III-B, refs [9],[20]); the digital MAC grows a BF16 multiplier.
inline constexpr double kDigitalBf16EnergyFactor = 2.2;
inline constexpr double kCimBf16EnergyFactor = 1.9;

// --- Micro-architecture activity factors (tuned, see EXPERIMENTS.md) --------
/// Fraction of an active-MAC's energy burned by an *idle* PE slot during a
/// busy cycle of the digital systolic array (pipeline registers and the
/// clock tree toggle regardless of operand validity).
inline constexpr double kDigitalBubbleActivity = 0.55;

/// Fraction of the digital array's peak dynamic power burned while the MXU
/// is architecturally idle (waiting on memory).  The systolic array's clock
/// spine and input skew registers are not gated in TPUv4i-class designs.
inline constexpr double kDigitalIdleActivity = 0.60;

/// Fraction of the CIM-MXU's peak dynamic power burned while idle.  CIM
/// banks are read-gated, but input drivers, PSUM buffers, adder trees and
/// control keep toggling.
inline constexpr double kCimIdleActivity = 0.50;

/// Fraction of an active CIM bank's energy burned by an idle bank during a
/// busy cycle (banks whose sub-array is not selected are read-gated).
inline constexpr double kCimBubbleActivity = 0.05;

/// Energy to advance one weight byte by one hop during systolic weight
/// loading (register write + wire).
inline constexpr Joules kDigitalWeightHopEnergy = 0.020 * pJ;
/// Average number of register hops a weight traverses when loaded through
/// the 128-row array (half the column height).
inline constexpr double kDigitalWeightLoadHops = 64.0;

/// Energy to write one weight byte into a CIM macro's SRAM bitcells via the
/// dedicated weight I/O (row-parallel SRAM write, no register hops).
inline constexpr Joules kCimWeightWriteEnergy = 0.25 * pJ;

// --- Leakage (22 nm) ---------------------------------------------------------
/// Leakage power density of synthesized logic at 22 nm.
inline constexpr Watts kLogicLeakagePerMm2 = 0.020;
/// Leakage power density of the (mostly SRAM) CIM macro area at 22 nm.
/// SRAM leaks less per area than random logic.
inline constexpr Watts kCimLeakagePerMm2 = 0.008;

// --- On-chip memory access energies (22 nm, per byte) ------------------------
inline constexpr Joules kVmemEnergyPerByte = 0.80 * pJ;   // 16 MiB scratchpad
inline constexpr Joules kCmemEnergyPerByte = 1.60 * pJ;   // 128 MiB L2-like
inline constexpr Joules kHbmEnergyPerByte = 32.0 * pJ;    // ~4 pJ/bit HBM2
inline constexpr Joules kIciEnergyPerByte = 10.0 * pJ;    // SerDes link

// --- SRAM density (22 nm) ----------------------------------------------------
/// Macro-level SRAM density including periphery; ~0.55 mm^2 per MiB at 22 nm.
inline constexpr SquareMm kSramAreaPerMiB = 0.55;

// --- Vector processing unit --------------------------------------------------
/// Energy per scalar FP/INT vector-lane operation (ALU + operand collect).
inline constexpr Joules kVpuEnergyPerOp = 1.50 * pJ;
/// Area of one VPU lane (FPU + register slice) at 22 nm.
inline constexpr SquareMm kVpuAreaPerLane = 0.012;

// --- Systolic array micro-parameters ----------------------------------------
/// Weight-load rate into the digital array: one PE row per cycle
/// (cols bytes/cycle for INT8).  Loads are NOT overlapped with compute
/// (SCALE-Sim weight-stationary behaviour; the paper contrasts this with
/// the CIM macro's dedicated weight port).
inline constexpr double kSystolicWeightRowsPerCycle = 1.0;

// --- CIM-MXU micro-parameters ------------------------------------------------
/// Per-core weight I/O width (Fig. 4: "Weight I/O 256b") in bytes/cycle.
inline constexpr double kCimWeightIoBytesPerCycle = 32.0;

/// Relative compute-cycle overhead of the CIM-MXU on matrix work: wave
/// propagation across the core grid plus bit-serial pipeline re-alignment
/// between input vectors.  This is what makes the CIM-MXU marginally slower
/// than the digital MXU on large compute-bound GEMMs (paper Fig. 6:
/// +2.43% prefill latency).
inline constexpr double kCimComputeOverheadFraction = 0.045;

/// MACs per cycle delivered by one CIM core (paper Sec. III-B: "128 MAC
/// operations are performed each cycle within each CIM core").
inline constexpr double kCimCoreMacsPerCycle = 128.0;

/// Output columns per CIM bank (Fig. 4: 32 banks x 8 columns = 256).  Banks
/// with no live output are read-gated, so N-padding is bank-granular.
inline constexpr std::int64_t kCimBankColumns = 8;

}  // namespace cimtpu::tech::cal
