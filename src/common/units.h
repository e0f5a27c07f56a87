#pragma once
// Physical units used throughout the simulator.
//
// We deliberately use plain `double` with descriptive type aliases rather
// than heavyweight strong types: every quantity in cimtpu carries its unit
// in the name of the variable or accessor (`latency_s`, `energy_j`,
// `bandwidth_bps`), and the formatting helpers below render them for
// reports.  Helper constants make configuration sites readable
// (`16 * MiB`, `614 * GBps`).

#include <cstdint>
#include <string>

namespace cimtpu {

using Cycles = double;   ///< clock cycles (fractional cycles allowed by analytic models)
using Seconds = double;  ///< wall-clock time
using Joules = double;   ///< energy
using Watts = double;    ///< power
using Bytes = double;    ///< data volume (double: analytic models produce averages)
using BytesPerSecond = double;
using Hertz = double;
using SquareMm = double; ///< silicon area

// --- Capacity constants (binary for memories) ------------------------------
inline constexpr double KiB = 1024.0;
inline constexpr double MiB = 1024.0 * KiB;
inline constexpr double GiB = 1024.0 * MiB;

// --- Rate / frequency constants (decimal) -----------------------------------
inline constexpr double GBps = 1e9;
inline constexpr double GHz = 1e9;

// --- Energy constants -------------------------------------------------------
inline constexpr double pJ = 1e-12;

// --- Time constants ---------------------------------------------------------
inline constexpr double us = 1e-6;
inline constexpr double ms = 1e-3;

/// Formats seconds with an auto-selected scale, e.g. "1.234 ms".
std::string format_time(Seconds s);

/// Formats joules with an auto-selected scale, e.g. "42.0 uJ".
std::string format_energy(Joules j);

/// Formats bytes with binary prefixes, e.g. "16.0 MiB".
std::string format_bytes(Bytes b);

/// Formats an op rate, e.g. "123.0 TOPS".
std::string format_ops_rate(double ops_per_second);

/// Formats watts, e.g. "175.0 W" / "3.2 mW".
std::string format_power(Watts w);

/// Formats a plain ratio with 'x' suffix, e.g. "9.43x".
std::string format_ratio(double ratio);

/// Formats a signed percentage delta, e.g. "-29.9%" / "+2.4%".
std::string format_percent_delta(double fraction);

}  // namespace cimtpu
