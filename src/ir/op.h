#pragma once
// Operator intermediate representation.
//
// A workload is an ordered list of `Op`s (see graph.h).  Each op carries the
// shape information the cost models need: GEMM dimensions, operand
// residency, and the reporting group it belongs to (the paper's Fig. 6
// breaks layers down into "QKV Gen", "Attention", "Proj.", "FFN1", "FFN2",
// "LayerNorm", "GeLU" and "Conditioning" bars).

#include <cstdint>
#include <string>

#include "common/units.h"
#include "ir/dtype.h"

namespace cimtpu::ir {

/// Where an operand stream originates/terminates.  Drives the memory-cost
/// model: HBM-resident tensors stream through CMEM and VMEM; CMEM-resident
/// tensors (e.g. the KV cache when it fits) skip the HBM leg.
enum class Residency : std::uint8_t { kHbm, kCmem, kVmem };

std::string residency_name(Residency residency);

/// Operator taxonomy.  Matrix ops run on the MXUs; the rest run on the VPU.
enum class OpKind : std::uint8_t {
  kMatmul,          ///< (batched) GEMM / GEMV
  kSoftmax,         ///< row-wise softmax (online-normalizer algorithm)
  kLayerNorm,       ///< row-wise layer normalization
  kGelu,            ///< elementwise GeLU (tanh approximation)
  kElementwise,     ///< generic elementwise map (add / mul / shift&scale)
  kEmbeddingLookup, ///< gather rows of an embedding table
  kDataMovement,    ///< reshape / transpose / patchify handled by DMA+VPU
};

/// The numbers of one operator: kind, dtype, dimensions and operand
/// residency -- everything the cost models read.  `Op` adds the labels.
///
/// For kMatmul the computation is `instances` independent GEMMs of shape
/// [m, k] x [k, n].  `instances > 1` with `stationary_shared == false`
/// models attention, where every (batch, head) pair multiplies by its own
/// K / V matrix so the stationary operand cannot be amortized across the
/// batch — the key reason decode GEMVs starve a weight-stationary systolic
/// array (paper Sec. IV-B).
struct OpShape {
  OpKind kind = OpKind::kMatmul;
  DType dtype = DType::kInt8;

  // --- kMatmul fields --------------------------------------------------------
  std::int64_t m = 0;          ///< rows of the moving operand
  std::int64_t k = 0;          ///< contraction dimension
  std::int64_t n = 0;          ///< output columns (stationary operand width)
  std::int64_t instances = 1;  ///< independent GEMMs with distinct stationary operands
  bool stationary_shared = true;  ///< stationary operand reused across `m` rows of every instance
  Residency stationary_residency = Residency::kHbm;  ///< weights: HBM; KV cache: CMEM
  Residency moving_residency = Residency::kVmem;
  Residency output_residency = Residency::kVmem;

  // --- Vector-op fields ------------------------------------------------------
  std::int64_t rows = 0;          ///< independent rows (softmax / layernorm)
  std::int64_t cols = 0;          ///< row width
  std::int64_t elems = 0;         ///< total elements (gelu / elementwise / movement)
  double ops_per_element = 1.0;   ///< arithmetic ops per element (elementwise)

  // --- Derived quantities ----------------------------------------------------
  /// Total multiply-accumulate count (matmul ops only).
  double macs() const;
  /// Total arithmetic operations (2 * macs for matmul; per-kind for others).
  double flops() const;
  /// Bytes of the moving operand (activations) read per execution.
  Bytes moving_bytes() const;
  /// Bytes of the stationary operand (weights / K / V) read per execution.
  Bytes stationary_bytes() const;
  /// Bytes written to the output.
  Bytes output_bytes() const;
  /// True when the op executes on a matrix unit.
  bool is_matmul() const { return kind == OpKind::kMatmul; }
};

/// One operator instance: its shape plus the labels reports use.
struct Op : OpShape {
  std::string name;   ///< unique-ish label, e.g. "qkv_proj"
  std::string group;  ///< reporting bar, e.g. "QKV Gen"

  /// Throws ConfigError when required fields for `kind` are missing/invalid.
  void validate() const;
};

// --- OpShape derived quantities (inline: every per-op cost reads them) ------

inline double OpShape::macs() const {
  if (kind != OpKind::kMatmul) return 0.0;
  return static_cast<double>(instances) * static_cast<double>(m) *
         static_cast<double>(k) * static_cast<double>(n);
}

inline double OpShape::flops() const {
  switch (kind) {
    case OpKind::kMatmul:
      return 2.0 * macs();
    case OpKind::kSoftmax:
      // Online normalizer (Milakov & Gimelshein): one fused max+sum pass
      // and one normalize pass.  Each pass evaluates exp() (range-reduced
      // polynomial, ~4 ops) plus compare/accumulate or subtract/divide —
      // ~6 vector ops per element per pass.
      return 12.0 * static_cast<double>(rows) * static_cast<double>(cols);
    case OpKind::kLayerNorm:
      // mean + variance pass (~4 ops/elem) and normalize+affine (~4).
      return 8.0 * static_cast<double>(rows) * static_cast<double>(cols);
    case OpKind::kGelu:
      // tanh-approximated GeLU (as used by DiT): x^3 term, tanh poly,
      // blend — ~12 ops/elem on a vector unit.
      return 12.0 * static_cast<double>(elems);
    case OpKind::kElementwise:
      return ops_per_element * static_cast<double>(elems);
    case OpKind::kEmbeddingLookup:
      return 0.0;  // pure gather
    case OpKind::kDataMovement:
      return 0.0;
  }
  return 0.0;
}

inline Bytes OpShape::moving_bytes() const {
  const double element = dtype_bytes(dtype);
  switch (kind) {
    case OpKind::kMatmul:
      return static_cast<double>(instances) * static_cast<double>(m) *
             static_cast<double>(k) * element;
    case OpKind::kSoftmax:
    case OpKind::kLayerNorm:
      return static_cast<double>(rows) * static_cast<double>(cols) * element;
    case OpKind::kGelu:
    case OpKind::kElementwise:
    case OpKind::kDataMovement:
      return static_cast<double>(elems) * element;
    case OpKind::kEmbeddingLookup:
      return static_cast<double>(rows) * static_cast<double>(cols) * element;
  }
  return 0.0;
}

inline Bytes OpShape::stationary_bytes() const {
  if (kind != OpKind::kMatmul) return 0.0;
  return static_cast<double>(instances) * static_cast<double>(k) *
         static_cast<double>(n) * dtype_bytes(dtype);
}

inline Bytes OpShape::output_bytes() const {
  const double element = dtype_bytes(dtype);
  switch (kind) {
    case OpKind::kMatmul:
      return static_cast<double>(instances) * static_cast<double>(m) *
             static_cast<double>(n) * element;
    case OpKind::kSoftmax:
    case OpKind::kLayerNorm:
      return static_cast<double>(rows) * static_cast<double>(cols) * element;
    case OpKind::kGelu:
    case OpKind::kElementwise:
    case OpKind::kDataMovement:
      return static_cast<double>(elems) * element;
    case OpKind::kEmbeddingLookup:
      return static_cast<double>(rows) * static_cast<double>(cols) * element;
  }
  return 0.0;
}

/// Convenience constructors -------------------------------------------------

/// A standard weight GEMM: [m, k] x [k, n] with HBM-resident weights shared
/// across the batch (QKV projections, FFNs, output projections).
Op make_weight_gemm(std::string name, std::string group, std::int64_t m,
                    std::int64_t k, std::int64_t n, DType dtype);

/// An attention GEMM: `instances` independent [m, k] x [k, n] products whose
/// stationary operands live in the KV cache.
Op make_attention_gemm(std::string name, std::string group,
                       std::int64_t instances, std::int64_t m, std::int64_t k,
                       std::int64_t n, DType dtype, Residency kv_residency);

Op make_softmax(std::string name, std::string group, std::int64_t rows,
                std::int64_t cols, DType dtype);
Op make_layer_norm(std::string name, std::string group, std::int64_t rows,
                   std::int64_t cols, DType dtype);
Op make_gelu(std::string name, std::string group, std::int64_t elems,
             DType dtype);
Op make_elementwise(std::string name, std::string group, std::int64_t elems,
                    double ops_per_element, DType dtype);
Op make_embedding_lookup(std::string name, std::string group,
                         std::int64_t tokens, std::int64_t width, DType dtype);
Op make_data_movement(std::string name, std::string group, std::int64_t elems,
                      DType dtype);

}  // namespace cimtpu::ir
