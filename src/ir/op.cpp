#include "ir/op.h"

namespace cimtpu::ir {

std::string residency_name(Residency residency) {
  switch (residency) {
    case Residency::kHbm:
      return "HBM";
    case Residency::kCmem:
      return "CMEM";
    case Residency::kVmem:
      return "VMEM";
  }
  return "?";
}

void Op::validate() const {
  CIMTPU_CONFIG_CHECK(!name.empty(), "op has empty name");
  switch (kind) {
    case OpKind::kMatmul:
      CIMTPU_CONFIG_CHECK(m > 0 && k > 0 && n > 0 && instances > 0,
                          "matmul '" << name << "' has non-positive dims: m="
                                     << m << " k=" << k << " n=" << n
                                     << " instances=" << instances);
      break;
    case OpKind::kSoftmax:
    case OpKind::kLayerNorm:
      CIMTPU_CONFIG_CHECK(rows > 0 && cols > 0,
                          "row-op '" << name << "' has non-positive dims");
      break;
    case OpKind::kGelu:
    case OpKind::kElementwise:
    case OpKind::kDataMovement:
      CIMTPU_CONFIG_CHECK(elems > 0,
                          "elementwise op '" << name << "' has no elements");
      break;
    case OpKind::kEmbeddingLookup:
      CIMTPU_CONFIG_CHECK(rows > 0 && cols > 0,
                          "embedding '" << name << "' has non-positive dims");
      break;
  }
}

Op make_weight_gemm(std::string name, std::string group, std::int64_t m,
                    std::int64_t k, std::int64_t n, DType dtype) {
  Op op;
  op.kind = OpKind::kMatmul;
  op.name = std::move(name);
  op.group = std::move(group);
  op.dtype = dtype;
  op.m = m;
  op.k = k;
  op.n = n;
  op.instances = 1;
  op.stationary_shared = true;
  op.stationary_residency = Residency::kHbm;
  op.validate();
  return op;
}

Op make_attention_gemm(std::string name, std::string group,
                       std::int64_t instances, std::int64_t m, std::int64_t k,
                       std::int64_t n, DType dtype, Residency kv_residency) {
  Op op;
  op.kind = OpKind::kMatmul;
  op.name = std::move(name);
  op.group = std::move(group);
  op.dtype = dtype;
  op.m = m;
  op.k = k;
  op.n = n;
  op.instances = instances;
  op.stationary_shared = false;
  op.stationary_residency = kv_residency;
  op.validate();
  return op;
}

Op make_softmax(std::string name, std::string group, std::int64_t rows,
                std::int64_t cols, DType dtype) {
  Op op;
  op.kind = OpKind::kSoftmax;
  op.name = std::move(name);
  op.group = std::move(group);
  op.dtype = dtype;
  op.rows = rows;
  op.cols = cols;
  op.validate();
  return op;
}

Op make_layer_norm(std::string name, std::string group, std::int64_t rows,
                   std::int64_t cols, DType dtype) {
  Op op;
  op.kind = OpKind::kLayerNorm;
  op.name = std::move(name);
  op.group = std::move(group);
  op.dtype = dtype;
  op.rows = rows;
  op.cols = cols;
  op.validate();
  return op;
}

Op make_gelu(std::string name, std::string group, std::int64_t elems,
             DType dtype) {
  Op op;
  op.kind = OpKind::kGelu;
  op.name = std::move(name);
  op.group = std::move(group);
  op.dtype = dtype;
  op.elems = elems;
  op.validate();
  return op;
}

Op make_elementwise(std::string name, std::string group, std::int64_t elems,
                    double ops_per_element, DType dtype) {
  Op op;
  op.kind = OpKind::kElementwise;
  op.name = std::move(name);
  op.group = std::move(group);
  op.dtype = dtype;
  op.elems = elems;
  op.ops_per_element = ops_per_element;
  op.validate();
  return op;
}

Op make_embedding_lookup(std::string name, std::string group,
                         std::int64_t tokens, std::int64_t width, DType dtype) {
  Op op;
  op.kind = OpKind::kEmbeddingLookup;
  op.name = std::move(name);
  op.group = std::move(group);
  op.dtype = dtype;
  op.rows = tokens;
  op.cols = width;
  op.validate();
  return op;
}

Op make_data_movement(std::string name, std::string group, std::int64_t elems,
                      DType dtype) {
  Op op;
  op.kind = OpKind::kDataMovement;
  op.name = std::move(name);
  op.group = std::move(group);
  op.dtype = dtype;
  op.elems = elems;
  op.validate();
  return op;
}

}  // namespace cimtpu::ir
