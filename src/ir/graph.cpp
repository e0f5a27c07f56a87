#include "ir/graph.h"

namespace cimtpu::ir {

std::size_t Graph::add(Op op) {
  op.validate();
  ops_.push_back(std::move(op));
  return ops_.size() - 1;
}

}  // namespace cimtpu::ir
