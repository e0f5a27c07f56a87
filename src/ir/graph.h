#pragma once
// Workload graphs: ordered operator lists with reporting structure.
//
// The simulator executes ops sequentially (TPU layers are dependency
// chains); parallelism inside an op is the MXU/VPU's job, and overlap of
// compute with memory is handled by the per-op double-buffering model.

#include <string>
#include <vector>

#include "ir/op.h"

namespace cimtpu::ir {

/// An ordered operator list representing one logical unit of work (a
/// Transformer layer, a DiT block, a prediction head...).
class Graph {
 public:
  Graph() = default;
  explicit Graph(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Appends an op (validated) and returns its index.
  std::size_t add(Op op);

  const std::vector<Op>& ops() const { return ops_; }
  std::size_t size() const { return ops_.size(); }

 private:
  std::string name_;
  std::vector<Op> ops_;
};

}  // namespace cimtpu::ir
