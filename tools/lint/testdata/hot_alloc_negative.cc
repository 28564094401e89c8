// Fixture: batch-friendly shapes that must lint clean — stack-value row
// accessors in the loop, allocations hoisted out of the loop, allocations in
// loops outside any ProcessBatch body, and ProcessBatch declarations/calls
// (no body of their own). (Fixtures are linted, never compiled.)

#include "data/tuple_batch.h"
#include "qp/dataflow.h"

namespace pier {

// The vectorized idiom: by-value row accessors, zero heap traffic per row.
class StackRowOp : public Operator {
 public:
  void ProcessBatch(int port, uint32_t tag, const TupleBatch& batch) override {
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      Tuple t = batch.RowTuple(r);
      Push(tag, t);
    }
  }
};

// One allocation per batch, hoisted out of the loop, is the amortized shape.
class HoistedOp : public Operator {
 public:
  void ProcessBatch(int port, uint32_t tag, const TupleBatch& batch) override {
    auto scratch = std::make_shared<Tuple>();
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      scratch->Clear();
      Push(tag, *scratch);
    }
  }
};

// A declaration and a delegating call: neither owns a body with a loop.
class ForwarderOp : public Operator {
 public:
  void ProcessBatch(int port, uint32_t tag, const TupleBatch& batch) override;
  void Flush() {
    for (const TupleBatch& b : parked_) {
      ProcessBatch(0, 0, b);
    }
  }

 private:
  std::vector<TupleBatch> parked_;
};

// A deliberate, argued-for site stays expressible via suppression.
class SuppressedOp : public Operator {
 public:
  void ProcessBatch(int port, uint32_t tag, const TupleBatch& batch) override {
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      // Retained past this call by the downstream sink, so it must own.
      auto t = std::make_shared<Tuple>(batch.RowTuple(r));  // pier-lint: allow(hot-alloc)
      Sink(t);
    }
  }
};

}  // namespace pier
