#include "qp/dataflow.h"

namespace pier {

void Operator::Open() {
  if (opened_) return;
  opened_ = true;
  for (Operator* c : children_) c->Open();
  OnOpen();
}

void Operator::PushBatch(uint32_t tag, const TupleBatch& batch) {
  const uint64_t n = batch.num_rows();
  if (n == 0) return;
  stats_.emitted += n;
  if (cost_ != nullptr) cost_->tuples_out += n;
  if (outputs_.size() == 1) {
    Operator* out = outputs_[0].first;
    if (out->cost_ != nullptr) out->cost_->tuples_in += n;
    out->ProcessBatch(outputs_[0].second, tag, batch);
    return;
  }
  for (auto& [op, port] : outputs_) {
    if (op->cost_ != nullptr) op->cost_->tuples_in += n;
    op->ProcessBatch(port, tag, batch);  // shares cells: Tee semantics
  }
}

}  // namespace pier
