// Eddy: adaptive tuple routing (§4.2.2, Avnur & Hellerstein [2]).
//
// A set of predicate modules is "wired up" to the eddy, which chooses the
// order to route each tuple through them at run time. The routing policy
// observes per-module pass rates (exponentially decayed) and evaluates the
// most selective module first, with epsilon-greedy exploration so the policy
// keeps adapting when data characteristics shift mid-query — exactly the
// scenario the distributed-eddies bench (E13) exercises. Each PIER node runs
// its own local eddy over the data routed to it; cross-node coordination of
// observations is future work in the paper and is out of scope here too.

#include <algorithm>
#include <numeric>

#include "qp/dataflow.h"

namespace pier {

namespace {

/// eddy[n=<count>, mexpr0..mexprN-1=<preds>, policy=adaptive|fixed]
/// The adaptive policy explores a random order for kEpsilon of the rows and
/// decays each module's pass rate by kDecay per observation.
class EddyOp : public Operator {
 public:
  using Operator::Operator;

  Status Init(ExecContext* cx) override {
    PIER_RETURN_IF_ERROR(Operator::Init(cx));
    int64_t n = spec_.GetInt("n", 0);
    if (n <= 0) return Status::InvalidArgument("eddy needs n modules");
    for (int64_t i = 0; i < n; ++i) {
      PIER_ASSIGN_OR_RETURN(ExprPtr e,
                            spec_.GetExpr("mexpr" + std::to_string(i)));
      modules_.push_back(Module{std::move(e), 0.5, 0, 0});
    }
    adaptive_ = spec_.GetString("policy", "adaptive") == "adaptive";
    return Status::Ok();
  }

  void ProcessBatch(int, uint32_t tag, const TupleBatch& batch) override {
    const size_t n = batch.num_rows();
    std::vector<uint32_t> keep;
    keep.reserve(n);
    std::vector<size_t> order(modules_.size());
    for (size_t r = 0; r < n; ++r) {
      // Pick this row's route. Predicates run against batch rows, so
      // dropped rows never materialize.
      std::iota(order.begin(), order.end(), 0);
      if (adaptive_) {
        if (cx_->vri->rng()->NextDouble() < kEpsilon) {
          // Exploration: random order keeps estimates fresh for all modules.
          for (size_t i = order.size(); i > 1; --i) {
            size_t j = cx_->vri->rng()->Uniform(i);
            std::swap(order[i - 1], order[j]);
          }
        } else {
          std::stable_sort(order.begin(), order.end(),
                           [this](size_t a, size_t b) {
                             return modules_[a].pass_rate <
                                    modules_[b].pass_rate;
                           });
        }
      }
      bool all_pass = true;
      for (size_t idx : order) {
        Module& m = modules_[idx];
        m.seen++;
        evaluations_++;
        Result<bool> keep_row = m.pred->EvalPredicateRow(batch, r);
        bool pass = keep_row.ok() && *keep_row;
        m.pass_rate =
            (1.0 - kDecay) * m.pass_rate + kDecay * (pass ? 1.0 : 0.0);
        if (!pass) {
          all_pass = false;
          break;  // drop: remaining modules never run
        }
        m.passed++;
      }
      if (all_pass) keep.push_back(static_cast<uint32_t>(r));
    }
    if (keep.empty()) return;
    if (keep.size() == n) {
      PushBatch(tag, batch);
    } else {
      PushBatch(tag, batch.Select(keep));
    }
  }

  /// Total predicate evaluations — the work metric the eddy minimizes.
  uint64_t evaluations() const { return evaluations_; }

  int64_t Metric(const std::string& name) const override {
    if (name == "evaluations") return static_cast<int64_t>(evaluations_);
    return -1;
  }

  double module_pass_rate(size_t i) const { return modules_[i].pass_rate; }

 private:
  struct Module {
    ExprPtr pred;
    double pass_rate;  // decayed observation; 0.5 prior
    uint64_t seen;
    uint64_t passed;
  };

  static constexpr double kEpsilon = 0.1;
  static constexpr double kDecay = 0.05;

  std::vector<Module> modules_;
  bool adaptive_ = true;
  uint64_t evaluations_ = 0;
};

}  // namespace

std::unique_ptr<Operator> MakeEddyOperator(const OpSpec& spec) {
  if (spec.kind == OpKind::kEddy) return std::make_unique<EddyOp>(spec);
  return nullptr;
}

}  // namespace pier
