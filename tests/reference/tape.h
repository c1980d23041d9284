// Copyright 2026 The LearnRisk Authors
// Tape-based reverse-mode automatic differentiation over scalars. This is the
// in-repo substitute for the TensorFlow dependency of the paper's Sec. 6.2.3:
// the risk-model trainer records the pairwise rank loss on a tape and
// back-propagates exact gradients to the feature weights and variances.
//
// Usage:
//   Tape tape;
//   Var w = tape.Variable(0.3);
//   Var loss = Log(1.0 + Exp(-w));
//   tape.Backward(loss);
//   double g = tape.Gradient(w);
//
// Nodes are recorded in topological order by construction, so the backward
// pass is a single reverse sweep. Gradients through the normal quantile use
// d Phi^{-1}(u) / du = 1 / phi(Phi^{-1}(u)); Clamp/Min/Max use the standard
// sub-gradient conventions.

#ifndef LEARNRISK_REFERENCE_TAPE_H_
#define LEARNRISK_REFERENCE_TAPE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace learnrisk {

class Tape;

/// \brief Handle to a scalar node on a Tape. Cheap to copy; valid until the
/// owning tape is cleared or destroyed.
class Var {
 public:
  Var() : tape_(nullptr), index_(-1) {}

  double value() const;
  Tape* tape() const { return tape_; }
  int32_t index() const { return index_; }
  bool valid() const { return tape_ != nullptr; }

 private:
  friend class Tape;
  Var(Tape* tape, int32_t index) : tape_(tape), index_(index) {}

  Tape* tape_;
  int32_t index_;
};

/// \brief Records scalar operations and computes gradients in reverse.
class Tape {
 public:
  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  /// \brief A differentiable leaf.
  Var Variable(double value);

  /// \brief A constant leaf (gradient is tracked but typically unused).
  Var Constant(double value) { return Variable(value); }

  /// \brief Records a unary op: result value plus d(result)/d(input).
  Var Unary(double value, Var input, double grad_input);

  /// \brief Records a binary op with both partial derivatives.
  Var Binary(double value, Var a, double grad_a, Var b, double grad_b);

  /// \brief Runs the reverse sweep from `output` (seed gradient 1.0).
  ///
  /// Contract: Backward is self-zeroing — it resets the gradients of every
  /// node up to and including `output` before seeding, so repeated calls
  /// (e.g. one per training epoch on a rewound tape) never accumulate stale
  /// gradients. The sweep is restricted to the output's live subrange
  /// [0, output.index()]; nodes recorded after `output` are untouched.
  void Backward(Var output);

  /// \brief d(output)/d(v) after Backward().
  double Gradient(Var v) const { return nodes_[v.index()].grad; }

  /// \brief Resets all gradients to zero, keeping the recorded graph.
  void ZeroGrad();

  /// \brief Discards all nodes (start of a new iteration).
  void Clear();

  /// \brief Pre-allocates arena capacity for `n` nodes so epoch-sized graphs
  /// record without reallocation.
  void Reserve(size_t n) { nodes_.reserve(n); }

  /// \brief Marks the current tape length for a later Rewind(). Typical use:
  /// record the parameter leaves once, checkpoint, then per epoch rewind and
  /// re-record only the loss subgraph.
  size_t Checkpoint() const { return nodes_.size(); }

  /// \brief Truncates the tape back to a Checkpoint() mark. Handles created
  /// at indices below the mark stay valid; later ones are invalidated. The
  /// arena capacity is retained, so re-recording allocates nothing.
  void Rewind(size_t mark);

  /// \brief Overwrites the value of a leaf (a node with no parents), e.g. to
  /// refresh parameter values on a rewound tape. Interior nodes cannot be
  /// rewritten: their cached partials would go stale.
  void SetValue(Var v, double value);

  size_t size() const { return nodes_.size(); }
  double ValueAt(int32_t index) const { return nodes_[index].value; }

 private:
  struct Node {
    double value = 0.0;
    double grad = 0.0;
    int32_t parent[2] = {-1, -1};
    double pgrad[2] = {0.0, 0.0};
  };
  std::vector<Node> nodes_;
};

// --- Arithmetic -------------------------------------------------------------

Var operator+(Var a, Var b);
Var operator+(Var a, double b);
Var operator+(double a, Var b);
Var operator-(Var a, Var b);
Var operator-(Var a, double b);
Var operator-(double a, Var b);
Var operator-(Var a);
Var operator*(Var a, Var b);
Var operator*(Var a, double b);
Var operator*(double a, Var b);
Var operator/(Var a, Var b);
Var operator/(Var a, double b);
Var operator/(double a, Var b);

// --- Elementary functions ----------------------------------------------------

/// \brief exp(a).
Var Exp(Var a);
/// \brief Natural log; input is floored at 1e-300 to avoid -inf.
Var Log(Var a);
/// \brief sqrt(a) for a >= 0.
Var Sqrt(Var a);
/// \brief a^p for constant p.
Var Pow(Var a, double p);
/// \brief Square a*a (single node).
Var Square(Var a);
/// \brief |a| with subgradient 0 at 0.
Var Abs(Var a);
/// \brief Numerically-stable logistic function.
Var SigmoidV(Var a);
/// \brief Numerically-stable softplus log(1+exp(a)).
Var SoftplusV(Var a);
/// \brief tanh(a).
Var Tanh(Var a);

// --- Piecewise ---------------------------------------------------------------

/// \brief max(a, b) with gradient flowing to the larger input (ties -> a).
Var Max(Var a, Var b);
/// \brief min(a, b) with gradient flowing to the smaller input (ties -> a).
Var Min(Var a, Var b);
/// \brief Clamps into [lo, hi]; gradient 1 strictly inside, 0 outside.
Var ClampV(Var a, double lo, double hi);

// --- Gaussian ----------------------------------------------------------------

/// \brief Standard normal CDF Phi(a).
Var NormalCdfV(Var a);
/// \brief Standard normal quantile Phi^{-1}(u); u is clamped into
/// [1e-12, 1-1e-12] with pass-through gradient at the clamp.
Var NormalQuantileV(Var u);

}  // namespace learnrisk

#endif  // LEARNRISK_REFERENCE_TAPE_H_
