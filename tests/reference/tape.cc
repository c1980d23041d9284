// Copyright 2026 The LearnRisk Authors

#include "reference/tape.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/math_util.h"

namespace learnrisk {

double Var::value() const { return tape_->ValueAt(index_); }

Var Tape::Variable(double value) {
  Node node;
  node.value = value;
  nodes_.push_back(node);
  return Var(this, static_cast<int32_t>(nodes_.size()) - 1);
}

Var Tape::Unary(double value, Var input, double grad_input) {
  assert(input.tape() == this);
  Node node;
  node.value = value;
  node.parent[0] = input.index();
  node.pgrad[0] = grad_input;
  nodes_.push_back(node);
  return Var(this, static_cast<int32_t>(nodes_.size()) - 1);
}

Var Tape::Binary(double value, Var a, double grad_a, Var b, double grad_b) {
  assert(a.tape() == this && b.tape() == this);
  Node node;
  node.value = value;
  node.parent[0] = a.index();
  node.pgrad[0] = grad_a;
  node.parent[1] = b.index();
  node.pgrad[1] = grad_b;
  nodes_.push_back(node);
  return Var(this, static_cast<int32_t>(nodes_.size()) - 1);
}

void Tape::Backward(Var output) {
  assert(output.tape() == this);
  // Self-zeroing: reset the live subrange so back-to-back Backward calls on
  // a rewound tape cannot accumulate gradients from a previous epoch.
  for (int32_t i = 0; i <= output.index(); ++i) nodes_[i].grad = 0.0;
  nodes_[output.index()].grad = 1.0;
  for (int32_t i = output.index(); i >= 0; --i) {
    const Node& node = nodes_[i];
    if (node.grad == 0.0) continue;
    for (int k = 0; k < 2; ++k) {
      if (node.parent[k] >= 0) {
        nodes_[node.parent[k]].grad += node.grad * node.pgrad[k];
      }
    }
  }
}

void Tape::ZeroGrad() {
  for (Node& node : nodes_) node.grad = 0.0;
}

void Tape::Clear() { nodes_.clear(); }

void Tape::Rewind(size_t mark) {
  assert(mark <= nodes_.size());
  nodes_.resize(mark);
}

void Tape::SetValue(Var v, double value) {
  assert(v.tape() == this);
  assert(nodes_[v.index()].parent[0] < 0 && nodes_[v.index()].parent[1] < 0);
  nodes_[v.index()].value = value;
}

// --- Arithmetic -------------------------------------------------------------

Var operator+(Var a, Var b) {
  return a.tape()->Binary(a.value() + b.value(), a, 1.0, b, 1.0);
}
Var operator+(Var a, double b) {
  return a.tape()->Unary(a.value() + b, a, 1.0);
}
Var operator+(double a, Var b) { return b + a; }

Var operator-(Var a, Var b) {
  return a.tape()->Binary(a.value() - b.value(), a, 1.0, b, -1.0);
}
Var operator-(Var a, double b) {
  return a.tape()->Unary(a.value() - b, a, 1.0);
}
Var operator-(double a, Var b) {
  return b.tape()->Unary(a - b.value(), b, -1.0);
}
Var operator-(Var a) { return a.tape()->Unary(-a.value(), a, -1.0); }

Var operator*(Var a, Var b) {
  return a.tape()->Binary(a.value() * b.value(), a, b.value(), b, a.value());
}
Var operator*(Var a, double b) {
  return a.tape()->Unary(a.value() * b, a, b);
}
Var operator*(double a, Var b) { return b * a; }

// Division guard (SafeDenominator, shared via math_util.h): like Log's input
// floor, the denominator magnitude is clamped to 1e-300 (sign preserved) so
// a degenerate divisor yields a huge but finite quotient instead of a
// NaN/inf that would poison the whole backward pass.
Var operator/(Var a, Var b) {
  const double bv = SafeDenominator(b.value());
  const double v = a.value() / bv;
  // d(a/b)/db written as -(a/b)/b: avoids squaring bv, which would underflow
  // to zero (and produce 0/0 = NaN) for subnormal denominators.
  return a.tape()->Binary(v, a, 1.0 / bv, b, -v / bv);
}
Var operator/(Var a, double b) { return a * (1.0 / b); }
Var operator/(double a, Var b) {
  const double bv = SafeDenominator(b.value());
  const double v = a / bv;
  return b.tape()->Unary(v, b, -v / bv);
}

// --- Elementary functions ----------------------------------------------------

Var Exp(Var a) {
  const double v = std::exp(a.value());
  return a.tape()->Unary(v, a, v);
}

Var Log(Var a) {
  const double x = std::max(a.value(), 1e-300);
  return a.tape()->Unary(std::log(x), a, 1.0 / x);
}

Var Sqrt(Var a) {
  const double v = std::sqrt(std::max(a.value(), 0.0));
  const double g = v > 0.0 ? 0.5 / v : 0.0;
  return a.tape()->Unary(v, a, g);
}

Var Pow(Var a, double p) {
  const double x = a.value();
  const double v = std::pow(x, p);
  const double g = x != 0.0 ? p * v / x : 0.0;
  return a.tape()->Unary(v, a, g);
}

Var Square(Var a) {
  const double x = a.value();
  return a.tape()->Unary(x * x, a, 2.0 * x);
}

Var Abs(Var a) {
  const double x = a.value();
  const double g = x > 0.0 ? 1.0 : (x < 0.0 ? -1.0 : 0.0);
  return a.tape()->Unary(std::fabs(x), a, g);
}

Var SigmoidV(Var a) {
  const double s = Sigmoid(a.value());
  return a.tape()->Unary(s, a, s * (1.0 - s));
}

Var SoftplusV(Var a) {
  return a.tape()->Unary(Softplus(a.value()), a, Sigmoid(a.value()));
}

Var Tanh(Var a) {
  const double t = std::tanh(a.value());
  return a.tape()->Unary(t, a, 1.0 - t * t);
}

// --- Piecewise ---------------------------------------------------------------

Var Max(Var a, Var b) {
  const bool pick_a = a.value() >= b.value();
  return a.tape()->Binary(pick_a ? a.value() : b.value(), a,
                          pick_a ? 1.0 : 0.0, b, pick_a ? 0.0 : 1.0);
}

Var Min(Var a, Var b) {
  const bool pick_a = a.value() <= b.value();
  return a.tape()->Binary(pick_a ? a.value() : b.value(), a,
                          pick_a ? 1.0 : 0.0, b, pick_a ? 0.0 : 1.0);
}

Var ClampV(Var a, double lo, double hi) {
  const double x = a.value();
  const double v = Clamp(x, lo, hi);
  const double g = (x > lo && x < hi) ? 1.0 : 0.0;
  return a.tape()->Unary(v, a, g);
}

// --- Gaussian ----------------------------------------------------------------

Var NormalCdfV(Var a) {
  return a.tape()->Unary(NormalCdf(a.value()), a, NormalPdf(a.value()));
}

Var NormalQuantileV(Var u) {
  constexpr double kEps = 1e-12;
  const double x = u.value();
  const double clamped = Clamp(x, kEps, 1.0 - kEps);
  const double q = NormalQuantile(clamped);
  // dq/du = 1 / phi(q); bounded because u was clamped away from {0, 1}.
  const double g = 1.0 / std::max(NormalPdf(q), 1e-300);
  return u.tape()->Unary(q, u, g);
}

}  // namespace learnrisk
