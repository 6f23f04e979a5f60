// Loss functions for the latency prediction model (paper §3.4).
//
// The paper combines three "tricks": percentage error (accuracy in the
// low-latency region, where SLOs live), a Hüber shape (robustness to
// extreme 99%-tile samples), and asymmetry (under-estimating latency is
// worse than over-estimating, because an under-estimate hides SLO
// violations). See DESIGN.md §3.2 for the Eq. 4 continuity correction and
// the θ_L/θ_R orientation note.
#pragma once

#include "nn/autodiff.h"
#include "nn/tensor.h"

namespace graf::nn {

/// Mean squared error against a constant target (same shape as pred).
Var mse_loss(Var pred, const Tensor& target);

/// Percentage error (pred - target) / max(target, eps), as a tape op chain.
/// `target` lives on pred's tape (a training loss stages its labels there);
/// the reciprocal is staged beside it, so a rewound tape reuses both.
Var percentage_error(Var pred, Var target, double eps = 1e-9);

/// The paper's loss (Eq. 4 with the continuous linear branch): mean
/// asymmetric Hüber of the percentage error. `theta_under` bounds the
/// quadratic region on the under-estimation side (pred < target) and sets
/// its linear slope 2*theta_under; `theta_over` likewise for the
/// over-estimation side. Choosing theta_under > theta_over penalizes
/// under-estimation more, yielding the paper's slight systematic
/// over-estimate (Table 2).
Var asym_huber_pct_loss(Var pred, Var target, double theta_under, double theta_over);

/// Pointwise asymmetric Hüber value (continuous Eq. 4), the scalar
/// reference the tape op is tested against.
double asym_huber_value(double x, double theta_neg, double theta_pos);

}  // namespace graf::nn
