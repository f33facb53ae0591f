"""Standard errors for the demand slope: delta method vs delete-1 jackknife.

The estimator is a smooth function of the raw moments of degree 1-3, so its
variance follows from the moment covariance and a numerical Jacobian; the
jackknife re-runs the entire pipeline (orientation and labeling included)
once per deleted observation, in one vectorized pass.
"""

import numpy as np

import cumident as ci

cfg = ci.CompositeDgpConfig(n=5_000, k=0.5, seed=42)
x = ci.gen_composite(cfg, rep=0).x
probes = ci.ProbeVectors.draw(2, seed=42)

est = ci.estimate_demixing(x, probes)
labeled = ci.label_by_signs(est, ci.SUPPLY_DEMAND_PATTERN)
b1 = labeled.lambda_final[0, 1]
print(f"point estimate of the demand slope b1: {b1:.4f} (truth {ci.B1_TRUE})")

# --- delta method -----------------------------------------------------------
delta = ci.delta_variance_labeled(x, probes, ci.SUPPLY_DEMAND_PATTERN,
                                  entry=(0, 1))
se_delta = float(np.sqrt(delta.sigma_u[0, 0] / cfg.n))
lo, hi = ci.confidence_interval(b1, float(delta.sigma_u[0, 0]), cfg.n, 0.95)
print(f"delta method: se = {se_delta:.4f}, 95% CI [{lo:.4f}, {hi:.4f}]")

# --- jackknife --------------------------------------------------------------
jk = ci.demixing_jackknife(x, probes, pattern=ci.SUPPLY_DEMAND_PATTERN,
                           entry=(0, 1))
se_jk = float(np.sqrt(jk.variance[0, 0]))
jlo, jhi = ci.jackknife_confidence_interval(b1, float(jk.variance[0, 0]), 0.95)
print(f"jackknife:    se = {se_jk:.4f}, 95% CI [{jlo:.4f}, {jhi:.4f}]")
print(f"labeling flipped on {jk.label_flips} of {cfg.n} resamples; "
      f"{jk.gap_count} hit the eigen-gap safeguard")

# --- whole-matrix standard errors -------------------------------------------
full = ci.delta_variance(x, probes)
se_matrix = np.sqrt(np.diag(full.sigma_u) / cfg.n).reshape(2, 2)
print("\nper-entry standard errors of the oriented unit rows:")
print(se_matrix)
