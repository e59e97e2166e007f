"""Kernel specs and the two-sample MMD estimators.

Compares the unbiased U-statistic, the biased V-statistic, and the
linear-time paired estimator on gaussian samples with a known mean shift,
then evaluates the witness function that attains the biased MMD.
"""

import numpy as np

from fairmmd import (
    eval_kernel,
    gamma_biased,
    kernel_sum,
    laplacian,
    linear,
    median_heuristic,
    mmd2_biased,
    mmd2_linear_time,
    mmd2_unbiased,
    product,
    rbf,
    witness_eval,
)

rng = np.random.default_rng(3)
A = rng.normal(0.0, 1.0, size=(600, 2))
B = rng.normal(0.0, 1.0, size=(600, 2)) + np.array([0.8, 0.0])

# --- kernel constructors ------------------------------------------------
k = rbf(sigma=1.0)
print(f"rbf(1.0):        amplitude nu = {k.nu}, lipschitz = {k.lipschitz:.6f}")
kl = laplacian(sigma=2.0)
print(f"laplacian(2.0):  amplitude nu = {kl.nu}, lipschitz = {kl.lipschitz:.6f}")
kd = linear(radius=3.0)
print(f"linear(R=3):     amplitude nu = {kd.nu}, lipschitz = {kd.lipschitz:.6f}")
kp = product(rbf(0.5), rbf(1.0), split=1)
ks = kernel_sum(linear(2.0), rbf(1.0))
print(f"product:         nu = {kp.nu};  sum: nu = {ks.nu}")
print(f"k(x, x) for rbf is always {eval_kernel(k, A[0], A[0]):.1f}")

sigma = median_heuristic(np.vstack([A, B]))
print(f"median-heuristic bandwidth on the pooled sample: {sigma:.4f}")

# --- three estimators of the same quantity ------------------------------
u = mmd2_unbiased(k, A, B)
v = mmd2_biased(k, A, B)
print(f"unbiased  mmd2 = {u.mmd2:.6f}  (clipped root: mmd = {u.mmd:.6f})")
print(f"biased    mmd2 = {v.mmd2:.6f}  (>= unbiased, always)")
assert v.mmd2 >= u.mmd2

# The linear-time estimator is noisy for a single pairing; averaging over
# pairings recovers the quadratic answer.
singles = [mmd2_linear_time(k, A, B, seed=s).mmd2 for s in range(200)]
print(f"linear-time mean over 200 pairings = {np.mean(singles):.6f}")

# On two samples from the SAME law the unbiased estimate straddles zero.
C = rng.normal(0.0, 1.0, size=(600, 2))
D = rng.normal(0.0, 1.0, size=(600, 2))
null = mmd2_unbiased(k, C, D)
print(f"null unbiased mmd2 = {null.mmd2:+.6f} (negative values are expected; "
      f"mmd field clipped: {null.clipped})")

# --- witness function ----------------------------------------------------
# The witness (mu_A - mu_B) / gamma satisfies mean_A(f) - mean_B(f) = gamma.
gamma = gamma_biased(k, A, B)
wA = np.mean(witness_eval(k, A, B, A))
wB = np.mean(witness_eval(k, A, B, B))
print(f"gamma_biased = {gamma:.6f}; witness gap = {wA - wB:.6f}")
assert abs((wA - wB) - gamma) < 1e-10
