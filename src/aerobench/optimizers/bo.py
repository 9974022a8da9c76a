"""Gaussian-process Bayesian optimization with a log expected-improvement
acquisition.

An exact GP with an isotropic Matern-5/2 kernel models standardized rewards
on the unit cube. Hyperparameters (length scale, signal variance, noise)
are refit each round by multi-start gradient ascent on the marginal
likelihood, accepting only improving steps. The fit works on the Cholesky
factor of the covariance: the data's pairwise distances are computed once
per model, alpha = K^-1 y comes from two triangular solves, and the
gradient's K^-1 from LAPACK potri, with no generic solve and no identity
matrix. The acquisition is maximized over a Sobol candidate set plus a
handful of local refinements.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs
from scipy.stats import norm, qmc

from ..space import ParamSpace
from .base import ConfigurationError, Proposals, Warm

JITTER_START = 1e-8
JITTER_MAX = 1e-4
SQRT5 = np.sqrt(5.0)

DEFAULTS = {
    "n_initial": 30,
    "n_candidates": 256,
    "n_refine": 10,
    "fit_starts": 4,
    "fit_steps": 40,
    "fit_lr": 0.1,
}


# Bounds on the log hyperparameters (length scale, signal var, noise var)
# keep the fit away from degenerate kernels.
THETA_LO = np.log(np.array([1e-3, 1e-4, 1e-8]))
THETA_HI = np.log(np.array([1e2, 1e3, 1.0]))


def _matern52(r5: np.ndarray, length: float, signal_var: float):
    """Matern-5/2 kernel on sqrt(5)-scaled distances, with a and exp(-a) for gradients."""
    a = r5 / length
    exp_a = np.exp(-a)
    return signal_var * (1.0 + a + a**2 / 3.0) * exp_a, a, exp_a


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.maximum(
        np.sum(a**2, axis=1)[:, None]
        + np.sum(b**2, axis=1)[None, :]
        - 2.0 * a @ b.T,
        0.0,
    )


def _scaled_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return SQRT5 * np.sqrt(_sq_dists(a, b))


def _chol(kern: np.ndarray, noise: float, warn) -> np.ndarray | None:
    """Lower Cholesky factor of kern + (noise + jitter) I, the jitter escalating
    from JITTER_START; None when it never succeeds."""
    n = len(kern)
    diag = kern.diagonal() + noise
    k_mat = kern.copy()
    jitter = JITTER_START
    while jitter <= JITTER_MAX:
        k_mat.flat[:: n + 1] = diag + jitter
        chol, info = dpotrf(k_mat, lower=1)
        # potrf reports no failure on NaN input; a non-finite pivot catches it.
        if info == 0 and np.isfinite(chol.trace()):
            return chol
        jitter *= 2.0
    warn(
        f"GP covariance not positive definite even with jitter {JITTER_MAX}; "
        f"condition diagnostics: diag range [{diag.min():.3e}, "
        f"{diag.max():.3e}], n={n}"
    )
    return None


class _GP:
    """Exact GP on standardized targets with Matern-5/2 kernel."""

    def __init__(self, x: np.ndarray, y: np.ndarray, warn):
        self.x = x
        self.y_mean = float(np.mean(y))
        self.y_std = float(np.std(y))
        if self.y_std < 1e-12:
            self.y_std = 1.0
        self.y = (y - self.y_mean) / self.y_std
        self.warn = warn
        self.theta = np.log(np.array([0.5, 1.0, 1e-3]))  # (length, sf2, sn2)
        # Every likelihood evaluation reuses the distances between the data.
        self._r5 = _scaled_dists(x, x)
        self._chol_cache = None
        self._alpha = None

    def _neg_mll_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray | None]:
        length, sf2, sn2 = np.exp(theta)
        kern, a, exp_a = _matern52(self._r5, length, sf2)
        chol = _chol(kern, sn2, lambda _msg: None)
        if chol is None:
            return np.inf, None
        # LAPACK potrs directly: scipy's cho_solve wrapper costs more than the solve.
        alpha = dpotrs(chol, self.y, lower=1)[0]
        n = len(self.y)
        nll = float(
            0.5 * self.y @ alpha
            + np.sum(np.log(chol.diagonal()))
            + 0.5 * n * np.log(2.0 * np.pi)
        )
        # d(neg mll)/dtheta_j = 0.5 tr((K^-1 - alpha alpha^T) dK/dtheta_j)
        #                     = 0.5 (sum(K^-1 * dK) - alpha^T dK alpha).
        # potri writes the lower triangle of K^-1 over L; the upper keeps L's zeros.
        k_inv = dpotri(chol, lower=1)[0]
        k_inv = k_inv + k_inv.T
        k_inv.flat[:: n + 1] *= 0.5
        dk_len = sf2 * (a**2 * (1.0 + a) / 3.0) * exp_a
        grad = 0.5 * np.array(
            [
                np.vdot(k_inv, dk_len) - alpha @ dk_len @ alpha,
                np.vdot(k_inv, kern) - alpha @ kern @ alpha,
                sn2 * (np.trace(k_inv) - alpha @ alpha),
            ]
        )
        return nll, grad

    def fit(self, rng: np.random.Generator, opts: dict) -> None:
        # The default theta is the first start, so its likelihood is evaluated
        # there; np.clip leaves it unchanged because it lies inside the bounds.
        best_theta, best_val = self.theta, np.inf
        starts = [self.theta] + [
            np.array(
                [
                    rng.uniform(np.log(0.05), np.log(2.0)),
                    rng.uniform(np.log(0.1), np.log(4.0)),
                    rng.uniform(np.log(1e-6), np.log(1e-2)),
                ]
            )
            for _ in range(int(opts["fit_starts"]) - 1)
        ]
        for theta in starts:
            theta = np.clip(theta.copy(), THETA_LO, THETA_HI)
            val, grad = self._neg_mll_and_grad(theta)
            if not np.isfinite(val):
                continue
            lr = float(opts["fit_lr"])
            for _ in range(int(opts["fit_steps"])):
                if grad is None or not np.all(np.isfinite(grad)):
                    break
                cand = np.clip(theta - lr * grad, THETA_LO, THETA_HI)
                cand_val, cand_grad = self._neg_mll_and_grad(cand)
                # Accept only improving steps; otherwise shrink the step.
                if cand_val < val:
                    theta, val, grad = cand, cand_val, cand_grad
                else:
                    lr *= 0.5
                    if lr < 1e-4:
                        break
            if val < best_val:
                best_theta, best_val = theta, val
        self.theta = best_theta
        length, sf2, sn2 = np.exp(self.theta)
        chol = _chol(_matern52(self._r5, length, sf2)[0], sn2, self.warn)
        if chol is None:
            raise FloatingPointError("GP covariance factorization failed")
        self._chol_cache = chol
        self._alpha = dpotrs(chol, self.y, lower=1)[0]

    def posterior(self, x_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        length, sf2, _ = np.exp(self.theta)
        k_star = _matern52(_scaled_dists(x_new, self.x), length, sf2)[0]
        mu = k_star @ self._alpha
        v = solve_triangular(self._chol_cache, k_star.T, lower=True, check_finite=False)
        var = np.maximum(sf2 - np.sum(v**2, axis=0), 1e-12)
        return mu, np.sqrt(var)


def log_expected_improvement(
    mu: np.ndarray, sigma: np.ndarray, best: float
) -> np.ndarray:
    z = (mu - best) / sigma
    ei = (mu - best) * norm.cdf(z) + sigma * norm.pdf(z)
    return np.log(np.maximum(ei, 1e-300))


def run(
    space: ParamSpace, rng: np.random.Generator, opts: dict, warm: Warm, budget: int, warn
) -> Proposals:
    n_initial = int(opts["n_initial"])
    n_candidates = int(opts["n_candidates"])
    n_refine = int(opts["n_refine"])
    if n_initial < 2:
        raise ConfigurationError("n_initial must be >= 2")
    dim = space.relaxed_dim

    xs: list[np.ndarray] = []
    ys: list[float] = []

    def observe(u: np.ndarray, reward: float) -> None:
        if reward > -np.inf:
            xs.append(np.clip(u, 0.0, 1.0))
            ys.append(reward)

    for u, reward in warm:
        observe(u, reward)
    while len(xs) < n_initial:
        u = rng.random(dim)
        observe(u, float((yield 0, u[None])[0]))

    step = 0
    while True:
        step += 1
        gp = _GP(np.array(xs), np.array(ys), warn)
        try:
            gp.fit(rng, opts)
        except FloatingPointError:
            # Fall back to random search once the model is unusable.
            u = rng.random(dim)
            observe(u, float((yield step, u[None])[0]))
            continue
        best = float((max(ys) - gp.y_mean) / gp.y_std)
        sobol = qmc.Sobol(d=dim, scramble=True, seed=int(rng.integers(2**31)))
        cand = sobol.random(n_candidates)
        mu, sigma = gp.posterior(cand)
        lei = log_expected_improvement(mu, sigma, best)
        order = np.argsort(-lei)
        # Local refinement around the top Sobol candidates.
        pool = [cand[i] for i in order[:n_refine]]
        refined = []
        for base in pool:
            for _ in range(3):
                trial = np.clip(base + rng.normal(0.0, 0.05, size=dim), 0.0, 1.0)
                refined.append(trial)
        all_cand = np.array(pool + refined)
        mu2, sigma2 = gp.posterior(all_cand)
        lei2 = log_expected_improvement(mu2, sigma2, best)
        u = all_cand[int(np.argmax(lei2))]
        observe(u, float((yield step, u[None])[0]))
