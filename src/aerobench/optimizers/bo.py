"""Gaussian-process Bayesian optimization with a log expected-improvement
acquisition.

An exact GP with an isotropic Matern-5/2 kernel models standardized rewards
on the unit cube. The `n_initial` random designs go out as one batch (an
error row is replaced in the next). Hyperparameters (length scale, signal
variance, noise) are fit by gradient ascent on the marginal likelihood,
accepting only improving steps; a start ends when an accepted step improves
the likelihood by a relative FIT_FTOL or less. Until a fit succeeds, each
fit is cold: it starts from a default theta and `fit_starts - 1` random
ones. After that each fit is warm, one start from the theta of the last
successful fit. A fit is due only once the data has grown by a tenth (at
least one row) since the last one; the rounds in between keep theta and
only factor the covariance of the new data at it, with no likelihood
evaluation (Rasmussen & Williams 2006, Alg. 2.1). A failed fit or
factorization proposes a random row and makes the next round refit. The
model works on the Cholesky factor of the covariance: the data's pairwise
distances are computed once per model, alpha = K^-1 y comes from two
triangular solves, and the gradient's K^-1 from LAPACK potri, with no
generic solve and no identity matrix. The acquisition, log EI, is computed
in the stable form of Ament et al. (NeurIPS 2023), so it stays finite and
ordered far below the incumbent instead of sitting on a floor. It is
maximized over a Sobol candidate set plus a handful of local refinements.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs
from scipy.special import erfcx, ndtr
from scipy.stats import qmc

from ..space import ParamSpace
from .base import Proposals, Warm, check_at_least

JITTER_START = 1e-8
JITTER_MAX = 1e-4
SQRT5 = np.sqrt(5.0)

# `fit_starts` counts the starts of a cold fit: the default theta plus
# `fit_starts - 1` random ones. Once a fit has succeeded, each later fit is
# warm, a single start from the last fitted theta.
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
DEFAULT_THETA = np.log(np.array([0.5, 1.0, 1e-3]))  # the cold fit's first start
DEFAULT_THETA.flags.writeable = False

# A start of the fit ends at an accepted step whose relative reduction of the
# negative log likelihood is at most FIT_FTOL (L-BFGS-B's `ftol` rule).
FIT_FTOL = 1e-5
# A refit is due once the data has grown by n_fit // REFIT_DIVISOR rows, and
# at least one, since the last successful fit at n_fit rows; in between, the
# model is refactored at the kept theta.
REFIT_DIVISOR = 10


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

    def __init__(self, x: np.ndarray, y: np.ndarray, warn, theta: np.ndarray | None = None):
        self.x = x
        self.y_mean = float(np.mean(y))
        self.y_std = float(np.std(y))
        if self.y_std < 1e-12:
            self.y_std = 1.0
        self.y = (y - self.y_mean) / self.y_std
        self.warn = warn
        # A given theta (the last successful fit's) makes a fit warm: one start there.
        self._warm = theta is not None
        self.theta = DEFAULT_THETA if theta is None else theta
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
        # self.theta is the first start, so its likelihood is evaluated there;
        # np.clip leaves it unchanged because it lies inside the bounds. A warm
        # fit draws no random starts.
        best_theta, best_val = self.theta, np.inf
        starts = [self.theta]
        if not self._warm:
            starts += [
                np.array(
                    [
                        rng.uniform(np.log(0.05), np.log(2.0)),
                        rng.uniform(np.log(0.1), np.log(4.0)),
                        rng.uniform(np.log(1e-6), np.log(1e-2)),
                    ]
                )
                for _ in range(opts["fit_starts"] - 1)
            ]
        for theta in starts:
            theta = np.clip(theta.copy(), THETA_LO, THETA_HI)
            val, grad = self._neg_mll_and_grad(theta)
            if not np.isfinite(val):
                continue
            lr = opts["fit_lr"]
            for _ in range(opts["fit_steps"]):
                if grad is None or not np.all(np.isfinite(grad)):
                    break
                cand = np.clip(theta - lr * grad, THETA_LO, THETA_HI)
                cand_val, cand_grad = self._neg_mll_and_grad(cand)
                # Accept only improving steps; otherwise shrink the step. A
                # start ends at an accepted step that no longer pays.
                if cand_val < val:
                    stalled = val - cand_val <= FIT_FTOL * max(abs(val), abs(cand_val), 1.0)
                    theta, val, grad = cand, cand_val, cand_grad
                    if stalled:
                        break
                else:
                    lr *= 0.5
                    if lr < 1e-4:
                        break
            if val < best_val:
                best_theta, best_val = theta, val
        self.theta = best_theta
        self.factor()

    def factor(self) -> None:
        """Factor the covariance at self.theta and solve for alpha, for prediction."""
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


_SQRT_2PI = np.sqrt(2.0 * np.pi)
_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)
_LOG_SQRT_PI_2 = 0.5 * np.log(0.5 * np.pi)
# Below this z, log h(z) is its asymptote -z^2/2 - log(2 pi)/2 - 2 log|z|. In
# the erfcx form, 1 - |z| erfcx(-z/sqrt2) sqrt(pi/2) ~ 1/z^2 carries a relative
# rounding error of about eps z^2, and the asymptote one of about 3/z^2; the
# two are equal at |z| = (3/eps)^(1/4) ~ 1.1e4, where they agree to 1e-8. At
# the paper's -1/sqrt(eps) the erfcx form has lost every digit of that term
# and rounds to log(0) or NaN just above it.
_Z_ASYMPTOTE = -((3.0 / np.finfo(float).eps) ** 0.25)


def _log1mexp(x: np.ndarray) -> np.ndarray:
    """log(1 - exp(x)) for x < 0, accurate near 0 and far below it."""
    out = np.empty_like(x)
    near = x > -np.log(2.0)
    out[near] = np.log(-np.expm1(x[near]))
    out[~near] = np.log1p(-np.exp(x[~near]))
    return out


def _log_h(z: np.ndarray) -> np.ndarray:
    """log(phi(z) + z Phi(z)), the log EI of a unit-variance posterior."""
    out = np.empty_like(z)
    upper = z > -1.0
    tail = z <= _Z_ASYMPTOTE
    mid = ~upper & ~tail
    zu, zm, zt = z[upper], z[mid], z[tail]
    # phi and Phi as scipy's norm.pdf and norm.cdf compute them, bit for bit,
    # without the rv_continuous dispatch that costs ten times the arithmetic.
    out[upper] = np.log(np.exp(-zu**2 / 2.0) / _SQRT_2PI + zu * ndtr(zu))
    # phi(z) + z Phi(z) = phi(z) (1 - |z| erfcx(-z/sqrt2) sqrt(pi/2)) for z < 0.
    out[mid] = -0.5 * zm**2 - _LOG_SQRT_2PI + _log1mexp(
        np.log(erfcx(-zm / np.sqrt(2.0)) * np.abs(zm)) + _LOG_SQRT_PI_2
    )
    out[tail] = -0.5 * zt**2 - _LOG_SQRT_2PI - 2.0 * np.log(np.abs(zt))
    return out


def log_expected_improvement(
    mu: np.ndarray, sigma: np.ndarray, best: float
) -> np.ndarray:
    """log EI = log h(z) + log sigma, finite however far below best mu lies
    (Ament et al., "Unexpected Improvements to Expected Improvement", 2023)."""
    return _log_h((mu - best) / sigma) + np.log(sigma)


def check(opts: dict, space: ParamSpace) -> None:
    check_at_least(opts, n_initial=2, n_candidates=1, n_refine=1)


def run(dim: int, rng: np.random.Generator, opts: dict, warm: Warm, budget: int, warn) -> Proposals:
    xs: list[np.ndarray] = []
    ys: list[float] = []

    def observe(u: np.ndarray, reward: float) -> None:
        if reward > -np.inf:
            xs.append(u)
            ys.append(reward)

    for u, reward in warm:
        observe(u, reward)
    # The missing initial rows go out as one batch; an error row is not
    # observed, so its replacement comes in the next.
    while len(xs) < opts["n_initial"]:
        rows = rng.random((opts["n_initial"] - len(xs), dim))
        for u, reward in zip(rows, (yield 0, rows)):
            observe(u, float(reward))

    step = 0
    # The last successful fit's theta, kept between refits; None means cold.
    # A fit is due when the data count reaches `next_fit`, and at once after
    # a failed fit or factorization.
    theta, next_fit = None, 0
    while True:
        step += 1
        n = len(xs)
        gp = _GP(np.array(xs), np.array(ys), warn, theta)
        try:
            if n >= next_fit:
                gp.fit(rng, opts)
                theta, next_fit = gp.theta, n + max(1, n // REFIT_DIVISOR)
            else:
                gp.factor()
        except FloatingPointError:
            # Fall back to random search once the model is unusable.
            next_fit = 0
            u = rng.random(dim)
            observe(u, float((yield step, u[None])[0]))
            continue
        best = float((max(ys) - gp.y_mean) / gp.y_std)
        sobol = qmc.Sobol(d=dim, scramble=True, seed=int(rng.integers(2**31)))
        cand = sobol.random(opts["n_candidates"])
        mu, sigma = gp.posterior(cand)
        lei = log_expected_improvement(mu, sigma, best)
        order = np.argsort(-lei)
        # Local refinement: three perturbations of each top Sobol candidate,
        # drawn as one batch (the same values as one draw per trial).
        pool = cand[order[: opts["n_refine"]]]
        noise = rng.normal(0.0, 0.05, size=(3 * len(pool), dim))
        refined = np.clip(np.repeat(pool, 3, axis=0) + noise, 0.0, 1.0)
        all_cand = np.concatenate([pool, refined])
        mu2, sigma2 = gp.posterior(all_cand)
        lei2 = log_expected_improvement(mu2, sigma2, best)
        u = all_cand[int(np.argmax(lei2))]
        observe(u, float((yield step, u[None])[0]))
