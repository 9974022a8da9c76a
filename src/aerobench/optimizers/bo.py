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

Each round's candidate set is a fresh scrambled Sobol sequence, the points
scipy's `Sobol(d, scramble=True, seed=s).random(n)` gives, bit for bit,
built here without importing `scipy.stats`: Joe & Kuo direction numbers
(from the table scipy ships, derived once per dimension per process),
Matousek's linear matrix scramble plus a digital shift drawn from
`default_rng(s)` in scipy's order, and the points in Gray-code order. The
posterior's triangular solve calls LAPACK trtrs directly, as the fit calls
potrs, potri and potrf.
"""
from __future__ import annotations

import functools
import importlib.util
import os

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs, dtrtrs
from scipy.special import erfcx, ndtr

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
        # LAPACK trtrs directly, the call scipy's triangular solver makes on
        # this F-ordered factor. Its diagonal is positive, as _chol checked, so it
        # cannot report a singular factor.
        v = dtrtrs(self._chol_cache, k_star.T, lower=1)[0]
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


SOBOL_BITS = 30
# The bit position of each MSB-first bit index: 29, 28, ..., 0.
_MSB_SHIFT = np.arange(SOBOL_BITS - 1, -1, -1, dtype=np.uint32)
_MSB_WEIGHT = np.uint32(1) << _MSB_SHIFT
# Reads row r of a drawn scramble matrix as a mask over a direction number's
# MSB-first bits, taking only its strictly lower part (c < r). scipy keeps the
# lower triangle and sets the diagonal to 1, so the drawn bits on and above the
# diagonal are ignored and bit r is ORed in.
_STRICT_LOWER_WEIGHT = np.tril(np.broadcast_to(_MSB_WEIGHT, (SOBOL_BITS, SOBOL_BITS)), -1)


@functools.lru_cache(maxsize=None)  # one entry per dimension a process searches
def _direction_numbers(dim: int) -> np.ndarray:
    """The (dim, 30) unscrambled Sobol direction numbers, scaled to 30 bits:
    Joe & Kuo's primitive polynomials and initial numbers, from the table
    scipy ships, extended by the Bratley & Fox recurrence."""
    # find_spec locates the package without importing scipy.stats.
    package = importlib.util.find_spec("scipy.stats").submodule_search_locations[0]
    with np.load(os.path.join(package, "_sobol_direction_numbers.npz")) as table:
        poly, vinit = table["poly"][:dim], table["vinit"][:dim]
    v = np.zeros((dim, SOBOL_BITS), dtype=np.uint32)
    v[0] = 1
    for d in range(1, dim):
        p = int(poly[d])
        m = p.bit_length() - 1
        v[d, :m] = vinit[d, :m]
        for j in range(m, SOBOL_BITS):
            new = int(v[d, j - m])
            for k in range(m):
                if (p >> (m - 1 - k)) & 1:
                    new ^= int(v[d, j - k - 1]) << (k + 1)
            v[d, j] = new
    v <<= _MSB_SHIFT
    v.flags.writeable = False
    return v


def _sobol(dim: int, n: int, seed: int) -> np.ndarray:
    """The first n points of a scrambled Sobol sequence in [0, 1)^dim, equal
    bit for bit to scipy's `Sobol(d=dim, scramble=True, seed=seed).random(n)`."""
    rng = np.random.default_rng(seed)
    # scipy's draws, in its order and dtype: the shift bits, then the scramble matrices.
    shift = rng.integers(2, size=(dim, SOBOL_BITS), dtype=np.uint32) @ _MSB_WEIGHT[::-1]
    ltm = rng.integers(2, size=(dim, SOBOL_BITS, SOBOL_BITS), dtype=np.uint32)
    rows = np.einsum("drc,rc->dr", ltm, _STRICT_LOWER_WEIGHT) | _MSB_WEIGHT
    # Bit r of a scrambled direction number is the parity of its bits under row r.
    bits = _direction_numbers(dim)[:, :, None] & rows[:, None, :]
    for s in (16, 8, 4, 2, 1):
        bits ^= bits >> s
    bits &= 1
    scrambled = np.einsum("djr,r->dj", bits, _MSB_WEIGHT)
    # Point k is the shift XOR the scrambled numbers at the set bits of gray(k),
    # so point k differs from point k - 1 by the number at the lowest set bit of k.
    k = np.arange(1, n)
    steps = np.empty((n, dim), dtype=np.uint32)
    steps[0] = shift
    steps[1:] = scrambled.T[np.frexp(k & -k)[1] - 1]
    return np.bitwise_xor.accumulate(steps, axis=0) * 2.0**-SOBOL_BITS


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
        cand = _sobol(dim, opts["n_candidates"], int(rng.integers(2**31)))
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
