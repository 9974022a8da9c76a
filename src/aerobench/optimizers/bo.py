"""Gaussian-process Bayesian optimization with a log expected-improvement
acquisition.

An exact GP with an isotropic Matern-5/2 kernel models standardized rewards
on the unit cube. The `n_initial` random designs go out as one batch (an
error row is replaced in the next). One model holds the run's data from
then on, in buffers sized to the budget.

Hyperparameters (length scale, signal variance, noise) are fit to the
marginal likelihood. Until a fit succeeds, each fit is cold: it evaluates
the likelihood once at a default theta and at `fit_starts - 1` random ones
and refines only the best of them, the earliest on a tie. After that each
fit is warm, one start from the theta of the last successful fit. The
refinement is a projected BFGS on the three log hyperparameters (Nocedal &
Wright 2006, ch. 6): the first step is at most 1 long in log space, a step
that fails the Armijo test is halved, and a coordinate that the gradient
holds at a bound stays there. A fit ends at an accepted step that improves
the likelihood by a relative FIT_FTOL or less, and after at most
`fit_steps + 1` evaluations of its refined start.

A fit is due only once the data has grown by a tenth (at least one row)
since the last one. The rounds in between keep theta and the jitter of the
last factor, and append the new rows to the Cholesky factor in O(n^2) with
no likelihood evaluation (Rasmussen & Williams 2006, Alg. 2.1); a new pivot
that is not positive and finite makes the round factor in full. A failed
fit or factorization proposes a random row and makes the next round refit.
The model works on the Cholesky factor of the covariance: the pairwise
distances grow with the data, alpha = K^-1 y comes from LAPACK potrs, and
the gradient's K^-1 from potri, with no generic solve and no identity
matrix. The acquisition, log EI, is computed in the stable form of Ament et
al. (NeurIPS 2023), so it stays finite and ordered far below the incumbent
instead of sitting on a floor. It is maximized over a Sobol candidate set
plus a handful of local refinements.

Each round's candidate set is a fresh scrambled Sobol sequence, the points
scipy's `Sobol(d, scramble=True, seed=s).random(n)` gives, bit for bit,
built here without importing `scipy.stats`: Joe & Kuo direction numbers
(from the table scipy ships, derived once per dimension per process),
Matousek's linear matrix scramble plus a digital shift drawn from
`default_rng(s)` in scipy's order, and the points in Gray-code order. The
posterior's triangular solve calls LAPACK trtrs directly, as the model
calls potrs, potri and potrf.
"""
from __future__ import annotations

import functools
import importlib.util
import os

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs, dtrtrs
from scipy.special import erfcx, ndtr

from ..space import ParamSpace
from .base import Proposals, Warm

JITTER_START = 1e-8
JITTER_MAX = 1e-4
SQRT5 = np.sqrt(5.0)

# A cold fit screens `fit_starts` starts, the default theta plus
# `fit_starts - 1` random ones, with one likelihood evaluation each. Once a
# fit has succeeded, each later fit is warm, a single start from the last
# fitted theta. Either way one start is refined, in at most `fit_steps`
# further evaluations.
DEFAULTS = {
    "n_initial": 30,
    "n_candidates": 256,
    "n_refine": 10,
    "fit_starts": 4,
    "fit_steps": 40,
}


# Bounds on the log hyperparameters (length scale, signal var, noise var)
# keep the fit away from degenerate kernels.
THETA_LO = np.log(np.array([1e-3, 1e-4, 1e-8]))
THETA_HI = np.log(np.array([1e2, 1e3, 1.0]))
DEFAULT_THETA = np.log(np.array([0.5, 1.0, 1e-3]))  # the cold fit's first start
DEFAULT_THETA.flags.writeable = False

# A fit ends at an accepted step whose relative reduction of the negative log
# likelihood is at most FIT_FTOL (L-BFGS-B's `ftol` rule).
FIT_FTOL = 1e-5
# A step is accepted when it reduces the negative log likelihood by at least
# ARMIJO_C times the reduction its gradient predicts.
ARMIJO_C = 1e-4
# A refit is due once the data has grown by n_fit // REFIT_DIVISOR rows, and
# at least one, since the last successful fit at n_fit rows; in between, the
# model keeps theta and extends its factor by the new rows.
REFIT_DIVISOR = 10


def _matern52(r5: np.ndarray, length: float, signal_var: float) -> np.ndarray:
    """Matern-5/2 kernel on sqrt(5)-scaled distances."""
    a = r5 / length
    return signal_var * ((1.0 + a + a * a / 3.0) * np.exp(-a))


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.maximum(
        np.sum(a**2, axis=1)[:, None]
        + np.sum(b**2, axis=1)[None, :]
        - 2.0 * a @ b.T,
        0.0,
    )


def _scaled_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return SQRT5 * np.sqrt(_sq_dists(a, b))


def _chol(kern: np.ndarray, noise: float, warn) -> tuple[np.ndarray | None, float | None]:
    """The lower Cholesky factor of kern + (noise + jitter) I and its jitter,
    escalating from JITTER_START; (None, None) when it never succeeds."""
    n = len(kern)
    diag = kern.diagonal() + noise
    k_mat = kern.copy()
    jitter = JITTER_START
    while jitter <= JITTER_MAX:
        k_mat.flat[:: n + 1] = diag + jitter
        chol, info = dpotrf(k_mat, lower=1)
        # potrf reports no failure on NaN input; a non-finite pivot catches it.
        if info == 0 and np.isfinite(chol.trace()):
            return chol, jitter
        jitter *= 2.0
    warn(
        f"GP covariance not positive definite even with jitter {JITTER_MAX}; "
        f"condition diagnostics: diag range [{diag.min():.3e}, "
        f"{diag.max():.3e}], n={n}"
    )
    return None, None


class _GP:
    """Exact GP on standardized targets with a Matern-5/2 kernel. Rows are
    appended with `add`; the distances and the Cholesky factor live in
    buffers of `capacity` rows."""

    def __init__(self, x: np.ndarray, y: np.ndarray, warn, theta: np.ndarray | None = None,
                 capacity: int = 0):
        capacity = max(capacity, len(x))
        self._x = np.empty((capacity, x.shape[1]))
        self._y = np.empty(capacity)
        self._r5 = np.empty((capacity, capacity))
        # The factor of the first `_factored` rows, column-major in the first
        # _factored**2 entries, so LAPACK takes it without a copy.
        self._chol_buf = np.empty(capacity * capacity)
        self._factored, self._jitter = 0, None
        self._chol_cache = self._alpha = None
        self.n = 0
        self.warn = warn
        # The last successful fit's theta, where the next fit starts; None
        # makes it cold. A given theta makes the first fit warm.
        self._fitted = theta
        self.theta = DEFAULT_THETA if theta is None else theta
        self.add(x, y)

    @property
    def x(self) -> np.ndarray:
        return self._x[: self.n]

    def add(self, x_new: np.ndarray, y_new: np.ndarray) -> None:
        """Append rows and their rewards: the new rows' distances to every row,
        and every target standardized again."""
        n0, n = self.n, self.n + len(x_new)
        self._x[n0:n] = x_new
        self._y[n0:n] = y_new
        block = _scaled_dists(self._x[:n], x_new)
        self._r5[:n, n0:n] = block
        self._r5[n0:n, :n] = block.T
        self.n = n
        y = self._y[:n]
        self.y_mean = float(np.mean(y))
        self.y_std = float(np.std(y))
        if self.y_std < 1e-12:
            self.y_std = 1.0
        self.y = (y - self.y_mean) / self.y_std

    def _neg_mll_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray | None]:
        length, sf2, sn2 = np.exp(theta)
        n = self.n
        # The unit-signal kernel and its derivative in log length share a,
        # exp(-a), 1 + a and a^2 / 3; the kernel is the one `_matern52` gives.
        a = self._r5[:n, :n] / length
        exp_a = np.exp(-a)
        a2_3 = a * a / 3.0
        a += 1.0
        base = (a + a2_3) * exp_a
        chol, _ = _chol(sf2 * base, sn2, lambda _msg: None)
        if chol is None:
            return np.inf, None
        # LAPACK potrs directly: scipy's cho_solve wrapper costs more than the solve.
        alpha = dpotrs(chol, self.y, lower=1)[0]
        nll = float(
            0.5 * self.y @ alpha
            + np.sum(np.log(chol.diagonal()))
            + 0.5 * n * np.log(2.0 * np.pi)
        )
        # d(neg mll)/dtheta_j = 0.5 tr(W dK/dtheta_j), W = K^-1 - alpha alpha^T.
        # potri writes the lower triangle of K^-1 over L; the upper keeps L's zeros.
        w = dpotri(chol, lower=1)[0]
        w = w + w.T
        w.flat[:: n + 1] *= 0.5
        w -= alpha[:, None] * alpha
        a2_3 *= a
        a2_3 *= exp_a
        grad = 0.5 * np.array([sf2 * np.vdot(w, a2_3), sf2 * np.vdot(w, base), sn2 * np.trace(w)])
        return nll, grad

    def fit(self, rng: np.random.Generator) -> None:
        """Fit theta to the likelihood and factor the covariance there. A cold
        fit screens its starts, one evaluation each, and refines the best; a
        warm one refines the last fitted theta. A warm fit draws nothing from rng."""
        if self._fitted is not None:
            starts = [self._fitted]
        else:
            starts = [DEFAULT_THETA] + [
                np.array(
                    [
                        rng.uniform(np.log(0.05), np.log(2.0)),
                        rng.uniform(np.log(0.1), np.log(4.0)),
                        rng.uniform(np.log(1e-6), np.log(1e-2)),
                    ]
                )
                for _ in range(DEFAULTS["fit_starts"] - 1)
            ]
        # Every start lies inside the bounds. The first is kept when none has
        # a finite likelihood.
        best = None
        for theta in starts:
            val, grad = self._neg_mll_and_grad(theta)
            if best is None or val < best[1]:
                best = theta, val, grad
        theta, val, grad = best
        if np.isfinite(val):
            theta = self._refine(theta, val, grad)
        self.theta = theta
        self.factor()
        self._fitted = theta

    def _refine(self, theta: np.ndarray, val: float, grad: np.ndarray) -> np.ndarray:
        """Projected BFGS from one evaluated start, in at most `fit_steps`
        further likelihood evaluations; the theta it ends at."""
        h = None  # the inverse Hessian estimate, the identity until a step updates it
        evals = 0
        while evals < DEFAULTS["fit_steps"] and np.all(np.isfinite(grad)):
            # A coordinate at a bound that the gradient pushes outward stays there.
            held = ((theta <= THETA_LO) & (grad > 0)) | ((theta >= THETA_HI) & (grad < 0))
            g = np.where(held, 0.0, grad)
            if h is not None:
                step = -(h @ g)
                step[held] = 0.0
                if g @ step >= 0.0:  # lost to rounding: start the estimate over
                    h = None
            if h is None:
                step = -g / max(1.0, float(np.linalg.norm(g)))
            t = 1.0
            while True:
                cand = np.clip(theta + t * step, THETA_LO, THETA_HI)
                s = cand - theta
                if not s.any():
                    return theta
                cand_val, cand_grad = self._neg_mll_and_grad(cand)
                evals += 1
                if cand_val <= val + ARMIJO_C * (grad @ s):
                    break
                if evals == DEFAULTS["fit_steps"]:
                    return theta
                t *= 0.5
            stalled = val - cand_val <= FIT_FTOL * max(abs(val), abs(cand_val), 1.0)
            dg = cand_grad - grad
            curv = float(s @ dg)
            if curv > 1e-10 * float(np.linalg.norm(s) * np.linalg.norm(dg)):
                if h is None:
                    h = np.eye(3) * (curv / float(dg @ dg))
                rho = 1.0 / curv
                v = np.eye(3) - rho * np.outer(s, dg)
                h = v @ h @ v.T + rho * np.outer(s, s)
            theta, val, grad = cand, cand_val, cand_grad
            if stalled:
                break
        return theta

    def factor(self) -> None:
        """Factor the covariance of every row at self.theta, escalating the
        jitter from JITTER_START, and solve for alpha."""
        length, sf2, sn2 = np.exp(self.theta)
        n = self.n
        chol, jitter = _chol(_matern52(self._r5[:n, :n], length, sf2), sn2, self.warn)
        if chol is None:
            raise FloatingPointError("GP covariance factorization failed")
        self._chol_cache = self._chol_buf[: n * n].reshape((n, n), order="F")
        self._chol_cache[...] = chol
        self._factored, self._jitter = n, jitter
        self._alpha = dpotrs(self._chol_cache, self.y, lower=1)[0]

    def extend(self) -> None:
        """After a successful factor, append the rows added since to it at the
        kept theta and jitter, and solve for alpha again; factor in full when
        a new pivot is not positive and finite."""
        n0, n = self._factored, self.n
        if n > n0:
            length, sf2, sn2 = np.exp(self.theta)
            old = self._chol_cache
            k_new = _matern52(self._r5[:n, n0:n], length, sf2)
            # [L11 0; L21 L22] factors [K11 K12; K21 K22] when L11 L21^T = K12
            # and L22 factors the Schur complement K22 - L21 L21^T.
            l21t = dtrtrs(old, k_new[:n0], lower=1)[0]
            schur = k_new[n0:] - l21t.T @ l21t
            schur.flat[:: n - n0 + 1] += sn2 + self._jitter
            l22, info = dpotrf(schur, lower=1)
            if info != 0 or not np.isfinite(l22.trace()):
                self.factor()
                return
            new = self._chol_buf[: n * n].reshape((n, n), order="F")
            # The columns move to the longer stride in place; numpy buffers
            # the overlapping copy.
            new[:n0, :n0] = old
            new[:n0, n0:] = 0.0
            new[n0:, :n0] = l21t.T
            new[n0:, n0:] = l22
            self._chol_cache, self._factored = new, n
        self._alpha = dpotrs(self._chol_cache, self.y, lower=1)[0]

    def posterior(self, x_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        length, sf2, _ = np.exp(self.theta)
        k_star = _matern52(_scaled_dists(x_new, self.x), length, sf2)
        mu = k_star @ self._alpha
        # LAPACK trtrs directly, the call scipy's triangular solver makes on
        # this F-ordered factor. Its diagonal is positive, as the factor
        # checked, so it cannot report a singular factor.
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


def check(space: ParamSpace) -> None:
    """BO applies to every space."""


def run(dim: int, rng: np.random.Generator, warm: Warm, budget: int, warn) -> Proposals:
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
    while len(xs) < DEFAULTS["n_initial"]:
        rows = rng.random((DEFAULTS["n_initial"] - len(xs), dim))
        for u, reward in zip(rows, (yield 0, rows)):
            observe(u, float(reward))

    # One model holds the data from here on; a run observes at most its
    # warm-start rows and its budget.
    gp = _GP(np.array(xs), np.array(ys), warn, capacity=len(warm) + budget)
    # A fit is due when the data count reaches `next_fit`, and at once after a
    # failed fit or factorization.
    step, next_fit = 0, 0
    while True:
        step += 1
        if len(xs) > gp.n:
            gp.add(np.array(xs[gp.n :]), np.array(ys[gp.n :]))
        n = gp.n
        try:
            if n >= next_fit:
                gp.fit(rng)
                next_fit = n + max(1, n // REFIT_DIVISOR)
            else:
                gp.extend()
        except FloatingPointError:
            # Fall back to random search once the model is unusable.
            next_fit = 0
            u = rng.random(dim)
            observe(u, float((yield step, u[None])[0]))
            continue
        best = float((max(ys) - gp.y_mean) / gp.y_std)
        cand = _sobol(dim, DEFAULTS["n_candidates"], int(rng.integers(2**31)))
        mu, sigma = gp.posterior(cand)
        lei = log_expected_improvement(mu, sigma, best)
        order = np.argsort(-lei)
        # Local refinement: three perturbations of each top Sobol candidate,
        # drawn as one batch (the same values as one draw per trial).
        pool = cand[order[: DEFAULTS["n_refine"]]]
        noise = rng.normal(0.0, 0.05, size=(3 * len(pool), dim))
        refined = np.clip(np.repeat(pool, 3, axis=0) + noise, 0.0, 1.0)
        all_cand = np.concatenate([pool, refined])
        mu2, sigma2 = gp.posterior(all_cand)
        lei2 = log_expected_improvement(mu2, sigma2, best)
        u = all_cand[int(np.argmax(lei2))]
        observe(u, float((yield step, u[None])[0]))
