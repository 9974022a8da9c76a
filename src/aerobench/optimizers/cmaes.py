"""Covariance-matrix-adaptation evolution strategy on the unit cube.

Standard (mu/mu_w, lambda) scheme with the default population,
lambda = 4 + floor(3 ln d) and mu = lambda // 2: log-decreasing
recombination weights, cumulative step-size adaptation, rank-one and
rank-mu covariance updates.
Offspring are clipped to the box before evaluation. A small eigenvalue
floor keeps the covariance factorizable; hitting it is recorded as a run
warning rather than an error.
"""
from __future__ import annotations

import numpy as np

from ..space import ParamSpace
from .base import Proposals, Warm

EIGEN_FLOOR = 1e-12

DEFAULTS = {"sigma0": 0.3}


def strategy_params(dim: int, popsize: int, mu: int) -> dict:
    """Learning rates and normalizers as functions of (d, lambda, mu)."""
    weights = np.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
    weights /= weights.sum()
    mu_eff = 1.0 / float(np.sum(weights**2))
    c_sigma = (mu_eff + 2.0) / (dim + mu_eff + 5.0)
    d_sigma = 1.0 + 2.0 * max(0.0, np.sqrt((mu_eff - 1.0) / (dim + 1.0)) - 1.0) + c_sigma
    c_c = (4.0 + mu_eff / dim) / (dim + 4.0 + 2.0 * mu_eff / dim)
    c_1 = 2.0 / ((dim + 1.3) ** 2 + mu_eff)
    c_mu = min(
        1.0 - c_1,
        2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((dim + 2.0) ** 2 + mu_eff),
    )
    chi_n = np.sqrt(dim) * (1.0 - 1.0 / (4.0 * dim) + 1.0 / (21.0 * dim**2))
    return {
        "weights": weights,
        "mu_eff": mu_eff,
        "c_sigma": c_sigma,
        "d_sigma": d_sigma,
        "c_c": c_c,
        "c_1": c_1,
        "c_mu": c_mu,
        "chi_n": chi_n,
    }


def check(space: ParamSpace) -> None:
    """CMA-ES applies to every space."""


def run(dim: int, rng: np.random.Generator, warm: Warm, budget: int, warn) -> Proposals:
    popsize = 4 + int(np.floor(3.0 * np.log(dim)))
    mu = popsize // 2
    sigma = DEFAULTS["sigma0"]
    sp = strategy_params(dim, popsize, mu)
    weights = sp["weights"]

    # Start from the best warm point when given, otherwise the cube center.
    if warm:
        finite = [(u, r) for u, r in warm if r > -np.inf]
        mean = max(finite, key=lambda ur: ur[1])[0] if finite else warm[0][0]
    else:
        mean = np.full(dim, 0.5)

    cov = np.eye(dim)
    p_sigma = np.zeros(dim)
    p_c = np.zeros(dim)
    floor_warned = False
    gen = 0

    while True:
        eigvals, eigvecs = np.linalg.eigh(cov)
        if np.min(eigvals) < EIGEN_FLOOR:
            eigvals = np.maximum(eigvals, EIGEN_FLOOR)
            cov = (eigvecs * eigvals) @ eigvecs.T
            if not floor_warned:
                warn(
                    f"covariance eigenvalue floored at {EIGEN_FLOOR} "
                    f"in generation {gen}"
                )
                floor_warned = True
        sqrt_cov = eigvecs * np.sqrt(eigvals)
        inv_sqrt_cov = (eigvecs / np.sqrt(eigvals)) @ eigvecs.T

        z = rng.standard_normal((popsize, dim))
        y = z @ sqrt_cov.T
        x = mean + sigma * y
        x_eval = np.clip(x, 0.0, 1.0)
        vals = yield gen, x_eval

        order = np.argsort(-vals)[:mu]
        y_sel = y[order]
        y_w = weights @ y_sel
        mean = np.clip(mean + sigma * y_w, 0.0, 1.0)

        p_sigma = (1.0 - sp["c_sigma"]) * p_sigma + np.sqrt(
            sp["c_sigma"] * (2.0 - sp["c_sigma"]) * sp["mu_eff"]
        ) * (inv_sqrt_cov @ y_w)
        norm_ps = float(np.linalg.norm(p_sigma))
        gen_scale = np.sqrt(
            1.0 - (1.0 - sp["c_sigma"]) ** (2.0 * (gen + 1))
        )
        h_sigma = float(
            norm_ps / gen_scale / sp["chi_n"] < 1.4 + 2.0 / (dim + 1.0)
        )
        p_c = (1.0 - sp["c_c"]) * p_c + h_sigma * np.sqrt(
            sp["c_c"] * (2.0 - sp["c_c"]) * sp["mu_eff"]
        ) * y_w

        rank_mu = (y_sel.T * weights) @ y_sel
        delta_h = (1.0 - h_sigma) * sp["c_c"] * (2.0 - sp["c_c"])
        cov = (
            (1.0 - sp["c_1"] - sp["c_mu"]) * cov
            + sp["c_1"] * (np.outer(p_c, p_c) + delta_h * cov)
            + sp["c_mu"] * rank_mu
        )
        cov = 0.5 * (cov + cov.T)

        sigma *= np.exp(
            (sp["c_sigma"] / sp["d_sigma"]) * (norm_ps / sp["chi_n"] - 1.0)
        )
        gen += 1
