"""Seeded generator of a run tree in the layout `aerobench run` writes.

`<root>/<task>/<method>/seed<k>/results.csv` holds `RESULTS_HEADER` rows and
`resolved_config.json` the keys `aerobench compare` reads. Rewards follow a
noisy improving trajectory on a per-task scale, with about one error row
(empty reward) in a hundred, so `compare` exercises its error-row skipping.
The same seed writes the same bytes.
"""
from __future__ import annotations

import csv
import json
import os

import numpy as np

from aerobench.cli import RESULTS_HEADER


def write_run_tree(
    root: str,
    seed: int,
    tasks: list[str],
    methods: list[str],
    n_seeds: int,
    rows: int,
) -> int:
    """Write the tree and return the number of result rows written."""
    total = 0
    for t, task in enumerate(tasks):
        for m, method in enumerate(methods):
            for s in range(n_seeds):
                rng = np.random.default_rng([seed, t, m, s])
                scale = 10.0 ** (t % 4 - 1)
                steps = rng.exponential(scale / rows, rows) * rng.random(rows)
                rewards = np.cumsum(steps) + scale * rng.normal(0.0, 0.05, rows)
                errors = rng.random(rows) < 0.01
                errors[0] = False
                run_dir = os.path.join(root, task, method, f"seed{s}")
                os.makedirs(run_dir)
                config = {
                    "task": task,
                    "method": method,
                    "seed": s,
                    "budget": rows,
                    "sense": "maximize",
                    "options": {},
                    "n_warmstart": 0,
                }
                with open(os.path.join(run_dir, "resolved_config.json"), "w") as fh:
                    json.dump(config, fh, indent=2, sort_keys=True)
                    fh.write("\n")
                best = None
                with open(os.path.join(run_dir, "results.csv"), "w", newline="") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(RESULTS_HEADER)
                    for i in range(rows):
                        reward = None if errors[i] else float(rewards[i])
                        if reward is not None and (best is None or reward > best):
                            best = reward
                        writer.writerow([
                            i // 20,
                            f"eval{i:06d}",
                            "" if reward is None else repr(reward),
                            "" if best is None else repr(best),
                            reward is not None,
                            i + 1,
                            "0.0",
                        ])
                total += rows
    return total
