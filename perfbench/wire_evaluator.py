"""Stand-in external evaluator speaking aerobench's line-delimited JSON protocol.

Serves the catalog's own stand-in metrics for the tasks named on the
command line, so that a run through the wire produces exactly the rewards of
the in-process evaluator. Each request is routed to a task by its set of
parameter names (which must be unique among the served tasks) and to the
first catalog operating point equal to the request's `operating_point`.
Operating points that repeat within a task give identical metrics, so the
first match is exact.

Run as: python3 perfbench/wire_evaluator.py TASK [TASK ...]
"""
from __future__ import annotations

import json
import sys

import benchenv

benchenv.prepare()

from aerobench.problems import catalog  # noqa: E402
from aerobench.space import DesignPoint  # noqa: E402


def build_routes(task_ids: list[str]) -> dict:
    routes = {}
    for task_id in task_ids:
        env = catalog.get_environment(task_id)
        key = frozenset(env.space.names)
        if key in routes:
            raise SystemExit(f"tasks {routes[key][0].id} and {task_id} share a parameter set")
        points = [(op.to_json(), k) for k, op in enumerate(env.points)]
        routes[key] = (env, points)
    return routes


def answer(routes: dict, request: dict) -> dict:
    params = request.get("params", {})
    route = routes.get(frozenset(params))
    if route is None:
        return {"id": request.get("id"), "error": f"no served task has parameters {sorted(params)}"}
    env, points = route
    wanted = request.get("operating_point")
    for op_json, k in points:
        if op_json == wanted:
            point = DesignPoint.from_json(params)
            metrics = env.evaluator.point_metrics(point, env.points[k], k)
            return {"id": request.get("id"), "metrics": metrics}
    return {"id": request.get("id"), "error": f"{env.id} has no operating point {wanted}"}


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: wire_evaluator.py TASK [TASK ...]", file=sys.stderr)
        return 2
    routes = build_routes(argv[1:])
    for line in sys.stdin:
        if line.strip():
            sys.stdout.write(json.dumps(answer(routes, json.loads(line))) + "\n")
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
