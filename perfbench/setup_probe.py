"""Time one workload's set-up in a fresh process.

Set-up is what a user pays before the first evaluation: importing
aerobench, building every environment the workload uses, and spawning the
evaluator child where there is one. Prints one JSON object of seconds,
including the reference kernel's time (`benchenv.settled_kernel_s`) right
after set-up.

Run as: python3 perfbench/setup_probe.py WORKLOAD SEED WORK_DIR
"""
import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import benchenv  # noqa: E402


def main(argv: list[str]) -> int:
    benchenv.prepare()
    import workloads

    imported = time.perf_counter()
    wl = workloads.make(argv[1], int(argv[2]), argv[3])
    try:
        split = wl.setup()
        total = time.perf_counter() - START
    finally:
        wl.close()
    ref = benchenv.settled_kernel_s()
    print(json.dumps({"import_s": imported - START, **split, "total_s": total, "ref_s": ref}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
