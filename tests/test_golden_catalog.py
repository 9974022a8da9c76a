"""The catalog export and every diagnostics profile stay byte-identical.

`tests/data/golden_catalog.json` holds the sha256 of
`json.dumps(catalog_json(), sort_keys=True)` (labels, senses, penalties,
spaces, operating points, constraint names and their order) and of each
task's `diagnostics_profile` dumped in its own key order, since bundles and
reports walk the profile in that order. A deliberate catalog change bumps
`CATALOG_VERSION` and records the digests again with

    PYTHONPATH=src python tests/test_golden_catalog.py
"""
import hashlib
import json
import os

from aerobench.problems import get_environment, task_ids
from aerobench.problems.catalog import catalog_json

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_catalog.json")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def catalog_digests() -> dict:
    profiles = {}
    for task in task_ids():
        env = get_environment(task)
        try:
            profiles[task] = _sha256(json.dumps(env.diagnostics_profile))
        finally:
            env.close()
    return {
        "catalog_json": _sha256(json.dumps(catalog_json(), sort_keys=True)),
        "diagnostics_profiles": profiles,
    }


def test_catalog_matches_golden():
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    digests = catalog_digests()
    assert digests["catalog_json"] == golden["catalog_json"]
    assert digests["diagnostics_profiles"] == golden["diagnostics_profiles"]


if __name__ == "__main__":
    digests = catalog_digests()
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote catalog and {len(digests['diagnostics_profiles'])} profile digests to {GOLDEN_PATH}")
