import json
import os

# BLAS threads contend on small machines: the GP fits in the `bo` tests run
# several times slower with more than one thread. Set before numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest  # noqa: E402

from aerobench.problems.catalog import get_environment  # noqa: E402

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture(scope="session")
def golden():
    """The recorded worked-example snapshot for the 3D car diagnostics."""
    with open(os.path.join(DATA_DIR, "golden_car_snapshot.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def car_env():
    return get_environment("car-drag-single")


@pytest.fixture()
def golden_artifacts(tmp_path):
    """Create on-disk artifact and image files matching the snapshot layout."""
    base_vtk = tmp_path / "data" / "vtk_E" / "00000.vtk"
    base_vtk.parent.mkdir(parents=True)
    base_vtk.write_bytes(b"")
    norm = tmp_path / "model" / "norm_stats.pt"
    norm.parent.mkdir(parents=True)
    norm.write_bytes(b"")
    images = []
    sol = tmp_path / "save" / "sol"
    sol.mkdir(parents=True)
    for suffix in (
        "Pressure_iso.png",
        "Pressure_top.png",
        "Pressure_side.png",
        "WSSx_iso.png",
        "WSSx_top.png",
        "WSSx_side.png",
    ):
        p = sol / suffix
        p.write_bytes(b"")
        images.append(str(p))
    return {
        "base_vtk_path": str(base_vtk),
        "norm_stats_path": str(norm),
        "images": images,
    }
