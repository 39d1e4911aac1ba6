"""Public API surface: imports resolve, exceptions nest, version set,
and the serving layers stay clear of the baselines."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import (
    ConstructionError,
    DisconnectedVenueError,
    QueryError,
    ReproError,
    VenueError,
)


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_version():
    assert repro.__version__.count(".") == 2


def test_exception_hierarchy():
    assert issubclass(VenueError, ReproError)
    assert issubclass(DisconnectedVenueError, VenueError)
    assert issubclass(QueryError, ReproError)
    assert issubclass(ConstructionError, ReproError)


def test_subpackages_importable():
    import repro.baselines
    import repro.bench
    import repro.core
    import repro.datasets
    import repro.graph
    import repro.model

    for mod in (repro.baselines, repro.bench, repro.core, repro.datasets,
                repro.graph, repro.model):
        for name in mod.__all__:
            assert hasattr(mod, name), (mod.__name__, name)


def test_quickstart_docstring_example():
    """The README/docstring snippet actually works."""
    from repro import IndoorPoint, IndoorSpaceBuilder, VIPTree

    b = IndoorSpaceBuilder(name="tiny")
    hall = b.add_hallway(floor=0)
    office = b.add_room(floor=0)
    d0 = b.add_exterior_door(hall, x=0, y=0)
    b.add_door(hall, office, x=5, y=0)
    space = b.build()
    tree = VIPTree.build(space)
    dist = tree.shortest_distance(IndoorPoint(office, 6.0, 1.0), d0)
    assert dist == pytest.approx(1.0 + 5.0 + 1.0, abs=1.0)


def test_serving_layers_load_no_baseline():
    """The engine, the snapshot store and the serving stack know only
    the VIP-Tree: importing all three loads no module of
    ``repro.baselines`` (deep snapshot verification imports the oracle
    lazily, when it runs)."""
    env = dict(os.environ)
    src = str(Path(__file__).parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import sys\n"
        "import repro.engine, repro.storage, repro.serving\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.baselines')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"
