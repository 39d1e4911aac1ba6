"""Shared fixtures: handcrafted venues echoing the paper's running
example, generator-built venues, prebuilt indexes, and in-process
serving routers closed at teardown.

The venue builders and point sampler live in :mod:`repro.testing` so
test modules can import them without relying on ``conftest`` being
importable (the module name collides with ``benchmarks/conftest.py``).
"""

from __future__ import annotations

import pytest

from repro import IndoorPoint, IPTree, VIPTree, make_object_set
from repro.baselines import DijkstraOracle
from repro.datasets import build_campus, build_mall, build_office
from repro.serving import VenueRouter
from repro.testing import (  # noqa: F401 — re-exported for fixtures below
    deadline_guard,
    make_fig1_like_space,
    make_multifloor_space,
    sample_points,
)


# ----------------------------------------------------------------------
# Wedge detection: every test marked ``net_guard`` (the network-touching
# suites set it module-wide) runs under a SIGALRM deadline — a wedged
# server thread or socket wait fails fast with an all-thread stack dump
# instead of hanging until the CI harness kills the run reportlessly.
@pytest.fixture(autouse=True)
def _net_guard(request):
    marker = request.node.get_closest_marker("net_guard")
    if marker is None:
        yield
        return
    seconds = float(marker.kwargs.get("seconds", 120.0))
    with deadline_guard(seconds):
        yield


# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def fig1_space():
    return make_fig1_like_space()


@pytest.fixture(scope="session")
def tower_space():
    return make_multifloor_space()


@pytest.fixture(scope="session")
def mall_space():
    return build_mall("tiny", name="MC-tiny")


@pytest.fixture(scope="session")
def office_space():
    return build_office("tiny", name="Men-tiny")


@pytest.fixture(scope="session")
def campus_space():
    return build_campus("tiny", name="CL-tiny")


@pytest.fixture(scope="session")
def fig1_iptree(fig1_space):
    return IPTree.build(fig1_space)


@pytest.fixture(scope="session")
def fig1_viptree(fig1_space):
    return VIPTree.build(fig1_space)


@pytest.fixture(scope="session")
def tower_iptree(tower_space):
    return IPTree.build(tower_space)


@pytest.fixture(scope="session")
def tower_viptree(tower_space):
    return VIPTree.build(tower_space)


@pytest.fixture(scope="session")
def fig1_oracle(fig1_space, fig1_iptree):
    return DijkstraOracle(fig1_space, fig1_iptree.d2d)


@pytest.fixture(scope="session")
def tower_oracle(tower_space, tower_iptree):
    return DijkstraOracle(tower_space, tower_iptree.d2d)


@pytest.fixture(scope="session")
def fig1_objects(fig1_space):
    rooms = fig1_space.fixture_rooms
    locs = [IndoorPoint(rooms[h][i], 2.0 + h * 20.0, 1.5) for h in range(4) for i in (1, 4)]
    return make_object_set(fig1_space, locs, category="washroom")


# Venues every index test can parametrize over.
@pytest.fixture(scope="session")
def all_fixture_spaces(fig1_space, tower_space, mall_space, office_space, campus_space):
    return {
        "fig1": fig1_space,
        "tower": tower_space,
        "mall": mall_space,
        "office": office_space,
        "campus": campus_space,
    }


# In-process routers open one op-log append handle per updated venue;
# closing them at teardown keeps a test's handles from outliving it.
@pytest.fixture()
def open_router():
    """``open_router(catalog, **kwargs)`` builds a :class:`VenueRouter`
    that is closed when the test ends."""
    routers = []

    def make(catalog, **kwargs):
        router = VenueRouter(catalog, **kwargs)
        routers.append(router)
        return router

    yield make
    for router in routers:
        router.close()
