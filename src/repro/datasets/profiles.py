"""Size profiles for the synthetic venue generators.

The paper evaluates on three real venues (Melbourne Central, the Menzies
building and the Clayton campus) plus replicated variants (Table 2). The
floor plans are not redistributable, so the generators in this package
synthesize venues with the same *topology class* and tunable counts.
Three profiles are provided:

* ``tiny``  — seconds-fast venues for unit tests,
* ``small`` — default benchmark scale for the pure-Python runtime,
* ``paper`` — approximates the Table 2 door/room/edge counts.
"""

from __future__ import annotations

from dataclasses import dataclass

PROFILES = ("tiny", "small", "paper")


@dataclass(frozen=True, slots=True)
class MallProfile:
    """Melbourne-Central-like shopping mall."""

    levels: int
    hallways_per_level: int
    shops_per_hallway: int
    exits: int


@dataclass(frozen=True, slots=True)
class OfficeProfile:
    """Menzies-like office tower."""

    levels: int
    corridors_per_level: int
    rooms_per_corridor: int
    exits: int


@dataclass(frozen=True, slots=True)
class CampusProfile:
    """Clayton-like multi-building campus."""

    buildings: int
    min_levels: int
    max_levels: int
    min_rooms_per_corridor: int
    max_rooms_per_corridor: int


MALL_PROFILES: dict[str, MallProfile] = {
    "tiny": MallProfile(levels=2, hallways_per_level=2, shops_per_hallway=4, exits=2),
    "small": MallProfile(levels=7, hallways_per_level=2, shops_per_hallway=8, exits=2),
    # Table 2: 297 rooms / 299 doors / 8,466 edges over 7 levels.
    "paper": MallProfile(levels=7, hallways_per_level=2, shops_per_hallway=20, exits=2),
}

OFFICE_PROFILES: dict[str, OfficeProfile] = {
    "tiny": OfficeProfile(levels=3, corridors_per_level=1, rooms_per_corridor=6, exits=1),
    "small": OfficeProfile(levels=14, corridors_per_level=2, rooms_per_corridor=10, exits=2),
    # Table 2: 1,306 rooms / 1,368 doors / 56,035 edges over 14 levels.
    "paper": OfficeProfile(levels=14, corridors_per_level=2, rooms_per_corridor=45, exits=2),
}

CAMPUS_PROFILES: dict[str, CampusProfile] = {
    "tiny": CampusProfile(
        buildings=3, min_levels=1, max_levels=2,
        min_rooms_per_corridor=4, max_rooms_per_corridor=6,
    ),
    "small": CampusProfile(
        buildings=8, min_levels=2, max_levels=4,
        min_rooms_per_corridor=12, max_rooms_per_corridor=20,
    ),
    # Table 2: 71 buildings, 41,100 rooms, 6.7M edges — long corridors
    # with ~100-180 rooms dominate the clique edge count.
    "paper": CampusProfile(
        buildings=71, min_levels=2, max_levels=6,
        min_rooms_per_corridor=110, max_rooms_per_corridor=180,
    ),
}


def validate_profile(profile: str) -> str:
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; expected one of {PROFILES}")
    return profile
