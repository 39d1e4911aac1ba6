"""Benchmark harness: per-figure experiments and the bench CLI."""

from .experiments import EXPERIMENTS
from .harness import VenueContext, time_queries
from .reporting import Table

__all__ = ["EXPERIMENTS", "Table", "VenueContext", "time_queries"]
