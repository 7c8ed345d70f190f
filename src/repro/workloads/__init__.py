"""Workloads: original-id generators and canned fault scenarios."""

from .ids import (
    DEFAULT_NAMESPACE,
    clustered_ids,
    dense_ids,
    extreme_ids,
    make_ids,
    uniform_ids,
    workload_names,
)
from .scenarios import Scenario, get_scenario, scenario_names

__all__ = [
    "DEFAULT_NAMESPACE",
    "Scenario",
    "clustered_ids",
    "dense_ids",
    "extreme_ids",
    "get_scenario",
    "make_ids",
    "scenario_names",
    "uniform_ids",
    "workload_names",
]
