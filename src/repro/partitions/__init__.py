"""Stripped partitions: construction, refinement, products, caching, kernels."""

from . import kernels
from .cache import PartitionCache
from .stripped import Cluster, StrippedPartition

__all__ = [
    "Cluster",
    "PartitionCache",
    "StrippedPartition",
    "kernels",
]
