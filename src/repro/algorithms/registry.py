"""Name-based registry of all discovery algorithms."""

from __future__ import annotations

import inspect
from typing import Callable, Dict, FrozenSet, List, Optional

from ..core.base import DiscoveryAlgorithm
from ..core.dhyfd import DHyFD
from .approximate import ApproximateTANE
from .fastfds import FastFDs
from .fdep import FDEP, FDEP1, FDEP2
from .hyfd import HyFD
from .naive import NaiveFDDiscovery
from .tane import TANE

_REGISTRY: Dict[str, Callable[..., DiscoveryAlgorithm]] = {
    DHyFD.name: DHyFD,
    HyFD.name: HyFD,
    TANE.name: TANE,
    FDEP.name: FDEP,
    FDEP1.name: FDEP1,
    FDEP2.name: FDEP2,
    NaiveFDDiscovery.name: NaiveFDDiscovery,
    FastFDs.name: FastFDs,
    ApproximateTANE.name: ApproximateTANE,
}


def algorithm_names() -> List[str]:
    """All registered algorithm names, sorted."""
    return sorted(_REGISTRY)


def algorithm_keywords(name: str) -> Optional[FrozenSet[str]]:
    """Keyword arguments a registered algorithm's constructor accepts.

    None when the constructor takes ``**kwargs`` (any key is accepted).
    """
    params = inspect.signature(_REGISTRY[name.lower()]).parameters.values()
    if any(p.kind is p.VAR_KEYWORD for p in params):
        return None
    return frozenset(p.name for p in params)


def make_algorithm(
    name: str, time_limit: Optional[float] = None, **kwargs
) -> DiscoveryAlgorithm:
    """Instantiate a discovery algorithm by name.

    Extra keyword arguments are forwarded to the constructor (e.g.
    ``ratio_threshold`` for DHyFD).
    """
    try:
        factory = _REGISTRY[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {name!r}; choose from {algorithm_names()}"
        ) from None
    return factory(time_limit=time_limit, **kwargs)
