"""Random number generator helpers.

All stochastic code in :mod:`repro` accepts a ``seed`` argument that may be an
integer, ``None`` or an existing :class:`numpy.random.Generator`.  Funnelling
every call through :func:`as_rng` keeps experiment scripts reproducible while
letting library users pass whatever they already have at hand.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any accepted seed form.

    Parameters
    ----------
    seed:
        ``None`` (non-deterministic), an integer seed, a ``SeedSequence`` or an
        existing ``Generator`` (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
