"""Load generator of the ``serve-mixed`` workload: one client, one connection.

Each cycle posts one ``POST /update`` batch and then asks its read pairs,
``POST /resistance`` one after the other, on the same keep-alive connection.
The first read of a cycle is the first read of the new epoch: it pays
snapshot capture and a fresh factorisation; the others hit the cached solver.
Nothing overlaps, so every session of one stream sends the server the same
requests in the same order, and a request's time can be compared across
sessions.  Any status other than 200, or a failed round trip, is a failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from http.client import HTTPException
from time import perf_counter
from typing import List, Optional, Sequence, Tuple

#: A request that fails in transport (reset, malformed answer) counts as failed.
CLIENT_ERRORS = (OSError, HTTPException, ValueError)


@dataclass
class Request:
    seconds: float
    status: int
    version: Optional[int]


@dataclass
class Cycle:
    write: Request
    events: int
    reads: List[Request]


def _timed(client, path: str, payload: dict) -> Request:
    begin = perf_counter()
    try:
        status, body = client.request("POST", path, payload)
    except CLIENT_ERRORS:
        status, body = 0, {}
    return Request(perf_counter() - begin, status, body.get("version"))


def _read(client, pair: Tuple[int, int]) -> Request:
    return _timed(client, "/resistance", {"u": pair[0], "v": pair[1]})


def drive(port: int, payloads: List[dict], pairs: List[Sequence[Tuple[int, int]]],
          warmup: Sequence[Tuple[int, int]] = ()) -> List[Cycle]:
    """Post ``payloads[i]`` then read ``pairs[i]``, for every cycle ``i``.

    The ``warmup`` pairs are read, untimed, on the initial epoch first.
    """
    from repro.api import connect

    with connect(port=port, timeout=60.0) as client:
        for pair in warmup:
            _read(client, pair)
        cycles = []
        for payload, cycle_pairs in zip(payloads, pairs):
            write = _timed(client, "/update", payload)
            cycles.append(Cycle(write=write, events=sum(len(v) for v in payload.values()),
                                reads=[_read(client, pair) for pair in cycle_pairs]))
    return cycles
