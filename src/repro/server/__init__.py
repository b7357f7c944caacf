"""Network front end: stdlib-asyncio HTTP serving over :class:`SparsifierService`.

The package is dependency-free by design: it speaks HTTP/1.1 directly over
stdlib asyncio.  See :mod:`repro.server.app` for the architecture.

Public surface (re-exported by :mod:`repro.api`)::

    from repro.api import serve, connect, ServerConfig

    serve(service, ServerConfig(port=8752))        # blocking, SIGTERM-graceful
    client = connect(port=8752)
    client.update(insertions=[(0, 5, 1.0)])        # every write is POST /update
    client.update(deletions=[(0, 5)], weight_changes=[(0, 1, 0.5)])
    client.resistance(0, 1)
"""

from repro.server.app import (
    ServerConfig,
    SparsifierHTTPServer,
    serve,
)
from repro.server.client import ServerRequestError, SparsifierClient, connect
from repro.server.http import HttpRequest, ProtocolError
from repro.server.metrics import LatencyHistogram, ServerMetrics

__all__ = [
    "HttpRequest",
    "LatencyHistogram",
    "ProtocolError",
    "ServerConfig",
    "ServerMetrics",
    "ServerRequestError",
    "SparsifierClient",
    "SparsifierHTTPServer",
    "connect",
    "serve",
]
