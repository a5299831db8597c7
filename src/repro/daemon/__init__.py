"""The multi-session server daemon.

One process, one UDP port, N concurrent SSP sessions: a
:class:`~repro.daemon.mux.SessionMux` routes datagrams by cleartext
connection id only (an unframed datagram is dropped before any crypto
work), a :class:`~repro.daemon.manager.SessionManager` owns session
lifecycle (spawn, idle reaping, teardown), and
:class:`~repro.daemon.app.DaemonApp` binds both to real sockets and
ptys. See DESIGN.md's "Session daemon" section for the routing rule.

``DaemonApp`` is re-exported lazily: the mux and manager are
substrate-neutral (simulator harnesses import them), while the app pulls
in the real-socket and pty modules.
"""

from repro.daemon.manager import SessionManager, SessionRecord
from repro.daemon.mux import SessionMux, VirtualEndpoint

__all__ = [
    "DaemonApp",
    "SessionManager",
    "SessionRecord",
    "SessionMux",
    "VirtualEndpoint",
]


def __getattr__(name: str):
    if name == "DaemonApp":
        from repro.daemon.app import DaemonApp

        return DaemonApp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
