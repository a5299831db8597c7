#!/usr/bin/env python3
"""The real thing: pty shell + AES-OCB + UDP sockets on localhost.

Starts an unprivileged server running /bin/sh on a pseudo-terminal, prints
the same ``MOSH CONNECT <port> <key>`` bootstrap line as mosh-server,
connects a headless client over real UDP datagrams, types a command, and
shows the synchronized screen.

Run:  python examples/real_udp_demo.py
"""

import io
import os
import threading
import time

from repro.app.client import ClientApp
from repro.app.server import ServerApp


def main() -> None:
    server = ServerApp(argv=["/bin/sh"], bind_host="127.0.0.1")
    print(server.connect_line())
    thread = threading.Thread(
        target=server.run, kwargs={"idle_exit_ms": 20_000}, daemon=True
    )
    thread.start()

    read_fd, write_fd = os.pipe()
    client = ClientApp(
        "127.0.0.1",
        server.connection.port,
        server.key,
        server.conn_id,
        stdin_fd=read_fd,
        stdout=io.BytesIO(),
    )

    deadline = time.monotonic() + 5.0
    typed = False
    while time.monotonic() < deadline:
        client.step(timeout_ms=20.0)
        if not typed and client.transport.remote_state_num > 0:
            os.write(write_fd, b"echo SSP over real UDP works\n")
            typed = True
        screen = client.transport.remote_state.fb.screen_text()
        if "SSP over real UDP works" in screen and "echo" not in screen.splitlines()[-24]:
            pass
    print("--- client screen (synchronized over UDP) ---")
    for line in client.transport.remote_state.fb.screen_text().splitlines():
        if line.strip():
            print(" ", line.rstrip())
    found = "SSP over real UDP works" in client.transport.remote_state.fb.screen_text()
    print("\ncommand output visible on client:", found)
    client.close()
    server.running = False
    server.shutdown()
    os.close(write_fd)
    os.close(read_fd)


if __name__ == "__main__":
    main()
