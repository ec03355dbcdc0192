"""``start_line_server`` with an orderly way down, shared by server and probes."""

from __future__ import annotations

import asyncio
from typing import Callable

from repro.serving.service import start_line_server


async def serve_wire(
    handler: Callable[[list], list],
    started: Callable[[int, Callable[[], None]], None],
) -> None:
    """Serve ``handler`` on an ephemeral local port until asked to stop.

    ``started(port, request_stop)`` is called once the socket is bound;
    ``request_stop`` may be called from any thread.
    """
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    server = await start_line_server(handler, "127.0.0.1", 0)
    started(server.sockets[0].getsockname()[1], lambda: loop.call_soon_threadsafe(stop.set))
    try:
        await stop.wait()
    finally:
        server.close()
        await server.wait_closed()
        # Connections the peer has just closed finish on their own; letting
        # asyncio.run cancel them mid-close makes the transport log tracebacks.
        closing = asyncio.all_tasks() - {asyncio.current_task()}
        if closing:
            await asyncio.wait(closing, timeout=2.0)
