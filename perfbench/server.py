"""The measured live-chat server process.

``python3 perfbench/server.py`` starts a ``ChatServer`` on an ephemeral
localhost port, dispatching through a ``SchedulerExecutor`` running the
``elsc`` policy, prints ``listening <port>`` and then obeys one command
per stdin line, answering each with one JSON line on stdout:

* ``mark`` — start a measurement window (CPU time, counters);
* ``trace`` — wrap the protocol, executor and policy (see
  ``instrument.py``), then ``mark``;
* ``report`` — counters, CPU seconds and, once traced, span totals for
  the window since the last mark;
* ``calibrate`` — run the host-speed calibration kernel here, on the
  server's vCPU, and give its wall seconds.

End of input stops the server and exits the process.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from common import peak_rss_mb, time_calibration  # noqa: E402
from instrument import instrument_server  # noqa: E402
from spans import SpanRecorder  # noqa: E402

SCHEDULER = "elsc"
COUNTERS = ("completed", "deliveries", "shed", "expired", "dropped_fanout", "protocol_errors")
STAT_FIELDS = ("schedule_calls", "tasks_examined", "recalc_entries")


class Window:
    """Counter and CPU baselines for the current measurement window."""

    def __init__(self, server, executor) -> None:
        self.server, self.executor = server, executor
        self.rec: SpanRecorder | None = None
        self.mark()

    def _stats(self) -> dict[str, int]:
        stats = self.executor.merged_stats()
        return {f: getattr(stats, f) for f in STAT_FIELDS}

    def mark(self) -> dict:
        self.cpu0 = time.process_time()
        self.wall0 = time.perf_counter()
        self.base = {k: getattr(self.server, k) for k in COUNTERS}
        self.stats0 = self._stats()
        return {"ok": True}

    def trace(self) -> dict:
        if self.rec is None:
            self.rec = SpanRecorder()
            instrument_server(self.executor, self.rec)
        return self.mark()

    def report(self) -> dict:
        stats = self._stats()
        return {
            "cpu_s": time.process_time() - self.cpu0,
            "wall_s": time.perf_counter() - self.wall0,
            "peak_rss_mb": peak_rss_mb(),
            **{k: getattr(self.server, k) - self.base[k] for k in COUNTERS},
            **{k: stats[k] - self.stats0[k] for k in STAT_FIELDS},
            "spans": self.rec.totals() if self.rec is not None else {},
        }


async def main() -> None:
    from repro.serve.config import ServeConfig
    from repro.serve.executor import SchedulerExecutor
    from repro.serve.server import ChatServer

    executor = SchedulerExecutor.from_name(SCHEDULER)
    server = ChatServer(executor, ServeConfig(port=0))
    await server.start()
    loop = asyncio.get_running_loop()
    commands = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(commands), sys.stdin
    )
    window = Window(server, executor)
    print(f"listening {server.port}", flush=True)
    try:
        while line := (await commands.readline()).decode().strip():
            handler = {
                "mark": window.mark,
                "trace": window.trace,
                "report": window.report,
                "calibrate": lambda: {"calibration_s": time_calibration()},
            }
            reply = handler[line]()
            print(json.dumps(reply), flush=True)
    finally:
        await server.stop()


if __name__ == "__main__":
    asyncio.run(main())
