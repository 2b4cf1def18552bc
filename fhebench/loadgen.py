"""Open-loop load generator: submit each job at its due time, in-process.

The generator is a coroutine on the benchmark's own event loop, the
same loop the server's scheduler dispatches from; it starts no threads
of its own, so the only other threads are the server's workers.  A job
is timed from its *due* time, so a generator or server stall is charged
to every job it delayed.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

from repro.service import FheServer

from fhebench.workloads import Job

#: Lead time between starting the clock and the first due time.
LEAD_S = 0.05


@dataclass
class Outcome:
    """What happened to one submitted job (times are perf_counter)."""

    job: Job
    due: float
    sent: float
    done: float
    result: object = None
    error: Exception | None = None

    @property
    def latency_s(self) -> float:
        return self.done - self.due


async def _submit(server: FheServer, job: Job, due: float,
                  sent: float) -> Outcome:
    try:
        result = await server.submit(job.request)
    except Exception as exc:  # rejected, overloaded or failed: a miss
        return Outcome(job, due, sent, time.perf_counter(), error=exc)
    return Outcome(job, due, sent, time.perf_counter(), result)


async def _drive(server: FheServer, jobs: list[Job]) -> list[Outcome]:
    loop = asyncio.get_running_loop()
    server.scheduler.start()
    try:
        t0 = time.perf_counter() + LEAD_S
        tasks = []
        for job in jobs:
            due = t0 + job.due
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(loop.create_task(
                _submit(server, job, due, time.perf_counter())))
        return await asyncio.gather(*tasks)
    finally:
        await server.scheduler.stop()


def run(server: FheServer, jobs: list[Job]) -> list[Outcome]:
    """Submit ``jobs`` (sorted by due time) open-loop; wait for all."""
    return asyncio.run(_drive(server, jobs))


def drain_seconds(outcomes: list[Outcome]) -> float:
    """Time from the first due time until the last job settled."""
    return max(o.done for o in outcomes) - min(o.due for o in outcomes)
