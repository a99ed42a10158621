"""Worker tier: one OS process per shard, each a plain cache server.

The in-process sharded store (:mod:`repro.service.sharding`) fans a
single event loop across ``N`` :class:`~repro.service.store.PolicyStore`
shards — which buys batching, not parallelism: the committed service
benchmark shows the 4-shard single-process row *losing* to one shard
because every shard still shares one GIL. The cluster's answer is to
make each shard a process. A worker is nothing new: it is exactly
``CacheServer(PolicyStore(make_policy(...)))`` — the same store, server,
protocol, and test surface as the single-process service — listening on
an ephemeral port it reports back through a pipe.

**Seeding is the contract.** :func:`build_specs` derives per-worker
capacities with :func:`~repro.service.sharding.split_capacity` and seeds
with ``derive_seed(seed, "shard", index)`` (seed itself when there is
one worker) — byte-for-byte the scheme ``ShardedPolicyStore.build``
uses. A cluster of ``N`` workers is therefore *differentially pinned*
against the in-process ``shards=N`` store and against the offline
simulator: :func:`cluster_reference` replays a trace through the same
ring partition + derived-seed policies entirely offline, and its hit
rate must match a live cluster replay exactly.

Processes use the ``spawn`` start method: forking a process that owns a
running event loop (the supervisor's) duplicates loop internals and is
a known footgun; spawn re-imports this module fresh, which is also why
the entry point must be a module-level function.
"""

from __future__ import annotations

import asyncio
import contextlib
import multiprocessing
import signal
from dataclasses import dataclass
from multiprocessing.connection import Connection
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.core.registry import make_policy
from repro.errors import ReproError, ServiceError
from repro.rng import derive_seed
from repro.cluster.ring import DEFAULT_VNODES, HashRing
from repro.service.server import CacheServer
from repro.service.sharding import split_capacity
from repro.service.store import PolicyStore
from repro.traces.base import Trace, as_page_array

__all__ = [
    "WORKER_MAX_INFLIGHT",
    "WorkerSpec",
    "WorkerHandle",
    "build_specs",
    "build_worker_store",
    "spawn_worker",
    "cluster_reference",
]

#: Per-connection pipelining window inside a worker. The router's links
#: pipeline aggressively (they multiplex many client connections), so
#: workers get a deeper window than the client-facing default of 32.
WORKER_MAX_INFLIGHT = 256

#: How long a freshly spawned worker may take to report its port.
SPAWN_TIMEOUT = 60.0


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs to build itself (picklable).

    ``trace_path`` turns on request tracing inside the worker process:
    spans land in an NDJSON file at that path, stamped with the worker's
    node name as the service and seeded per-worker so span ids stay
    deterministic and collision-free across the tier.
    """

    index: int
    node: str
    policy: str
    capacity: int
    seed: int
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the actual port comes back over the pipe
    max_inflight: int = WORKER_MAX_INFLIGHT
    trace_path: str | None = None
    trace_sample: float = 1.0
    batch_kernel: bool = True


def build_specs(
    policy: str,
    capacity: int,
    workers: int,
    *,
    seed: int = 0,
    host: str = "127.0.0.1",
    max_inflight: int = WORKER_MAX_INFLIGHT,
    trace_dir: str | None = None,
    trace_sample: float = 1.0,
    batch_kernel: bool = True,
) -> list[WorkerSpec]:
    """Specs for an ``N``-worker tier, seeded like ``ShardedPolicyStore``.

    Capacity splits evenly (first ``capacity % workers`` workers get the
    extra slot); worker ``i`` is named ``w{i}`` and seeded
    ``derive_seed(seed, "shard", i)`` — or ``seed`` itself when
    ``workers == 1``, so a one-worker cluster is pin-identical to the
    unsharded single-process server. ``trace_dir`` gives each worker a
    span file ``spans-w{i}.ndjson`` there (see :mod:`repro.obs.tracing`).
    """
    capacities = split_capacity(capacity, workers)
    specs = []
    for index, worker_capacity in enumerate(capacities):
        worker_seed = seed if workers == 1 else derive_seed(seed, "shard", index)
        trace_path = None
        if trace_dir is not None:
            trace_path = str(Path(trace_dir) / f"spans-w{index}.ndjson")
        specs.append(
            WorkerSpec(
                index=index,
                node=f"w{index}",
                policy=policy,
                capacity=worker_capacity,
                seed=worker_seed,
                host=host,
                max_inflight=max_inflight,
                trace_path=trace_path,
                trace_sample=trace_sample,
                batch_kernel=batch_kernel,
            )
        )
    return specs


def build_worker_store(spec: WorkerSpec) -> PolicyStore:
    """The spec's store (also used in-process by router/chaos tests)."""
    try:
        policy = make_policy(spec.policy, spec.capacity, seed=spec.seed)
    except TypeError:  # deterministic policies take no seed
        policy = make_policy(spec.policy, spec.capacity)
    return PolicyStore(policy, batch_kernel=spec.batch_kernel)


# -- process entry (must be module-level for the spawn start method) ----------
def _worker_entry(spec: WorkerSpec, conn: Connection) -> None:
    from repro.service.loop import install_best_event_loop

    install_best_event_loop()
    with contextlib.suppress(KeyboardInterrupt):
        asyncio.run(_worker_main(spec, conn))


async def _worker_main(spec: WorkerSpec, conn: Connection) -> None:
    try:
        server = CacheServer(
            build_worker_store(spec),
            host=spec.host,
            port=spec.port,
            max_inflight=spec.max_inflight,
        )
        await server.start()
    except ReproError as exc:
        # a typed startup error (bad capacity, port in use, ...) goes to
        # the parent over the handshake pipe instead of as a traceback
        conn.send((spec.node, None, f"{type(exc).__name__}: {exc}"))
        conn.close()
        return
    if spec.trace_path is not None:
        from repro.obs import tracing

        tracing.configure(
            path=spec.trace_path,
            service=spec.node,
            seed=spec.seed,
            sample=spec.trace_sample,
        )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    with contextlib.suppress(NotImplementedError, ValueError):
        loop.add_signal_handler(signal.SIGTERM, stop.set)
    # A terminal Ctrl-C delivers SIGINT to the whole process group —
    # supervisor AND workers. Shutdown must stay coordinated (the
    # supervisor fetches final stats, drains the router, then SIGTERMs
    # us), so workers ignore SIGINT rather than racing to exit.
    with contextlib.suppress(NotImplementedError, ValueError, OSError):
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    conn.send((spec.node, server.port, None))
    conn.close()
    await stop.wait()
    await server.stop()
    if spec.trace_path is not None:
        from repro.obs import tracing

        tracing.shutdown()  # flush + close the owned span file


class WorkerHandle:
    """A live worker process and where to reach it."""

    def __init__(self, spec: WorkerSpec, process: multiprocessing.process.BaseProcess, port: int):
        self.spec = spec
        self.process = process
        self.port = port

    @property
    def node(self) -> str:
        return self.spec.node

    @property
    def host(self) -> str:
        return self.spec.host

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def terminate(self, grace: float = 5.0) -> None:
        """SIGTERM (workers drain and exit), escalate to SIGKILL after ``grace``."""
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(grace)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(grace)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "exited"
        return f"WorkerHandle({self.node} @ {self.host}:{self.port}, {state})"


def spawn_worker(spec: WorkerSpec, *, timeout: float = SPAWN_TIMEOUT) -> WorkerHandle:
    """Start one worker process; block until it reports its bound port.

    Blocking (spawn re-imports the interpreter, ~0.5s): callers on an
    event loop should wrap this in ``asyncio.to_thread``.
    """
    ctx = multiprocessing.get_context("spawn")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    process = ctx.Process(
        target=_worker_entry,
        args=(spec, child_conn),
        name=f"repro-worker-{spec.node}",
        daemon=True,
    )
    process.start()
    child_conn.close()
    try:
        if not parent_conn.poll(timeout):
            raise ServiceError(
                f"worker {spec.node} did not report a port within {timeout}s"
            )
        node, port, error = parent_conn.recv()
        if error is not None:
            raise ServiceError(f"worker {spec.node}: {error}")
    except (ServiceError, EOFError, OSError) as exc:
        process.kill()
        process.join(5.0)
        if isinstance(exc, ServiceError):
            raise
        raise ServiceError(
            f"worker {spec.node} died during startup (exit code {process.exitcode})"
        ) from exc
    finally:
        parent_conn.close()
    if node != spec.node:  # pragma: no cover - pipe is 1:1 with the child
        process.kill()
        process.join(5.0)
        raise ServiceError(f"worker handshake mismatch: sent {spec.node}, got {node}")
    return WorkerHandle(spec, process, port)


def cluster_reference(
    policy: str,
    capacity: int,
    workers: int,
    trace: Trace | np.ndarray | Sequence[int],
    *,
    seed: int = 0,
    vnodes: int = DEFAULT_VNODES,
) -> dict[str, Any]:
    """Offline ground truth for a cluster replay of ``trace``.

    Partitions the trace by ring owner (preserving order within each
    partition — exactly what the router's per-connection FIFO guarantees
    for a one-connection replay), runs each partition through the sim
    engine's policy with that worker's derived seed and split capacity,
    and merges the counts. A live ``workers=N`` cluster replaying the
    same trace over one connection must report this exact hit rate.
    """
    specs = build_specs(policy, capacity, workers, seed=seed)
    ring = HashRing([spec.node for spec in specs], vnodes=vnodes)
    pages = as_page_array(trace)
    owners = np.array(ring.owners(pages))
    accesses = misses = 0
    per_node: dict[str, Any] = {}
    for spec in specs:
        partition = pages[owners == spec.node]
        if len(partition) == 0:
            per_node[spec.node] = {"accesses": 0, "misses": 0, "capacity": spec.capacity}
            continue
        try:
            node_policy = make_policy(spec.policy, spec.capacity, seed=spec.seed)
        except TypeError:
            node_policy = make_policy(spec.policy, spec.capacity)
        result = node_policy.run(partition)
        accesses += result.num_accesses
        misses += result.num_misses
        per_node[spec.node] = {
            "accesses": result.num_accesses,
            "misses": result.num_misses,
            "capacity": spec.capacity,
        }
    hits = accesses - misses
    return {
        "policy": policy,
        "capacity": capacity,
        "workers": workers,
        "accesses": accesses,
        "hits": hits,
        "misses": misses,
        "hit_rate": hits / accesses if accesses else 0.0,
        "per_node": per_node,
    }
