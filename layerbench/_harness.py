"""Plumbing shared by the layer benchmark: provenance, output, spans, processes.

Nothing here imports the program under test, so the module loads (and the
benchmark can report a missing program cleanly) in a directory that holds
only the benchmark.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

__all__ = [
    "available_cpus",
    "provenance",
    "percentile",
    "metric_line",
    "result_line",
    "SpanRecorder",
    "spawn",
    "read_line",
    "process_tree",
    "tree_vmhwm_mb",
    "self_vmhwm_mb",
    "stop_process",
]


def available_cpus() -> int:
    """CPUs this process may run on (affinity mask, not the host total)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _git_commit(root: Path) -> str | None:
    """HEAD's commit read straight from ``.git`` (no git binary needed)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def provenance(root: Path) -> dict[str, Any]:
    """Host facts every committed number is reported with."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    try:
        import uvloop  # noqa: F401

        loop = "uvloop available (the serve/cluster CLI installs it)"
    except ImportError:
        loop = "asyncio"
    return {
        "cpus": available_cpus(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "event_loop": loop,
        "git_commit": _git_commit(root),
        "generated_unix": int(time.time()),
    }


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Exact nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile() of an empty sample")
    rank = max(1, min(len(sorted_values), int(q * len(sorted_values) + 0.5)))
    return float(sorted_values[rank - 1])


def metric_line(name: str, value: float, unit: str, note: str = "") -> str:
    """One human-readable metric row: name, value, unit, optional note."""
    return f"  {name:<44} {value:>16.6g} {unit:<9} {note}".rstrip()


def result_line(
    *, correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]
) -> str:
    """The final machine-readable line: ``{correct, attempted, failed, metrics}``."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )


class SpanRecorder:
    """In-memory spans around layer calls: name, start, end, parent, trace id.

    Spans stay in memory until :meth:`write` at the end of the run. Span
    records from the program's own tracer (``repro.obs.tracing``) can be
    fed in through :meth:`emit`, so this object doubles as a span sink.
    """

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._next = 0
        self._stack: list[dict[str, Any]] = []

    def _new_id(self) -> str:
        self._next += 1
        return f"{self._next:x}"

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        """Time the body; nested spans become children of the open one."""
        parent = self._stack[-1] if self._stack else None
        record: dict[str, Any] = {
            "name": name,
            "trace": parent["trace"] if parent else self._new_id(),
            "span": self._new_id(),
            "parent": parent["span"] if parent else None,
            **attrs,
        }
        self._stack.append(record)
        record["start_ns"] = time.perf_counter_ns()
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(record)

    def emit(self, event: dict[str, Any]) -> None:
        """Sink entry point for the program's span records (``us`` durations)."""
        if event.get("ev") != "span":
            return
        end = time.perf_counter_ns()
        record = {k: v for k, v in event.items() if k not in ("ev", "ts", "us")}
        record.setdefault("parent", None)
        record["start_ns"] = end - int(event["us"]) * 1000
        record["end_ns"] = end
        self.spans.append(record)

    def total_ns(self, name: str) -> int:
        """Summed duration of every span called ``name``."""
        return sum(s["end_ns"] - s["start_ns"] for s in self.spans if s["name"] == name)

    def self_ns(self) -> dict[str, int]:
        """Total self time per span name: duration minus the union of its
        children's intervals."""
        children: dict[str, list[tuple[int, int]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
        out: dict[str, int] = {}
        for s in self.spans:
            covered = 0
            cursor = s["start_ns"]
            for lo, hi in sorted(children.get(s["span"], ())):
                lo, hi = max(lo, cursor), min(hi, s["end_ns"])
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            own = s["end_ns"] - s["start_ns"] - covered
            out[s["name"]] = out.get(s["name"], 0) + own
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, separators=(",", ":"), default=str) + "\n")


def spawn(argv: list[str], *, cwd: Path, env: dict[str, str]) -> subprocess.Popen:
    """Start a Python child with an unbuffered binary stdout, so
    :func:`read_line`'s ``select`` never misses a line already read into a
    Python buffer."""
    return subprocess.Popen(
        [sys.executable, *argv], stdout=subprocess.PIPE, bufsize=0, cwd=cwd, env=env
    )


def read_line(proc: subprocess.Popen, *, timeout: float) -> str:
    """One stdout line of a :func:`spawn`-ed child, or an error after ``timeout`` s."""
    deadline = time.monotonic() + timeout
    line = bytearray()
    while not line.endswith(b"\n"):
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        if not ready:
            raise RuntimeError(f"pid {proc.pid} printed no full line for {timeout}s")
        byte = proc.stdout.read(1)
        if not byte:
            break
        line += byte
    return line.decode()


def process_tree(pid: int) -> list[int]:
    """``pid`` and every live descendant, found by walking ``/proc``."""
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        parents.setdefault(ppid, []).append(int(entry))
    tree, todo = [], [pid]
    while todo:
        current = todo.pop()
        tree.append(current)
        todo.extend(parents.get(current, ()))
    return tree


def _vmhwm_kb(pid: int | str) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_vmhwm_mb(pids: Iterable[int]) -> float:
    """Sum of the peak resident sets (``VmHWM``) of a process tree, in MB."""
    return sum(_vmhwm_kb(pid) for pid in pids) / 1024.0


def self_vmhwm_mb() -> float:
    """This process's peak resident set, in MB."""
    return _vmhwm_kb("self") / 1024.0


def _start_time(pid: int) -> str | None:
    """Kernel start time of a live ``pid`` (tells it from a reused pid);
    ``None`` once it has exited, zombies included."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return None if fields[0] in ("Z", "X") else fields[19]


def stop_process(proc: subprocess.Popen, *, sig: int = signal.SIGTERM, timeout: float = 15.0) -> None:
    """Signal a child and wait for it; kill it, and any descendant it left
    behind, if it does not end within ``timeout`` seconds."""
    if proc.poll() is not None:
        return
    descendants = [(pid, _start_time(pid)) for pid in process_tree(proc.pid)[1:]]
    with contextlib.suppress(ProcessLookupError):
        proc.send_signal(sig)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"warning: pid {proc.pid} ignored signal {sig}; killing", file=sys.stderr)
        proc.kill()
        proc.wait()
    deadline = time.monotonic() + timeout
    for pid, started in descendants:
        while started is not None and _start_time(pid) == started:
            if time.monotonic() > deadline:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            time.sleep(0.02)
