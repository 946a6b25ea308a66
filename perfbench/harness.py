"""Shared plumbing for the perfbench workloads.

* :class:`SpanRecorder` times calls into the program's public functions by
  wrapping them from outside (nothing under ``src/`` is edited), keeping
  per-name totals, direct-child totals (for self times) and call counts.
* :func:`percentile` / :func:`summary` reduce samples the same way for
  every workload.
* :func:`machine_metadata` records what a result was measured on.
* :class:`Speedometer` times a fixed reference probe (interpreter-bound, or
  a :class:`MemoryProbe`) between operations so gated times can be
  expressed at a fixed reference speed (see README).
* :class:`CounterLedger` persists the exact work counters of each traced
  run so a later run of the same code, workload, seed and length can be
  compared with them; any difference is nondeterminism and fails the run.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import hashlib
import json
import os
import platform
import resource
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of a non-empty sample."""
    if len(values) == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def summary(values) -> dict:
    """p50/p90/p99 and the sample count (the form every report line uses)."""
    return {
        "p50": percentile(values, 50),
        "p90": percentile(values, 90),
        "p99": percentile(values, 99),
        "n": len(values),
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def distinct(values) -> list:
    """Every distinct value of a per-op counter, sorted (what the ledger compares)."""
    return sorted(set(values))


def mode(values) -> float:
    """Most frequent value; ties go to the smallest (exact per-op counters)."""
    counts = Counter(values)
    best = max(counts.values())
    return min(v for v, c in counts.items() if c == best)


#: Seconds one reference probe takes on the reference machine (2-vCPU Xeon
#: VM, Python 3.11, numpy 2.4, in its fast regime).  Gated times are scaled
#: by ``nominal / measured probe time`` so that the host's speed swings
#: (1.5-1.8x over seconds to minutes on shared VMs) cancel out.
REF_NOMINAL_S = 0.7e-3
#: The same for a :class:`MemoryProbe` over 16 x 331,016 float64 (42 MB).
MEMORY_NOMINAL_S = 20e-3
#: Probes whose median gives :meth:`Speedometer.scale` by default.
SCALE_WINDOW = 5
_REF_ARRAY = np.random.default_rng(0).standard_normal((8, 32))


def _reference_work() -> float:
    """Fixed interpreter-bound work: dict updates, then small-array numpy ops."""
    d: dict[int, int] = {}
    s = 0
    for i in range(1500):
        k = i % 13
        d[k] = d.get(k, 0) + i
        s += k
    a = _REF_ARRAY
    for _ in range(60):
        b = a * 1.5
        c = b + a
        a = (c - b) * 0.5 + np.maximum(a, 0.0) * 0.5
    return s + float(a.sum())


class MemoryProbe:
    """Fixed streaming work over a working set of a given ``(rows, cols)`` shape.

    For workloads whose time goes to large-array numpy work rather than the
    interpreter: their speed follows the shared last-level cache and memory
    bandwidth, which the interpreter-bound probe does not see.  The buffers
    are allocated once and stay resident; :attr:`nbytes` says how much
    resident memory the probe adds to its process.
    """

    def __init__(self, shape: tuple[int, int]) -> None:
        self.src = np.random.default_rng(0).standard_normal(shape)
        self.dst = np.empty_like(self.src)
        self.row = np.empty(shape[1])
        self()

    @property
    def nbytes(self) -> int:
        return self.src.nbytes + self.dst.nbytes + self.row.nbytes

    def __call__(self) -> None:
        np.sum(self.src, axis=0, out=self.row)
        np.multiply(self.src, 0.5, out=self.dst)
        np.add(self.dst, self.row, out=self.dst)


class Speedometer:
    """The machine's current speed, from a reference probe run between operations.

    ``scale()`` is ``nominal_s`` over the median of the last
    :data:`SCALE_WINDOW` probes: multiply a raw duration by it to express
    the duration at the reference speed.  ``work`` is the probe (by default
    the interpreter-bound :func:`_reference_work`).  Probes run only where
    the caller asks (between timed operations, never inside one), on the
    caller's thread: the host's swings are per core, so a probe elsewhere
    does not track them.  ``clock``
    times the probe; a thread running beside GIL-holding workers passes
    ``time.thread_time`` so that waiting for the GIL is not counted.
    """

    def __init__(self, every_s: float = 0.05, clock=time.perf_counter,
                 work=_reference_work, nominal_s: float = REF_NOMINAL_S) -> None:
        self.every_s = every_s
        self.clock = clock
        self.work = work
        self.nominal_s = nominal_s
        self.samples: list[float] = []
        self._last = -float("inf")

    def probe(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = self.clock()
            self.work()
            self.samples.append(self.clock() - t0)
            self._last = time.perf_counter()

    def maybe_probe(self) -> None:
        if time.perf_counter() - self._last >= self.every_s:
            self.probe()

    def scale(self, last: int | None = None) -> float:
        """Reference speed over the median of the last ``last`` (default :data:`SCALE_WINDOW`) probes."""
        return self.nominal_s / float(np.median(self.samples[-(last or SCALE_WINDOW):]))

    def overall(self) -> float:
        """Median speed factor over the whole run (for the report)."""
        return self.nominal_s / float(np.median(self.samples))


class SpanRecorder:
    """Times calls into wrapped functions from outside the program.

    A span's self time is its duration minus the durations of the spans
    that ran directly inside it on the same thread, so self times of
    nested spans plus the uncovered time of the outermost span add up to
    the outermost span's duration exactly.  ``events`` keeps one
    ``(name, start, duration, key)`` tuple per call of a function patched
    with a ``key`` extractor.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.total: dict[str, float] = defaultdict(float)
        self.child: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.events: list[tuple[str, float, float, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, name: str, start: float, key) -> float:
        duration = self.clock() - start
        stack = self._stack()
        child = stack.pop()
        if stack:
            stack[-1] += duration
        with self._lock:
            self.total[name] += duration
            self.child[name] += child
            self.calls[name] += 1
        if key is not None:
            self.events.append((name, start, duration, key))
        return duration

    @contextmanager
    def span(self, name: str):
        """Time a block of the benchmark's own code as a span."""
        self._stack().append(0.0)
        start = self.clock()
        try:
            yield
        finally:
            self._close(name, start, None)

    def timed(self, name: str, fn, key=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._stack().append(0.0)
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, start, key(args, kwargs) if key else None)

        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr: str, name: str, key=None, count_only=False) -> None:
        """Replace ``owner.attr`` with a timing (or counting) wrapper."""
        original = getattr(owner, attr)
        wrapped = (
            self.counted(name, original)
            if count_only
            else self.timed(name, original, key)
        )
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_time(self, name: str) -> float:
        return self.total[name] - self.child[name]


def closure(wall_s: float, parts: dict[str, float], tolerance_s: float) -> dict:
    """Check that layer self times plus an explicit ``other`` make the wall time.

    ``parts`` are measured independently of one another; ``other`` is what
    none of them covers.  The check fails when any part, or ``other``, is
    negative beyond ``tolerance_s`` — a sign that two parts overlap or that
    a part was measured outside the wall window.
    """
    other = wall_s - sum(parts.values())
    negative = [k for k, v in {**parts, "other": other}.items() if v < -tolerance_s]
    return {
        "wall_s": wall_s,
        "parts_s": dict(parts),
        "other_s": other,
        "ok": not negative,
        "negative": negative,
    }


def _blas_threads() -> int | str:
    """Thread count of the BLAS numpy is linked against, or why it is unknown."""
    libs = glob.glob(
        os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*")
    )
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var):
            return f"{var}={os.environ[var]}"
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: str) -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_path = os.path.join(root, ".git", ref)
            if os.path.exists(ref_path):
                with open(ref_path) as fh:
                    return fh.read().strip()
            with open(os.path.join(root, ".git", "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
        return head
    except OSError:
        return "unavailable (not a git checkout)"


def machine_metadata(root: str, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    from repro import telemetry

    return {
        "workload": workload,
        "seed": seed,
        "run_seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(root),
        "telemetry_enabled": bool(telemetry.enabled),
        "platform": platform.platform(),
    }


def code_fingerprint(root: str) -> str:
    """SHA-256 over the paths and contents of every Python file under src/ and perfbench/."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read() + b"\0")
    return digest.hexdigest()


class CounterLedger:
    """Exact work counters of earlier traced runs, keyed by code/workload/seed/length.

    The key carries the code's fingerprint, so runs of different code are
    never compared: a change may legitimately alter its counters.  Per-op
    counters are stored as the sorted list of every distinct value seen in
    the run, so a value that shows up in a minority of ops is compared too.
    """

    def __init__(self, path: str) -> None:
        self.path = path

    def compare_and_store(self, key: str, counters: dict) -> list[str]:
        """Differences from the stored run with this key (then store this one)."""
        try:
            with open(self.path) as fh:
                ledger = json.load(fh)
        except (OSError, ValueError):
            ledger = {}
        # Round-trip through JSON so tuples and lists compare alike.
        counters = json.loads(json.dumps(counters))
        previous = ledger.get(key)
        diffs = []
        if previous is not None:
            for name in sorted(set(previous) | set(counters)):
                if previous.get(name) != counters.get(name):
                    diffs.append(
                        f"{name}: was {previous.get(name)!r}, now {counters.get(name)!r}"
                    )
        ledger[key] = counters
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(ledger, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)
        return diffs


def say(line: str) -> None:
    """One human-readable report line (everything before the final JSON)."""
    print(line, flush=True)


def report_metric(name: str, value: float, unit: str, n: int | None = None) -> None:
    count = f" (n={n})" if n is not None else ""
    say(f"  {name:<34s} {value:14.6f} {unit}{count}")


def fail_exit(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)
