"""``service_mixed``: ``SimulationService.submit`` under a seeded job mix.

One caller thread drives the service in two phases:

* an open loop at :data:`OPEN_RATE` jobs/s, split into trials; each job is
  timed from the moment it was due, so a stall in the service also charges
  the wait it imposes on later jobs.  A trial whose generator ran later
  than :data:`LATE_P90_BOUND_MS` / :data:`LATE_MAX_BOUND_MS` is marked
  invalid and left out of the latency figures;
* a closed loop holding :data:`CLOSED_OUTSTANDING` jobs outstanding, which
  measures saturated throughput and the latency a caller with that many
  requests in flight sees.  It runs in segments, each drained before the
  next and scaled to reference speed by the probes taken during it.

The gated figures come from the closed loop: latency of the jobs the
service executes (cache hits resolve inside ``submit``) and completions per
second.  On the 2-vCPU VMs this
benchmark was built on, open-loop latency at 200/s moved 1.5-2x between runs
of the same code (GIL hand-offs between the generator and two workers
amplify the host's speed swings), far beyond any usable bound; it is still
measured, checked and printed, and its per-layer split is in the traced run.

The process runs pinned to one CPU (still ``concurrency = nproc`` worker
threads).  Unpinned, the GIL holder hops between vCPUs whose speeds differ
from moment to moment, so a reference probe on the caller's thread cannot
track the speed the workers see: in one set of ten runs three ran at half
speed and the closed-loop spread reached 0.26.  Pinned, caller and workers
share one core and the probe tracks it.  A change that needs a second core
(a process pool, say) is therefore not measured by this workload.

The mix: ~45% "hot" steptime specs drawn from 16 keys (cache reads once the
first copy has finished; identical jobs in flight are not coalesced),
~45% distinct steptime specs (cache misses running ``core.step_time``,
``comm`` and the overlap model) and ~10% accounting-mode ``cluster`` jobs
(4 tenants on a 4x4 pod with sampled chip failures).
"""

from __future__ import annotations

import os
import time
from collections import deque

import numpy as np

from harness import SpanRecorder, Speedometer, closure, peak_rss_mb, percentile, report_metric, say

OPEN_RATE = 200.0
OPEN_SHARE = 0.2
TRIAL_SECONDS = 2.0
CLOSED_OUTSTANDING = 8
#: The closed loop drains every CLOSED_SEGMENT_S and scales each segment by
#: the probes taken in it (see ``Driver.closed_loop``).
CLOSED_SEGMENT_S = 0.5
#: Jobs generated per closed-loop second; the loop stops early if it runs out.
CLOSED_CAP_PER_S = 2500
HOT_KEYS = 16
#: Kinds come in blocks of 20 jobs, shuffled within each block: exactly 45%
#: hot, 45% distinct and 10% cluster in every block, so the share of cheap
#: cache reads (which sits next to the latency median) does not drift by seed.
BLOCK = ("hot",) * 9 + ("distinct",) * 9 + ("cluster",) * 2
CACHE_ENTRIES = 256
QUEUE_DEPTH = 256
#: Generator lateness beyond which an open-loop trial is invalid.  The p90
#: bound is two of the interpreter's default 5 ms switch intervals: a
#: generator woken while a worker holds the GIL waits up to one for it.
LATE_P90_BOUND_MS = 10.0
LATE_MAX_BOUND_MS = 50.0
CHECK_SAMPLE = 64
RESULT_TIMEOUT_S = 60.0

MODELS = ("resnet50", "bert", "ssd", "transformer", "maskrcnn", "dlrm")
CHIPS = tuple(2**k for k in range(4, 13))
BATCH_PER_CHIP = tuple(2**k for k in range(8))
BUCKETS = tuple(range(1, 17))
SLICES = ([2, 2], [2, 4], [4, 2])

_clock = time.monotonic


def _steptime_params(index: int) -> dict:
    """Decode one point of the steptime spec space (model x chips x batch x buckets x overlap)."""
    index, overlap = divmod(index, 2)
    index, buckets = divmod(index, len(BUCKETS))
    index, mult = divmod(index, len(BATCH_PER_CHIP))
    model, chips = divmod(index, len(CHIPS))
    return {
        "model": MODELS[model],
        "chips": CHIPS[chips],
        "global_batch": CHIPS[chips] * BATCH_PER_CHIP[mult],
        "buckets": BUCKETS[buckets],
        "overlap": bool(overlap),
    }


SPACE = len(MODELS) * len(CHIPS) * len(BATCH_PER_CHIP) * len(BUCKETS) * 2


class JobMix:
    """The seeded job stream: (kind, SimJob, content key) triples."""

    def __init__(self, seed: int) -> None:
        from repro.service import SimJob

        self._SimJob = SimJob
        self.rng = np.random.default_rng([seed, 11])
        order = self.rng.permutation(SPACE)
        self.hot = [SimJob("steptime", _steptime_params(int(i))) for i in order[:HOT_KEYS]]
        self._distinct = iter(order[HOT_KEYS:])
        self._kinds: list[str] = []
        self.count = 0

    def _cluster(self) -> dict:
        rng = self.rng
        tenants = [
            {
                "name": f"t{i}",
                "slice_shape": SLICES[int(rng.integers(len(SLICES)))],
                "target_steps": int(rng.integers(10, 31)),
                "priority": int(rng.integers(0, 3)),
                "checkpoint_interval": 5,
            }
            for i in range(4)
        ]
        return {
            "tenants": tenants,
            "mesh_shape": [4, 4],
            "max_ticks": 500,
            "seed": int(rng.integers(2**31)),
            "expected_chip_failures": float(rng.choice([0.5, 1.0, 2.0])),
        }

    def take(self, n: int) -> list[tuple[str, object, str]]:
        jobs = []
        for _ in range(n):
            if not self._kinds:
                self._kinds = list(self.rng.permutation(BLOCK))
            kind = self._kinds.pop()
            name = f"j{self.count}"
            self.count += 1
            if kind == "hot":
                base = self.hot[int(self.rng.integers(HOT_KEYS))]
                job = self._SimJob("steptime", base.params, name=name)
            elif kind == "distinct":
                index = next(self._distinct, None)
                if index is None:
                    break
                job = self._SimJob("steptime", _steptime_params(int(index)), name=name)
            else:
                job = self._SimJob("cluster", self._cluster(), name=name)
            jobs.append((kind, job, job.content_key))
        return jobs


class Record:
    """One submission and what became of it."""

    __slots__ = ("kind", "job", "key", "due", "late", "handle", "reason", "backlog", "dup_inflight", "phase",
                 "scale")

    def __init__(self, kind, job, key, due, phase) -> None:
        self.kind, self.job, self.key, self.due, self.phase = kind, job, key, due, phase
        self.late = 0.0
        self.handle = None
        self.reason = None
        self.backlog = 0
        self.dup_inflight = False
        self.scale = 1.0

    def outcome(self) -> str:
        if self.handle is None:
            return self.reason
        status, _ = self.handle.outcome(timeout=RESULT_TIMEOUT_S)
        return status

    @property
    def resolved_at(self) -> float:
        return self.handle.submitted_at + self.handle.latency_s


def _config(seed: int):
    from repro.service import ServiceConfig

    # One caller stands in for many independent users, so the per-client
    # token bucket is opened wide: only queueing may shed load here.
    return ServiceConfig(
        concurrency=os.cpu_count() or 1,
        queue_depth=QUEUE_DEPTH,
        cache_entries=CACHE_ENTRIES,
        rate_capacity=1e9,
        rate_refill_per_s=1e9,
        seed=seed,
    )


def setup(workload: str, seed: int):
    """Pin the process to one CPU, start a service and run one job of each kind."""
    from repro.service import SimJob, SimulationService

    # Threads started from here on inherit the calling thread's affinity.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    svc = SimulationService(_config(seed)).start()
    warm = [
        SimJob("steptime", {"model": "resnet50", "chips": 16, "global_batch": 48}),
        SimJob("cluster", {"tenants": [{"name": "w", "slice_shape": [2, 2], "target_steps": 5}],
                           "mesh_shape": [4, 4], "max_ticks": 100, "seed": 2**31}),
    ]
    for job in warm:
        svc.submit(job, client="warmup").result(timeout=RESULT_TIMEOUT_S)
    return svc


def close(svc) -> None:
    """Stop the worker threads."""
    svc.stop()


class Driver:
    """The single caller: submits, remembers, and detects in-flight duplicates."""

    def __init__(self, svc) -> None:
        from repro.service import ServiceRejection

        self.svc = svc
        self._rejection = ServiceRejection
        self.records: list[Record] = []
        self._last_by_key: dict[str, object] = {}

    def submit(self, rec: Record) -> None:
        rec.backlog = self.svc.pool.depth
        prev = self._last_by_key.get(rec.key)
        busy = prev is not None and not prev.done()
        rec.late = _clock() - rec.due
        try:
            rec.handle = self.svc.submit(rec.job, client="perfbench")
        except self._rejection as exc:
            rec.reason = exc.reason
        else:
            self._last_by_key[rec.key] = rec.handle
            rec.dup_inflight = rec.kind == "hot" and busy and not rec.handle.cached
        self.records.append(rec)

    def open_trial(self, jobs, phase: str) -> list[Record]:
        start = len(self.records)
        t0 = _clock() + 0.005
        for i, (kind, job, key) in enumerate(jobs):
            due = t0 + i / OPEN_RATE
            wait = due - _clock()
            if wait > 0:
                time.sleep(wait)
            self.submit(Record(kind, job, key, due, phase))
        trial = self.records[start:]
        for rec in trial:
            rec.outcome()
        return trial

    def closed_loop(self, jobs, seconds: float, phase: str, speed: Speedometer) -> tuple[int, float, float]:
        """Hold CLOSED_OUTSTANDING jobs from the ``jobs`` iterator in flight.

        The loop runs in segments of :data:`CLOSED_SEGMENT_S`, each drained
        before the next starts.  Between submissions the caller runs
        ``speed``'s reference probe; each segment's records and its span
        (start to last resolution) are scaled by the probes taken during
        that segment.  Returns (ok jobs, wall seconds and scaled seconds
        summed over the segments' spans).
        """
        end = _clock() + seconds
        wall_s = scaled_s = 0.0
        done = 0
        item = next(jobs, None)
        while item is not None and _clock() < end:
            start, first_probe = len(self.records), len(speed.samples)
            outstanding: deque = deque()
            t0 = _clock()
            while item is not None and _clock() < t0 + CLOSED_SEGMENT_S:
                kind, job, key = item
                while len(outstanding) >= CLOSED_OUTSTANDING:
                    outstanding.popleft().outcome()
                rec = Record(kind, job, key, _clock(), phase)
                self.submit(rec)
                speed.maybe_probe()
                if rec.handle is not None and not rec.handle.done():
                    outstanding.append(rec)
                item = next(jobs, None)
            for rec in outstanding:
                rec.outcome()
            segment = self.records[start:]
            scale = speed.scale(last=len(speed.samples) - first_probe)
            ok = [r for r in segment if r.outcome() == "ok"]
            for rec in segment:
                rec.scale = scale
            span = max((r.resolved_at for r in ok), default=t0) - t0
            wall_s += span
            scaled_s += span * scale
            done += len(ok)
        return done, wall_s, scaled_s


def _trial_stats(trial: list[Record]) -> dict:
    late_ms = [r.late * 1e3 for r in trial]
    p90, worst = percentile(late_ms, 90), max(late_ms)
    return {
        "late_p90_ms": p90,
        "late_max_ms": worst,
        "valid": p90 <= LATE_P90_BOUND_MS and worst <= LATE_MAX_BOUND_MS,
        "latency_ms": [(r.resolved_at - r.due) * 1e3 for r in trial if r.outcome() == "ok"],
        "achieved_per_s": sum(r.outcome() == "ok" for r in trial)
        / max(max((r.resolved_at for r in trial if r.outcome() == "ok"), default=trial[0].due) - trial[0].due, 1e-9),
    }


def _check(driver: Driver, seed: int) -> tuple[int, list[str]]:
    """Accounting identity plus a seeded sample of payloads vs direct execution."""
    from repro.service.executors import execute

    problems = []
    if not driver.svc.stats.accounted():
        problems.append(f"ServiceStats.accounted() is false: {driver.svc.snapshot()}")
    ok = [r for r in driver.records if r.outcome() == "ok"]
    rng = np.random.default_rng([seed, 12])
    picks = rng.choice(len(ok), size=min(CHECK_SAMPLE, len(ok)), replace=False) if ok else []
    bad = 0
    for i in picks:
        rec = ok[int(i)]
        if rec.handle.result(timeout=RESULT_TIMEOUT_S) != execute(rec.job):
            bad += 1
            problems.append(f"payload of {rec.job.label} differs from direct execution")
    return bad, problems


def run(workload: str, seed: int, seconds: float, trace: bool, svc) -> dict:
    mix = JobMix(seed)
    open_s = seconds * OPEN_SHARE
    # A traced run keeps its first trial untraced to measure tracing overhead.
    trials = max(2 if trace else 1, round(open_s / TRIAL_SECONDS))
    per_trial = max(1, int(round(OPEN_RATE * open_s / trials)))
    closed_s = seconds - open_s
    trial_jobs = [mix.take(per_trial) for _ in range(trials)]
    closed_jobs = iter(mix.take(int(CLOSED_CAP_PER_S * closed_s)))
    driver = Driver(svc)
    rec = None
    try:
        stats = []
        for t, jobs in enumerate(trial_jobs):
            if trace and t == 1:
                rec = _install(svc)
            stats.append(_trial_stats(driver.open_trial(jobs, "open" if not trace or t else "untraced")))
        # Every open-loop job has resolved here, after a job count fixed by
        # --seconds (800 at 20 s): the memory read does not grow with speed.
        rss_mb = peak_rss_mb()
        if trace and rec is None:
            rec = _install(svc)
        speed = Speedometer(every_s=0.02, clock=time.thread_time)
        speed.probe(5)
        closed_ok, closed_wall_s, closed_scaled_s = driver.closed_loop(closed_jobs, closed_s, "closed", speed)
        if rec is not None:
            rec.restore()
        bad, problems = _check(driver, seed)
    finally:
        close(svc)

    for p in problems[:5]:
        say(f"  CHECK FAILED {p}")
    attempted = len(driver.records)
    failed = sum(r.outcome() != "ok" for r in driver.records) + bad
    valid = [s for s in stats if s["valid"]]
    for i, s in enumerate(stats):
        say(f"  open-loop trial {i}: generator late p90 {s['late_p90_ms']:.3f} ms, max {s['late_max_ms']:.3f} ms"
            f" -> {'valid' if s['valid'] else 'INVALID (left out of latency figures)'}")
    counted = valid or stats
    if not valid:
        say("  WARNING: every open-loop trial ran late; latency figures use all trials")
    result = {"attempted": attempted, "failed": failed, "checks_ok": not problems}
    if trace:
        layers, counters, ok = _layers(driver, rec, stats, valid)
        result.update(layers=layers, counters=counters, checks_ok=not problems and ok)
        return result
    open_recs = [r for r in driver.records if r.phase == "open"]
    closed = [r for r in driver.records if r.phase == "closed" and r.outcome() == "ok"]
    # Gated latency is that of executed jobs: cache hits resolve inside
    # submit(), and at ~45% of jobs they would put the median on the edge
    # between two modes.
    executed = [r for r in closed if not r.handle.cached]
    wall_ms = [r.handle.latency_s * 1e3 for r in executed]
    closed_ms = [r.handle.latency_s * r.scale * 1e3 for r in executed]
    open_ms = [v for s in counted for v in s["latency_ms"]]
    say(f"  service_mixed: {len(open_recs)} open-loop jobs at {OPEN_RATE:g}/s in {trials} trials, "
        f"{len(closed)} closed-loop jobs at {CLOSED_OUTSTANDING} outstanding "
        f"({len(closed) - len(closed_ms)} cache hits), {svc.config.concurrency} workers")
    for q in (50, 90, 99):
        report_metric(f"latency_ms_p{q} (open loop)", percentile(open_ms, q), "ms", len(open_ms))
    report_metric("saturated_jobs_per_s (wall)", closed_ok / closed_wall_s, "jobs/s", closed_ok)
    for q in (50, 90):
        report_metric(f"closed_latency_ms_p{q} (wall, executed jobs)", percentile(wall_ms, q), "ms", len(wall_ms))
    report_metric("speed_factor", speed.overall(), "x", len(speed.samples))
    report_metric("offered_jobs_per_s", OPEN_RATE, "jobs/s")
    report_metric("achieved_jobs_per_s", float(np.median([s["achieved_per_s"] for s in counted])), "jobs/s")
    report_metric("backlog_max", max(r.backlog for r in open_recs), "jobs")
    report_metric("open_loop_valid_trials", len(valid), "trials", len(stats))
    result["e2e"] = {
        "op_ms_p50": percentile(closed_ms, 50),
        "op_ms_p90": percentile(closed_ms, 90),
        "throughput_per_s": closed_ok / closed_scaled_s,
        "peak_rss_mb": rss_mb,
        "_rss_ops": len(open_recs),
        "_n": len(closed_ms),
        "_p99": percentile(closed_ms, 99),
    }
    return result


def _install(svc) -> SpanRecorder:
    import repro.service.service as service_mod

    rec = SpanRecorder(clock=_clock)
    rec.patch(service_mod, "execute", "service.execute", key=lambda args, kwargs: args[0].name)
    return rec


def _layers(driver: Driver, rec: SpanRecorder, stats: list[dict], valid: list[dict]):
    """Per-layer figures of a traced run (wrappers installed from trial 1 on)."""
    execs = {name: (start, duration) for _, start, duration, name in rec.events}
    traced = [r for r in driver.records if r.phase != "untraced"]
    open_traced = [r for r in traced if r.phase == "open"]
    exec_ms = {"steptime": [], "cluster": []}
    for r in traced:
        if r.job.name in execs:
            exec_ms[r.job.kind].append(execs[r.job.name][1] * 1e3)
    queue_wait_ms = []
    late = admission = execute = wall = 0.0
    for r in open_traced:
        if r.outcome() != "ok":
            continue
        resolved = r.resolved_at
        wall += resolved - r.due
        late += r.handle.submitted_at - r.due
        if r.job.name in execs:
            start, duration = execs[r.job.name]
            queue_wait_ms.append((r.handle.latency_s - duration) * 1e3)
            admission += start - r.handle.submitted_at
            execute += duration
        else:
            admission += resolved - r.handle.submitted_at
    n_open = sum(r.outcome() == "ok" for r in open_traced)
    parts = {"service.generator_late": late, "service.admission_and_queue": admission, "service.execute": execute}
    close = closure(wall, parts, tolerance_s=1e-6 * max(n_open, 1))
    say(f"  closure over {n_open} traced open-loop jobs (ms per job, due -> resolved):")
    for name, value in {**parts, "other": close["other_s"]}.items():
        report_metric(name, value / max(n_open, 1) * 1e3, "ms")
    report_metric("wall", wall / max(n_open, 1) * 1e3, "ms", n_open)
    if not close["ok"]:
        say(f"  CHECK FAILED closure: negative parts {close['negative']}")
    untraced = stats[0]["latency_ms"]
    traced_lat = [v for s in stats[1:] for v in s["latency_ms"]] or untraced
    say(f"  tracing overhead: traced latency p50 {percentile(traced_lat, 50):.4f} ms - untraced "
        f"{percentile(untraced, 50):.4f} ms")
    hot = [r for r in traced if r.kind == "hot" and r.handle is not None]
    snapshot = driver.svc.snapshot()
    open_all = [r for r in driver.records if r.phase != "closed"]
    cluster_ticks = [
        r.handle.result(timeout=RESULT_TIMEOUT_S)["ticks"]
        for r in open_all
        if r.kind == "cluster" and r.outcome() == "ok"
    ]
    late_ms = [r.late * 1e3 for r in open_all]
    counted = valid or stats
    layers = {
        "service.execute_ms_p50.steptime": percentile(exec_ms["steptime"], 50) if exec_ms["steptime"] else 0.0,
        "service.execute_ms_p50.cluster": percentile(exec_ms["cluster"], 50) if exec_ms["cluster"] else 0.0,
        "service.queue_wait_ms_p50": percentile(queue_wait_ms, 50) if queue_wait_ms else 0.0,
        "service.queue_wait_ms_p90": percentile(queue_wait_ms, 90) if queue_wait_ms else 0.0,
        "service.cache_hit_ratio": sum(r.handle.cached for r in hot) / len(hot) if hot else 0.0,
        "service.inflight_duplicate_misses": sum(r.dup_inflight for r in traced),
        "service.rejected.overloaded": snapshot["rejected"].get("overloaded", 0),
        "service.rejected.rate_limited": snapshot["rejected"].get("rate_limited", 0),
        "service.rejected.deadline_exceeded": snapshot["rejected"].get("deadline_exceeded", 0),
        "service.failed": snapshot["failed"],
        "service.retries": snapshot["retries"],
        "service.backlog_max": max(r.backlog for r in open_all),
        "service.generator_late_ms_max": max(late_ms),
        "service.generator_late_ms_p90": percentile(late_ms, 90),
        "service.offered_jobs_per_s": OPEN_RATE,
        "service.achieved_jobs_per_s": float(np.median([s["achieved_per_s"] for s in counted])),
        "service.open_loop_valid_trials": len(valid),
        "cluster.ticks_per_job": float(np.mean(cluster_ticks)) if cluster_ticks else 0.0,
        "trace.wall_ms": wall / max(n_open, 1) * 1e3,
        "trace.other_ms": close["other_s"] / max(n_open, 1) * 1e3,
        "trace.overhead_ratio": percentile(traced_lat, 50) / percentile(untraced, 50),
    }
    counters = {
        "open_loop_jobs": len(open_all),
        "open_loop_kinds": {k: sum(r.kind == k for r in open_all) for k in ("hot", "distinct", "cluster")},
        "cluster_ticks_total": int(sum(cluster_ticks)),
    }
    # A hot key resubmitted while its first copy is still executing misses,
    # so the hit count depends on timing: printed, not compared.
    say(f"  open-loop cache hits {sum(bool(r.handle and r.handle.cached) for r in open_all)} "
        f"(depends on timing; not an exact counter)")
    return layers, counters, close["ok"]
