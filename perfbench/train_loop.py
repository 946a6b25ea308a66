"""``train_small`` / ``train_wide``: a closed training loop with one caller.

Each round trains two trainers built by ``make_trainer`` on the same fresh
batch: a ``data_parallel`` trainer on a 2-D replica mesh (the hierarchical
all-reduce path of paper section 3.3) and a ``wus`` (weight-update
sharding) trainer on a flat ring.  A round is the loop's unit operation.

Inputs are a pure function of ``(seed, round)``, so the loss check replays
the exact batches on a same-seed ``strategy="single"`` trainer after the
timed window.  Training runs in episodes of :data:`EPISODE_ROUNDS` rounds,
each from a fresh seed-derived init (done between timed calls): the loss
equivalence the repository pins (rel 1e-12 DP, 1e-10 WUS) is a per-step
bound, and summation-order differences compound through thousands of LAMB
steps (about 1e-9 after 2,500 steps), so unbounded episodes would test
chaos, not equivalence.
"""

from __future__ import annotations

import math
import time

import numpy as np

from harness import (
    MEMORY_NOMINAL_S,
    MemoryProbe,
    SpanRecorder,
    Speedometer,
    closure,
    distinct,
    mode,
    peak_rss_mb,
    percentile,
    report_metric,
    say,
    summary,
)

#: ``memory_probe``: scale by a :class:`MemoryProbe` over the WUS trainer's
#: gradient footprint (replicas x parameters) instead of the interpreter
#: probe.  A train_wide step is large-array work whose speed follows the
#: shared cache: over 150 s of rounds the 1-s block CV was 0.09 raw, 0.14
#: scaled by the interpreter probe and 0.04 scaled by the memory probe.
#: ``rss_rounds``: ``peak_rss_mb`` is read when this many timed rounds have
#: completed (about a third of a 20-s run), so it does not grow with speed.
SHAPES = {
    "train_small": {"dims": [16, 32, 4], "dp_mesh": (4, 2), "wus_replicas": 8, "memory_probe": False,
                    "rss_rounds": 1000},
    "train_wide": {"dims": [64, 1024, 256, 8], "dp_mesh": (4, 4), "wus_replicas": 16, "memory_probe": True,
                   "rss_rounds": 50},
}
GLOBAL_BATCH = 64
NUM_BUCKETS = 4
LEARNING_RATE = 0.02
WARMUP_ROUNDS = 3
EPISODE_ROUNDS = 250
#: The repository's own DP/WUS vs single-device equivalence tolerances.
REL_TOL = {"dp": 1e-12, "wus": 1e-10}
#: Round time per interpreter probe, and the most probes after one round.
PROBE_SPACING_S = 0.025
PROBES_MAX = 8
#: Memory probes after each round, and how many recent ones give the scale.
MEMORY_PROBES = (1, 3)
#: Share of a traced run spent alternating telemetry on/off without wrappers.
UNTRACED_SHARE = 0.35

_perf = time.perf_counter


class BatchStream:
    """Seeded classification batches from a fixed random linear teacher."""

    def __init__(self, seed: int, dims: list[int]) -> None:
        self.seed = seed
        self.d_in, self.classes = dims[0], dims[-1]
        self.teacher = np.random.default_rng([seed, 1]).standard_normal(
            (self.d_in, self.classes)
        )

    def batch(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng([self.seed, 2, index])
        x = rng.standard_normal((GLOBAL_BATCH, self.d_in))
        noise = 0.5 * rng.standard_normal((GLOBAL_BATCH, self.classes))
        return x, np.argmax(x @ self.teacher + noise, axis=1)

    def init_rng(self, episode: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, 3, episode])


def _config(shape: dict, strategy: str):
    from repro.core import TrainerConfig
    from repro.models.mlp import MLP
    from repro.optim import LAMB

    if strategy == "single":
        return TrainerConfig(model=MLP(shape["dims"]), optimizer=LAMB(LEARNING_RATE), strategy="single")
    mesh = shape["dp_mesh"] if strategy == "data_parallel" else (shape["wus_replicas"], 1)
    return TrainerConfig(
        model=MLP(shape["dims"]),
        optimizer=LAMB(LEARNING_RATE),
        strategy=strategy,
        mesh_shape=mesh,
        num_buckets=NUM_BUCKETS,
        overlap=True,
    )


class Loop:
    """The two trainers, their inputs, and every loss they returned."""

    def __init__(self, shape: dict, stream: BatchStream) -> None:
        from repro.core import make_trainer

        self.stream = stream
        self.dp = make_trainer(_config(shape, "data_parallel"))
        self.wus = make_trainer(_config(shape, "wus"))
        self.losses: dict[str, list[float]] = {"dp": [], "wus": []}
        self.next_round = 0

    def begin_round(self) -> tuple[np.ndarray, np.ndarray]:
        """Start an episode when due, then draw this round's batch (untimed)."""
        r = self.next_round
        if r % EPISODE_ROUNDS == 0:
            episode = r // EPISODE_ROUNDS
            self.dp.init(self.stream.init_rng(episode))
            self.wus.init(self.stream.init_rng(episode))
        self.next_round += 1
        return self.stream.batch(r)

    def round(self) -> tuple[float, float]:
        """One timed round; returns (dp step seconds, wus step seconds)."""
        x, y = self.begin_round()
        t0 = _perf()
        a = self.dp.step(x, y)
        t1 = _perf()
        b = self.wus.step(x, y)
        t2 = _perf()
        self.losses["dp"].append(float(a))
        self.losses["wus"].append(float(b))
        return t1 - t0, t2 - t1


def setup(workload: str, seed: int) -> Loop:
    """Build both trainers and warm them up (the work before the first timed step)."""
    shape = SHAPES[workload]
    loop = Loop(shape, BatchStream(seed, shape["dims"]))
    for _ in range(WARMUP_ROUNDS):
        loop.round()
    return loop


def close(loop: Loop) -> None:
    """Nothing outlives the trainers."""


def _param_count(dims: list[int]) -> int:
    return sum(a * b + b for a, b in zip(dims, dims[1:]))


def _speedometer(shape: dict) -> tuple[Speedometer, int]:
    """The run's speedometer and the resident bytes its probe holds."""
    if not shape["memory_probe"]:
        return Speedometer(), 0
    probe = MemoryProbe((shape["wus_replicas"], _param_count(shape["dims"])))
    return Speedometer(work=probe, nominal_s=MEMORY_NOMINAL_S), probe.nbytes


def _replay_check(shape: dict, loop: Loop) -> tuple[int, int, list[str]]:
    """Compare every recorded loss with a same-seed single-device replay.

    Returns (steps checked, steps failed, first few failure descriptions).
    """
    from repro.core import make_trainer

    ref = make_trainer(_config(shape, "single"))
    checked = failed = 0
    problems: list[str] = []
    for r in range(loop.next_round):
        if r % EPISODE_ROUNDS == 0:
            ref.init(loop.stream.init_rng(r // EPISODE_ROUNDS))
        x, y = loop.stream.batch(r)
        want = float(ref.step(x, y))
        for kind in ("dp", "wus"):
            got = loop.losses[kind][r]
            checked += 1
            rel = abs(got - want) / max(abs(want), 1e-300)
            if not (math.isfinite(got) and rel <= REL_TOL[kind]):
                failed += 1
                if len(problems) < 5:
                    problems.append(f"round {r} {kind}: loss {got!r} vs single {want!r} (rel {rel:.3e})")
    return checked, failed, problems


def _print_steps(kind: str, seconds: list[float]) -> None:
    s = summary([v * 1e3 for v in seconds])
    for q in ("p50", "p90", "p99"):
        report_metric(f"{kind}_step_ms_{q}", s[q], "ms", s["n"])


def run(workload: str, seed: int, seconds: float, trace: bool, loop: Loop) -> dict:
    shape = SHAPES[workload]
    if trace:
        layers, counters, closure_ok = _traced(loop, seconds)
    else:
        dp_s, wus_s, scaled = [], [], []
        speed, probe_bytes = _speedometer(shape)
        speed.probe(5)
        deadline = _perf() + seconds
        while _perf() < deadline or len(dp_s) < shape["rss_rounds"]:
            a, b = loop.round()
            # Probe after every round.  Interpreter probes take about 2.5% of
            # the round's time, at least one: the host's slow spells are
            # often shorter than a few rounds of train_small.
            if shape["memory_probe"]:
                probes, last = MEMORY_PROBES
            else:
                probes = min(PROBES_MAX, max(1, round((a + b) / PROBE_SPACING_S)))
                last = max(3, probes)
            speed.probe(probes)
            dp_s.append(a)
            wus_s.append(b)
            scaled.append((a + b) * speed.scale(last=last))
            if len(dp_s) == shape["rss_rounds"]:
                # The probe's buffers are resident from before the first
                # timed round on, so they add exactly their size.
                rss_mb = peak_rss_mb() - probe_bytes / 2**20
    checked, failed, problems = _replay_check(shape, loop)
    for p in problems:
        say(f"  CHECK FAILED {p}")
    say(f"  loss check: {checked - failed}/{checked} steps finite and within "
        f"rel {REL_TOL['dp']:g} (DP) / {REL_TOL['wus']:g} (WUS) of the single-device replay")
    result = {"attempted": checked, "failed": failed, "checks_ok": failed == 0}
    if trace:
        result.update(layers=layers, counters=counters, checks_ok=failed == 0 and closure_ok)
        return result
    rounds = [a + b for a, b in zip(dp_s, wus_s)]
    round_ms = [v * 1e3 for v in scaled]
    samples_per_s = 2 * GLOBAL_BATCH * len(rounds) / sum(rounds)
    say(f"  {workload}: {len(rounds)} rounds, each one DP step ({shape['dp_mesh'][0]}x{shape['dp_mesh'][1]} mesh) "
        f"+ one WUS step ({shape['wus_replicas']} replicas), MLP {'-'.join(map(str, shape['dims']))}")
    _print_steps("dp", dp_s)
    _print_steps("wus", wus_s)
    report_metric("samples_per_s (wall)", samples_per_s, "samples/s", len(rounds))
    report_metric("round_ms_p50 (wall)", percentile(rounds, 50) * 1e3, "ms", len(rounds))
    report_metric("speed_factor", speed.overall(), "x", len(speed.samples))
    result["e2e"] = {
        "op_ms_p50": percentile(round_ms, 50),
        "op_ms_p90": percentile(round_ms, 90),
        "throughput_per_s": 2 * GLOBAL_BATCH * len(scaled) / sum(scaled),
        "peak_rss_mb": rss_mb,
        "_rss_ops": shape["rss_rounds"],
        "_n": len(rounds),
        "_p99": percentile(round_ms, 99),
    }
    return result


def _traced(loop: Loop, seconds: float):
    """Per-layer run: an untraced telemetry on/off phase, then a wrapped phase."""
    from repro import telemetry
    import repro.core.data_parallel as dp_mod
    import repro.core.weight_update_sharding as wus_mod
    import repro.runtime.bucket as bucket_mod

    # Phase A: no wrappers.  Even rounds run with telemetry on (the default),
    # odd rounds under telemetry.disabled(), on the same trainers and stream.
    on_dp, on_wus, off_dp, off_wus, on_rounds = [], [], [], [], []
    deadline = _perf() + seconds * UNTRACED_SHARE
    parity = 0
    while _perf() < deadline or min(len(on_dp), len(off_dp)) < 5:
        if parity == 0:
            a, b = loop.round()
            on_dp.append(a)
            on_wus.append(b)
            on_rounds.append(a + b)
        else:
            with telemetry.disabled():
                a, b = loop.round()
            off_dp.append(a)
            off_wus.append(b)
        parity ^= 1

    # Phase B: wrappers on the layer entry points the trainers call.
    rec = SpanRecorder()
    rec.patch(bucket_mod, "ring_all_reduce_stacked", "runtime.kernel")
    rec.patch(bucket_mod, "two_phase_all_reduce_stacked", "runtime.kernel")
    rec.patch(wus_mod, "ring_reduce_scatter", "runtime.wus_kernel")
    rec.patch(wus_mod, "ring_all_gather_stacked", "runtime.wus_kernel")
    rec.patch(dp_mod, "measured_overlap", "core.overlap_model")
    rec.patch(telemetry.flight_recorder, "on_step", "telemetry.flight_on_step")
    rec.patch(telemetry.metrics, "counter", "telemetry.counter_lookups", count_only=True)
    metrics = telemetry.metrics
    phases = {k: 0.0 for k in ("split", "forward_backward", "collective", "update", "wus_update")}
    split = {"dp": 0.0, "wus": 0.0}
    fb = {"dp": 0.0, "wus": 0.0}
    wall = unattributed = 0.0
    traced_rounds = []
    per_round = {k: [] for k in ("bytes", "calls", "lookups", "seg_hits", "overlap_calls")}
    hits0 = metrics.total("bucket_segment_cache_hits")
    miss0 = metrics.total("bucket_segment_cache_misses")
    deadline = _perf() + seconds * (1.0 - UNTRACED_SHARE)
    try:
        while _perf() < deadline or len(traced_rounds) < 5:
            # The batch (and, every EPISODE_ROUNDS, the trainers' re-init) is
            # drawn before the counters are read: they count the steps only.
            x, y = loop.begin_round()
            before = (
                metrics.total("collective_bytes"),
                rec.calls["runtime.kernel"] + rec.calls["runtime.wus_kernel"],
                rec.calls["telemetry.counter_lookups"],
                metrics.total("bucket_segment_cache_hits"),
                rec.calls["core.overlap_model"],
            )
            round_s = 0.0
            for kind, trainer in (("dp", loop.dp), ("wus", loop.wus)):
                t0 = _perf()
                with rec.span(f"step.{kind}"):
                    res = trainer.step(x, y)
                step_s = _perf() - t0
                round_s += step_s
                loop.losses[kind].append(float(res))
                unattributed += step_s - sum(res.phase_seconds.values())
                for phase, value in res.phase_seconds.items():
                    phases[phase] += value
                split[kind] += res.phase_seconds["split"]
                fb[kind] += res.phase_seconds["forward_backward"]
            wall += round_s
            traced_rounds.append(round_s)
            after = (
                metrics.total("collective_bytes"),
                rec.calls["runtime.kernel"] + rec.calls["runtime.wus_kernel"],
                rec.calls["telemetry.counter_lookups"],
                metrics.total("bucket_segment_cache_hits"),
                rec.calls["core.overlap_model"],
            )
            for key, b0, b1 in zip(per_round, before, after):
                per_round[key].append(b1 - b0)
    finally:
        rec.restore()
    n = len(traced_rounds)
    kernel = rec.total["runtime.kernel"]
    wus_kernel = rec.total["runtime.wus_kernel"]
    overlap = rec.total["core.overlap_model"]
    on_step = rec.total["telemetry.flight_on_step"]
    parts = {
        "core.split": phases["split"],
        "core.forward_backward": phases["forward_backward"],
        "runtime.flatten": phases["collective"] - kernel,
        "runtime.kernel": kernel,
        "core.update": phases["update"],
        "core.wus_update_self": phases["wus_update"] - wus_kernel,
        "runtime.wus_kernel": wus_kernel,
        "core.overlap_model": overlap,
        "telemetry.flight_on_step": on_step,
    }
    close = closure(wall, parts, tolerance_s=1e-6 * n)
    say(f"  closure over {n} traced rounds (ms per round; parts + other = wall):")
    for name, value in {**parts, "other": close["other_s"]}.items():
        report_metric(name, value / n * 1e3, "ms")
    report_metric("wall", wall / n * 1e3, "ms", n)
    if not close["ok"]:
        say(f"  CHECK FAILED closure: negative parts {close['negative']}")
    untraced_p50 = percentile(on_rounds, 50)
    traced_p50 = percentile(traced_rounds, 50)
    say(f"  tracing overhead: traced round p50 {traced_p50 * 1e3:.4f} ms - untraced "
        f"{untraced_p50 * 1e3:.4f} ms = {(traced_p50 - untraced_p50) * 1e3:.4f} ms")
    seg_total = (metrics.total("bucket_segment_cache_hits") - hits0) + (
        metrics.total("bucket_segment_cache_misses") - miss0
    )
    ms = lambda total: total / n * 1e3  # noqa: E731 - per-round mean in ms
    layers = {
        "core.split_ms": ms(phases["split"]),
        "core.forward_backward_ms": ms(phases["forward_backward"]),
        "core.update_ms": ms(phases["update"]),
        "core.wus_update_ms": ms(phases["wus_update"]),
        "core.overlap_model_ms": ms(overlap),
        "core.overlap_model_calls": mode(per_round["overlap_calls"]),
        "core.unattributed_ms": ms(unattributed),
        "runtime.collective_ms": ms(phases["collective"]),
        "runtime.kernel_ms": ms(kernel),
        "runtime.flatten_ms": ms(phases["collective"] - kernel),
        "runtime.wus_kernel_ms": ms(wus_kernel),
        "runtime.collective_bytes_per_step": mode(per_round["bytes"]),
        "runtime.collective_calls_per_step": mode(per_round["calls"]),
        "runtime.bucket_cache_hit_ratio": (
            (metrics.total("bucket_segment_cache_hits") - hits0) / seg_total if seg_total else 0.0
        ),
        "telemetry.overhead_ratio_dp": percentile(on_dp, 50) / percentile(off_dp, 50),
        "telemetry.overhead_ratio_wus": percentile(on_wus, 50) / percentile(off_wus, 50),
        "telemetry.counter_lookups_per_step": mode(per_round["lookups"]),
        "telemetry.flight_on_step_ms": ms(on_step),
        "telemetry.spans_retained": len(telemetry.tracer.trace.events),
        "trace.wall_ms": ms(wall),
        "trace.other_ms": ms(close["other_s"]),
        "trace.overhead_ratio": traced_p50 / untraced_p50,
    }
    counters = {
        "collective_bytes_per_round": distinct(per_round["bytes"]),
        "collective_calls_per_round": distinct(per_round["calls"]),
        "bucket_cache_hits_per_round": distinct(per_round["seg_hits"]),
        "counter_lookups_per_round": distinct(per_round["lookups"]),
        "overlap_model_calls_per_round": distinct(per_round["overlap_calls"]),
    }
    return layers, counters, close["ok"]
