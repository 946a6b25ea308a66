"""``spmd_search``: one caller repeating a fixed partitioner-search suite.

One pass of the suite is the unit operation:

* a v0.7 beam search (``seed_nodes="all"``, no validation) over the
  table-shape ``ssd_graph``, ``maskrcnn_graph`` and
  ``transformer_block_graph`` at 2, 4 and 8 shards;
* a validated search (bit-exact on a ``VirtualMesh``) of the two
  reduced-shape graphs of ``python -m repro.spmd``.

Each search is checked: the best plan is no worse than the replicated
baseline, every pass returns the identical ranked list (specs and costs)
the first pass returned, and every validation is bit-exact.
"""

from __future__ import annotations

import time

import numpy as np

from harness import SpanRecorder, Speedometer, closure, distinct, mode, peak_rss_mb, percentile, report_metric, say

TABLE_SHARDS = (2, 4, 8)
VALIDATED_SHARDS = 4
UNTRACED_SHARE = 0.3
#: ``peak_rss_mb`` is read when this many timed passes have completed (about
#: a third of a 20-s run), so it does not grow with speed.
RSS_PASSES = 20

_perf = time.perf_counter


class Suite:
    """Graphs, partitioner and the reference ranked lists of the first pass."""

    def __init__(self, seed: int) -> None:
        from repro.spmd import (
            SearchConfig,
            make_partitioner,
            resnet_block_graph,
            transformer_block_graph,
        )
        from repro.spmd.modelgraphs import maskrcnn_graph, ssd_graph

        self.partitioner = make_partitioner("v07")
        self.searches = []  # (group, label, graph, config)
        for group, graph in (
            ("ssd", ssd_graph()),
            ("maskrcnn", maskrcnn_graph()),
            ("transformer", transformer_block_graph()),
        ):
            for k in TABLE_SHARDS:
                config = SearchConfig(num_shards=k, seed=seed, seed_nodes="all")
                self.searches.append((group, f"{group}@{k}", graph, config))
        for label, graph in (
            ("resnet_block", resnet_block_graph()),
            ("transformer_small", transformer_block_graph(seq=16, hidden=32, ffn=64, vocab=128)),
        ):
            config = SearchConfig(num_shards=VALIDATED_SHARDS, seed=seed, seed_nodes="all", validate=True)
            self.searches.append(("validated", f"{label}@{VALIDATED_SHARDS}", graph, config))
        #: label -> ranked list of the first pass.
        self.reference: dict[str, tuple] = {}
        self.failures: list[str] = []

    def one_pass(self, rec: SpanRecorder | None = None, speed: Speedometer | None = None):
        """Run every search once: returns (seconds, wall seconds, per-search rows, failures).

        With ``speed``, a reference probe runs between searches (outside
        their timing) and the returned seconds (and those of the rows) are
        scaled to reference speed; the wall seconds are not.
        """
        from repro.spmd import search_partitioning

        rows, failures = [], []
        total = raw = 0.0
        for group, label, graph, config in self.searches:
            s0 = _perf()
            if rec is None:
                result = search_partitioning(graph, config, self.partitioner)
            else:
                with rec.span("spmd.search"):
                    result = search_partitioning(graph, config, self.partitioner)
            seconds = _perf() - s0
            raw += seconds
            if speed is not None:
                speed.maybe_probe()
                seconds *= speed.scale()
            total += seconds
            rows.append((group, label, seconds, result.stats))
            failures.extend(self._check(label, config, result))
        return total, raw, rows, failures

    def _check(self, label, config, result) -> list[str]:
        problems = []
        if not result.best.total_seconds <= result.baseline.total_seconds:
            problems.append(f"{label}: best {result.best.total_seconds!r} worse than replicated "
                            f"{result.baseline.total_seconds!r}")
        ranked = tuple((plan.spec, plan.total_seconds) for plan in result.plans)
        reference = self.reference.setdefault(label, ranked)
        if ranked != reference:
            problems.append(f"{label}: ranked list differs from the first pass")
        if config.validate and not (result.validations and all(v.ok for v in result.validations)):
            problems.append(f"{label}: validation not bit-exact "
                            f"({[v.describe() for v in result.validations] or 'no verdict'})")
        return problems


def setup(workload: str, seed: int) -> Suite:
    """Build graphs and partitioner, then one warm-up pass (lazy imports, caches)."""
    suite = Suite(seed)
    *_, suite.failures = suite.one_pass()
    return suite


def close(suite: Suite) -> None:
    """Nothing outlives the suite."""


def run(workload: str, seed: int, seconds: float, trace: bool, suite: Suite) -> dict:
    failures = list(suite.failures)
    passes = []
    searches = failed_searches = 0
    raw_ms: list[float] = []
    rss_mb = 0.0

    def timed_passes(budget_s: float, rec=None, speed=None, min_passes=3) -> list:
        nonlocal searches, failed_searches, rss_mb
        out = []
        deadline = _perf() + budget_s
        while _perf() < deadline or len(out) < min_passes:
            calls = rec.calls["spmd.partition"] if rec else 0
            wall, raw, rows, problems = suite.one_pass(rec, speed)
            out.append((wall, rows, (rec.calls["spmd.partition"] if rec else 0) - calls))
            raw_ms.append(raw * 1e3)
            if len(out) == RSS_PASSES:
                rss_mb = peak_rss_mb()
            searches += len(rows)
            failed_searches += len({p.split(":", 1)[0] for p in problems})
            failures.extend(problems)
        return out

    if trace:
        untraced = timed_passes(seconds * UNTRACED_SHARE)
        rec = SpanRecorder()
        layers, counters, closure_ok = _traced(rec, timed_passes, seconds * (1 - UNTRACED_SHARE), untraced)
    else:
        speed = Speedometer()
        speed.probe(5)
        passes = timed_passes(seconds, speed=speed, min_passes=RSS_PASSES)
    for p in failures[:5]:
        say(f"  CHECK FAILED {p}")
    say(f"  search checks: {searches - failed_searches}/{searches} searches never worse than replicated, "
        f"identical ranked list on every pass, validations bit-exact")
    result = {"attempted": searches, "failed": failed_searches, "checks_ok": not failures}
    if trace:
        result.update(layers=layers, counters=counters, checks_ok=not failures and closure_ok)
        return result
    pass_ms = [wall * 1e3 for wall, *_ in passes]
    expanded = sum(st.candidates_expanded for _, rows, _ in passes for *_, st in rows)
    say(f"  spmd_search: {len(passes)} passes of {len(suite.searches)} searches each")
    report_metric("suite_s (reference speed)", float(np.median(pass_ms)) / 1e3, "s", len(passes))
    report_metric("suite_s (wall)", float(np.median(raw_ms)) / 1e3, "s", len(raw_ms))
    for group in ("ssd", "maskrcnn", "transformer", "validated"):
        per_pass = [sum(sec for g, _, sec, _ in rows if g == group) * 1e3 for _, rows, _ in passes]
        report_metric(f"search_ms_p50.{group} (reference speed)", percentile(per_pass, 50), "ms", len(passes))
    report_metric("speed_factor", speed.overall(), "x", len(speed.samples))
    result["e2e"] = {
        "op_ms_p50": percentile(pass_ms, 50),
        "op_ms_p90": percentile(pass_ms, 90),
        "throughput_per_s": expanded / (sum(pass_ms) / 1e3),
        "peak_rss_mb": rss_mb,
        "_rss_ops": RSS_PASSES,
        "_n": len(passes),
        "_p99": percentile(pass_ms, 99),
    }
    return result


def _traced(rec: SpanRecorder, timed_passes, budget_s: float, untraced: list):
    import repro.spmd.plan as plan_mod
    import repro.spmd.search as search_mod

    rec.patch(plan_mod.Partitioner, "partition", "spmd.partition")
    rec.patch(search_mod, "validate_plan", "spmd.validate")
    try:
        traced = timed_passes(budget_s, rec)
    finally:
        rec.restore()
    n = len(traced)
    wall = sum(w for w, *_ in traced)
    parts = {
        "spmd.partition": rec.self_time("spmd.partition"),
        "spmd.validate": rec.self_time("spmd.validate"),
        "spmd.search_self": rec.self_time("spmd.search"),
    }
    close = closure(wall, parts, tolerance_s=1e-6 * n)
    say(f"  closure over {n} traced passes (ms per pass; parts + other = wall):")
    for name, value in {**parts, "other": close["other_s"]}.items():
        report_metric(name, value / n * 1e3, "ms")
    report_metric("wall", wall / n * 1e3, "ms", n)
    if not close["ok"]:
        say(f"  CHECK FAILED closure: negative parts {close['negative']}")
    untraced_p50 = percentile([w for w, *_ in untraced], 50)
    traced_p50 = percentile([w for w, *_ in traced], 50)
    say(f"  tracing overhead: traced pass p50 {traced_p50 * 1e3:.4f} ms - untraced "
        f"{untraced_p50 * 1e3:.4f} ms = {(traced_p50 - untraced_p50) * 1e3:.4f} ms")
    expanded = [sum(st.candidates_expanded for *_, st in rows) for _, rows, _ in traced]
    pruned = [sum(st.candidates_pruned for *_, st in rows) for _, rows, _ in traced]
    calls = [c for *_, c in traced]
    group_ms = {
        g: sum(sec for _, rows, _ in traced for grp, _, sec, _ in rows if grp == g) / n * 1e3
        for g in ("ssd", "maskrcnn", "transformer", "validated")
    }
    layers = {
        "spmd.search_ms.ssd": group_ms["ssd"],
        "spmd.search_ms.maskrcnn": group_ms["maskrcnn"],
        "spmd.search_ms.transformer": group_ms["transformer"],
        "spmd.search_ms.validated": group_ms["validated"],
        "spmd.partition_calls": mode(calls),
        "spmd.partition_ms": parts["spmd.partition"] / n * 1e3,
        "spmd.validate_ms": parts["spmd.validate"] / n * 1e3,
        "spmd.candidates_expanded": mode(expanded),
        "spmd.candidates_pruned": mode(pruned),
        "spmd.prune_ratio": sum(pruned) / sum(expanded),
        "spmd.candidates_per_s": sum(expanded) / wall,
        "trace.wall_ms": wall / n * 1e3,
        "trace.other_ms": close["other_s"] / n * 1e3,
        "trace.overhead_ratio": traced_p50 / untraced_p50,
    }
    counters = {
        "candidates_expanded_per_pass": distinct(expanded),
        "candidates_pruned_per_pass": distinct(pruned),
        "partition_calls_per_pass": distinct(calls),
        "plans_validated_per_pass": distinct(
            [sum(st.plans_validated for *_, st in rows) for _, rows, _ in traced]
        ),
    }
    return layers, counters, close["ok"]
