"""Cross-module property-based tests (hypothesis).

Invariants that must hold across randomly drawn meshes, payloads, and
configurations — the broad-net complement to the targeted unit tests.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.allreduce import flat_ring_allreduce, two_phase_allreduce
from repro.comm.cost import reduce_scatter_time
from repro.comm.schedule import simulate_ring_reduce_scatter
from repro.core.planner import PLANNER_RULES, plan_parallelism
from repro.core.step_time import StepTimeModel
from repro.core.weight_update_sharding import (
    bucketed_sharded_update,
    shard_state_segments,
)
from repro.experiments.calibration import spec_for
from repro.hardware.rings import y_ring
from repro.hardware.routing import dimension_ordered_path
from repro.hardware.topology import Coordinate, TorusMesh
from repro.optim import LAMB
from repro.runtime.bucket import GradientBucket
from repro.runtime.collectives import (
    ring_reduce_scatter,
    two_phase_all_reduce_stacked,
)

mesh_dims = st.integers(min_value=1, max_value=8)
payloads = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)


class TestTopologyProperties:
    @given(x=mesh_dims, y=mesh_dims, wx=st.booleans(), wy=st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_neighbors_symmetric(self, x, y, wx, wy):
        mesh = TorusMesh(x, y, wrap_x=wx, wrap_y=wy)
        for c in mesh.chips():
            for n in mesh.neighbors(c):
                assert c in mesh.neighbors(n)

    @given(x=st.integers(2, 8), y=st.integers(2, 8),
           wx=st.booleans(), wy=st.booleans(),
           seed=st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_dimension_ordered_path_valid(self, x, y, wx, wy, seed):
        mesh = TorusMesh(x, y, wrap_x=wx, wrap_y=wy)
        rng = np.random.default_rng(seed)
        src = Coordinate(int(rng.integers(x)), int(rng.integers(y)))
        dst = Coordinate(int(rng.integers(x)), int(rng.integers(y)))
        path = dimension_ordered_path(mesh, src, dst)
        assert path[0] == src and path[-1] == dst
        for a, b in zip(path, path[1:]):
            assert b in mesh.neighbors(a)
        # Never longer than the no-wrap manhattan route.
        assert len(path) - 1 <= abs(src.x - dst.x) + abs(src.y - dst.y)


class TestCostProperties:
    @given(n=st.integers(2, 512), p=payloads)
    @settings(max_examples=80, deadline=None)
    def test_reduce_scatter_nonnegative_and_monotone_in_payload(self, n, p):
        t1 = reduce_scatter_time(n, p, 70e9, 1e-6)
        t2 = reduce_scatter_time(n, p + 1e6, 70e9, 1e-6)
        assert 0.0 <= t1 <= t2

    @given(n=st.integers(2, 512), p=st.floats(1e3, 1e9))
    @settings(max_examples=80, deadline=None)
    def test_line_never_faster_than_ring(self, n, p):
        ring = reduce_scatter_time(n, p, 70e9, 1e-6, closed=True)
        line = reduce_scatter_time(n, p, 70e9, 1e-6, closed=False)
        assert line >= ring

    @given(x=st.integers(1, 16), y=st.integers(1, 16), p=st.floats(0, 1e9))
    @settings(max_examples=60, deadline=None)
    def test_two_phase_breakdown_consistent(self, x, y, p):
        mesh = TorusMesh(x, y, wrap_y=(y >= 3))
        br = two_phase_allreduce(mesh, p)
        assert br.total >= 0
        assert br.shard_bytes == pytest.approx(p / (x * y))
        assert br.total == pytest.approx(br.reduce_time + br.broadcast_time)


class TestDesMatchesAnalytic:
    @given(y=st.integers(3, 12), p=st.floats(1e3, 1e7))
    @settings(max_examples=25, deadline=None)
    def test_ring_des_equals_formula(self, y, p):
        mesh = TorusMesh(2, y, wrap_y=True)
        ring = y_ring(mesh, 0)
        des = simulate_ring_reduce_scatter(mesh, ring, p)
        analytic = reduce_scatter_time(
            y, p, mesh.link_bandwidth, mesh.chip.link_latency, closed=True
        )
        assert des == pytest.approx(analytic, rel=1e-9)


class TestRuntimeProperties:
    @given(
        n=st.integers(1, 8),
        size=st.integers(1, 64),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=50, deadline=None)
    def test_reduce_scatter_assemble_matches_sum(self, n, size, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal(size) for _ in range(n)]
        sv = ring_reduce_scatter(arrays, "f64")
        assert np.allclose(sv.assemble(), np.sum(arrays, axis=0), rtol=1e-10)

    @given(
        n=st.integers(2, 6),
        size=st.integers(1, 40),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_wus_equals_replicated_update(self, n, size, seed):
        rng = np.random.default_rng(seed)
        opt = LAMB(0.01)
        params = {"w": rng.standard_normal(size)}
        grads = [{"w": rng.standard_normal(size) / n} for _ in range(n)]
        summed = {"w": np.sum([g["w"] for g in grads], axis=0)}
        expected, _ = opt.update(dict(params), summed, opt.init_state(params), 0)
        bucket = GradientBucket(params, dtype=np.float64)
        got, _ = bucketed_sharded_update(
            dict(params), grads, opt,
            shard_state_segments(opt.init_state(params), bucket, n), 0, bucket,
        )
        assert np.allclose(got["w"], expected["w"], rtol=1e-9, atol=1e-12)


class TestPlannerProperties:
    @given(
        name=st.sampled_from(sorted(PLANNER_RULES)),
        chips=st.sampled_from([16, 32, 64, 128, 256, 512, 1024, 2048, 4096]),
    )
    @settings(max_examples=60, deadline=None)
    def test_plans_always_valid(self, name, chips):
        plan = plan_parallelism(spec_for(name), chips)
        cfg = plan.config
        rules = PLANNER_RULES[name]
        assert cfg.global_batch <= rules.max_global_batch
        assert cfg.mp_cores <= rules.max_mp_cores
        assert cfg.num_cores % cfg.mp_cores == 0
        # Step model must accept every planned configuration.
        breakdown = StepTimeModel(spec_for(name), cfg).breakdown()
        assert breakdown.total > 0
        assert breakdown.compute > 0

    @given(chips=st.sampled_from([16, 64, 256, 1024, 4096]))
    @settings(max_examples=20, deadline=None)
    def test_flat_ring_never_beats_2d_at_scale(self, chips):
        from repro.hardware.topology import slice_for_chips

        mesh = slice_for_chips(chips)
        payload = 100e6
        flat = flat_ring_allreduce(mesh, payload).total
        hier = two_phase_allreduce(mesh, payload).total
        if chips >= 256:
            assert hier < flat


class TestGridCollectiveProperties:
    @given(
        x=st.integers(1, 3),
        y=st.integers(1, 3),
        size=st.integers(1, 20),
        seed=st.integers(0, 2**31),
        policy=st.sampled_from(["f64", "f32"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_two_phase_functional_matches_sum(self, x, y, size, seed, policy):
        rng = np.random.default_rng(seed)
        grid = [[rng.standard_normal(size) for _ in range(y)] for _ in range(x)]
        block = np.stack([g for col in grid for g in col])
        out = two_phase_all_reduce_stacked(block, (x, y), policy)
        truth = np.sum([g for col in grid for g in col], axis=0)
        tol = 1e-10 if policy == "f64" else 1e-4
        for d in range(x * y):
            assert np.allclose(out.device_view(d), truth, rtol=tol, atol=tol)
