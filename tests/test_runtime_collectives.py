"""Functional collective tests: the numpy ring algorithms vs ground truth."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numerics.bfloat16 import BF16_EPS
from repro.runtime.collectives import (
    ShardedValue,
    ring_all_gather_stacked,
    ring_all_reduce_stacked,
    ring_reduce_scatter,
    two_phase_all_reduce_stacked,
)


def _device_buffers(rng, n, shape):
    return [rng.standard_normal(shape) for _ in range(n)]


class TestRingReduceScatter:
    def test_shards_sum_to_total(self, rng):
        arrays = _device_buffers(rng, 4, (40,))
        sv = ring_reduce_scatter(arrays, "f64")
        assert np.allclose(sv.assemble(), np.sum(arrays, axis=0))

    def test_padding_handled(self, rng):
        arrays = _device_buffers(rng, 4, (37,))  # 37 % 4 != 0
        sv = ring_reduce_scatter(arrays, "f64")
        assert sv.assemble().shape == (37,)
        assert np.allclose(sv.assemble(), np.sum(arrays, axis=0))

    def test_multidim_buffers(self, rng):
        arrays = _device_buffers(rng, 3, (4, 5))
        sv = ring_reduce_scatter(arrays, "f64")
        assert np.allclose(sv.assemble(), np.sum(arrays, axis=0))

    def test_single_device(self, rng):
        arrays = _device_buffers(rng, 1, (10,))
        sv = ring_reduce_scatter(arrays, "f64")
        assert np.allclose(sv.assemble(), arrays[0])

    def test_shapes_must_match(self, rng):
        with pytest.raises(ValueError):
            ring_reduce_scatter([np.zeros(4), np.zeros(5)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ring_reduce_scatter([])

    def test_unknown_policy(self, rng):
        with pytest.raises(ValueError):
            ring_reduce_scatter(_device_buffers(rng, 2, (4,)), "f16")

    def test_each_device_owns_equal_chunk(self, rng):
        arrays = _device_buffers(rng, 4, (40,))
        sv = ring_reduce_scatter(arrays, "f64")
        assert all(s.size == 10 for s in sv.shards)


class TestRingAllGather:
    def test_roundtrip(self, rng):
        arrays = _device_buffers(rng, 5, (23,))
        sv = ring_reduce_scatter(arrays, "f64")
        gathered = ring_all_gather_stacked(sv)
        truth = np.sum(arrays, axis=0)
        assert gathered.num_devices == 5
        for d in range(5):
            assert np.allclose(gathered.device_view(d), truth)

    def test_single_device(self, rng):
        sv = ring_reduce_scatter(_device_buffers(rng, 1, (7,)), "f64")
        out = ring_all_gather_stacked(sv).device_view(0)
        assert out.shape == (7,)

    def test_result_does_not_alias_input(self):
        arrays = [np.full(4, float(d + 1)) for d in range(4)]
        sv = ring_reduce_scatter(arrays, "f64")
        gathered = ring_all_gather_stacked(sv)
        assert gathered.device_view(0)[0] == 10.0
        sv.shards[0][0] = 99.0
        for d in range(4):
            assert gathered.device_view(d)[0] == 10.0


class TestRingAllReduce:
    def test_matches_sum_f64(self, rng):
        arrays = _device_buffers(rng, 6, (31,))
        out = ring_all_reduce_stacked(arrays, "f64")
        truth = np.sum(arrays, axis=0)
        for d in range(6):
            assert np.allclose(out.device_view(d), truth, rtol=1e-12)

    def test_f32_close(self, rng):
        arrays = [a.astype(np.float32) for a in _device_buffers(rng, 8, (64,))]
        out = ring_all_reduce_stacked(arrays, "f32")
        truth = np.sum(arrays, axis=0, dtype=np.float64)
        assert np.allclose(out.device_view(0), truth, rtol=1e-5, atol=1e-5)

    def test_bf16_within_bound(self, rng):
        n = 8
        arrays = [a.astype(np.float32) for a in _device_buffers(rng, n, (64,))]
        out = ring_all_reduce_stacked(arrays, "bf16").device_view(0)
        truth = np.sum(arrays, axis=0, dtype=np.float64)
        scale = np.sum(np.abs(arrays), axis=0)
        assert np.all(np.abs(out - truth) <= 3 * n * BF16_EPS * scale + 1e-5)

    @given(
        n=st.integers(min_value=1, max_value=9),
        size=st.integers(min_value=1, max_value=50),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_matches_sum(self, n, size, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal(size) for _ in range(n)]
        out = ring_all_reduce_stacked(arrays, "f64")
        truth = np.sum(arrays, axis=0)
        assert out.num_devices == n
        for d in range(n):
            assert np.allclose(out.device_view(d), truth, rtol=1e-10, atol=1e-12)


class TestTwoPhase:
    def test_matches_sum(self, rng):
        block = rng.standard_normal((4 * 3, 5, 3))
        out = two_phase_all_reduce_stacked(block, (4, 3), "f64")
        truth = np.sum(block, axis=0)
        for x in range(4):
            for y in range(3):
                assert np.allclose(out.device_view(x * 3 + y), truth, rtol=1e-12)

    def test_shard_transform_applied(self, rng):
        block = rng.standard_normal((2 * 2, 11))
        out = two_phase_all_reduce_stacked(
            block, (2, 2), "f64", shard_transform=lambda s: -s
        )
        truth = -np.sum(block, axis=0)
        assert np.allclose(out.device_view(0), truth)

    def test_ragged_grid_rejected(self, rng):
        block = np.zeros((3, 4))  # three devices cannot fill a 2x2 grid
        with pytest.raises(ValueError, match="do not fill"):
            two_phase_all_reduce_stacked(block, (2, 2))

    def test_shard_transform_shape_check(self, rng):
        block = rng.standard_normal((2 * 2, 8))
        with pytest.raises(ValueError, match="preserve shape"):
            two_phase_all_reduce_stacked(
                block, (2, 2), "f64", shard_transform=lambda s: s[:1]
            )

    @given(
        x=st.integers(min_value=1, max_value=4),
        y=st.integers(min_value=1, max_value=4),
        size=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_grid_sum(self, x, y, size, seed):
        rng = np.random.default_rng(seed)
        block = rng.standard_normal((x * y, size))
        out = two_phase_all_reduce_stacked(block, (x, y), "f64")
        truth = np.sum(block, axis=0)
        for d in range(x * y):
            assert np.allclose(out.device_view(d), truth, rtol=1e-10, atol=1e-12)


class TestGridPhases:
    def test_reduce_scatter_grid_shards(self, rng):
        block = rng.standard_normal((2 * 3, 24))
        seen = []
        two_phase_all_reduce_stacked(
            block, (2, 3), "f64", shard_transform=lambda s: seen.append(s.copy()) or s
        )
        # shard_transform sees the (y, x, x_chunk) shard block: device
        # (x, y) owns X-chunk x of Y-chunk y.  Reassemble: for each y
        # chunk, concatenate x shards; then concat y.
        (shards,) = seen
        truth = np.sum(block, axis=0)
        pieces = []
        for y in range(3):
            for x in range(2):
                pieces.append(shards[y, x])
        assert np.allclose(np.concatenate(pieces)[:24], truth)


class TestShardedValue:
    def test_assemble_strips_padding(self):
        sv = ShardedValue(
            shards=[np.arange(3.0), np.array([3.0, 0.0, 0.0])],
            shape=(4,),
            padded_size=6,
        )
        assert np.array_equal(sv.assemble(), np.arange(4.0))
