"""GradientBucket: fused flatten/unflatten, segment maps, fused collectives."""

import numpy as np
import pytest

from repro.runtime.bucket import BucketSegment, GradientBucket
from repro.runtime.collectives import ring_all_reduce_stacked


def _all_reduce(bucket, trees, dtype_policy="f32", **kwargs):
    """Flatten per-device trees, run one stacked collective, unflatten."""
    block = np.stack([bucket.flatten(t) for t in trees])
    out = bucket.all_reduce_stacked(block, dtype_policy, **kwargs)
    return [bucket.unflatten(out.device_view(d)) for d in range(out.num_devices)]


def _tree(rng, dtype=np.float64):
    return {
        "w0": rng.standard_normal((6, 4)).astype(dtype),
        "b0": rng.standard_normal(4).astype(dtype),
        "w1": rng.standard_normal((4, 3)).astype(dtype),
        "b1": rng.standard_normal(3).astype(dtype),
    }


class TestLayout:
    def test_offsets_are_contiguous(self, rng):
        tree = _tree(rng)
        bucket = GradientBucket(tree)
        offset = 0
        for name in tree:
            assert bucket.slice_of(name) == slice(offset, offset + tree[name].size)
            offset += tree[name].size
        assert bucket.size == offset

    def test_flatten_unflatten_roundtrip(self, rng):
        tree = _tree(rng)
        bucket = GradientBucket(tree)
        flat = bucket.flatten(tree)
        back = bucket.unflatten(flat)
        for name in tree:
            assert np.array_equal(back[name], tree[name])
            assert back[name].shape == tree[name].shape

    def test_unflatten_is_zero_copy(self, rng):
        tree = _tree(rng)
        bucket = GradientBucket(tree)
        flat = bucket.flatten(tree)
        back = bucket.unflatten(flat)
        assert back["w0"].base is flat
        flat[0] = 123.0
        assert back["w0"].reshape(-1)[0] == 123.0

    def test_flatten_into_out(self, rng):
        tree = _tree(rng)
        bucket = GradientBucket(tree)
        out = np.empty(bucket.size)
        assert bucket.flatten(tree, out=out) is out
        with pytest.raises(ValueError):
            bucket.flatten(tree, out=np.empty(bucket.size + 1))

    def test_empty_template_rejected(self):
        with pytest.raises(ValueError):
            GradientBucket({})

    def test_short_buffer_rejected(self, rng):
        bucket = GradientBucket(_tree(rng))
        with pytest.raises(ValueError):
            bucket.unflatten(np.zeros(bucket.size - 1))


class TestSegments:
    def test_segments_cover_window(self, rng):
        bucket = GradientBucket(_tree(rng))
        segs = bucket.segments(10, 30)
        assert all(isinstance(s, BucketSegment) for s in segs)
        covered = sum(s.size for s in segs)
        assert covered == 20
        # bucket_slice positions are disjoint, ordered, and inside the window
        pos = 10
        for s in segs:
            assert s.bucket_slice.start == pos
            assert s.local_slice.start == pos - 10
            pos = s.bucket_slice.stop
        assert pos == 30

    def test_window_past_end_yields_nothing(self, rng):
        bucket = GradientBucket(_tree(rng))
        assert bucket.segments(bucket.size, bucket.size + 8) == ()

    def test_segments_cached(self, rng):
        bucket = GradientBucket(_tree(rng))
        assert bucket.segments(0, 5) is bucket.segments(0, 5)

    def test_shard_segments_partition(self, rng):
        bucket = GradientBucket(_tree(rng))
        for n in (1, 2, 3, 4, 7):
            windows = bucket.shard_segments(n)
            assert len(windows) == n
            total = sum(s.size for segs in windows for s in segs)
            assert total == bucket.size
            # tensor slices reassemble every parameter exactly
            seen = {name: np.zeros(int(np.prod(shape)), dtype=int)
                    for name, shape in bucket.shapes.items()}
            for segs in windows:
                for s in segs:
                    seen[s.name][s.tensor_slice] += 1
            for counts in seen.values():
                assert np.all(counts == 1)


class TestFusedAllReduce:
    def test_matches_per_parameter_collective(self, rng):
        """Flatten -> ONE all-reduce -> unflatten == per-parameter all-reduce."""
        n = 4
        trees = [_tree(rng) for _ in range(n)]
        bucket = GradientBucket(trees[0])
        fused = _all_reduce(bucket, trees, "f64")
        assert len(fused) == n
        for name in trees[0]:
            separate = ring_all_reduce_stacked([t[name] for t in trees], "f64")
            for d in range(n):
                assert fused[d][name].shape == trees[0][name].shape
                assert np.allclose(
                    fused[d][name], separate.device_view(d), rtol=1e-12
                )

    def test_hierarchical_grid(self, rng):
        trees = [_tree(rng) for _ in range(6)]
        bucket = GradientBucket(trees[0])
        fused = _all_reduce(bucket, trees, "f64", grid_shape=(2, 3))
        truth = {
            name: np.sum([t[name] for t in trees], axis=0) for name in trees[0]
        }
        for d in range(6):
            for name in truth:
                assert np.allclose(fused[d][name], truth[name], rtol=1e-10)

    def test_grid_shape_mismatch(self, rng):
        trees = [_tree(rng) for _ in range(4)]
        with pytest.raises(ValueError):
            _all_reduce(GradientBucket(trees[0]), trees, grid_shape=(3, 2))

    def test_shard_transform_requires_hierarchical(self, rng):
        trees = [_tree(rng) for _ in range(4)]
        with pytest.raises(ValueError):
            _all_reduce(
                GradientBucket(trees[0]), trees, shard_transform=lambda s: s
            )

    def test_scalar_entry(self, rng):
        trees = [
            {"s": np.float64(i + 1), "v": np.full(3, float(i + 1))}
            for i in range(3)
        ]
        bucket = GradientBucket(trees[0])
        fused = _all_reduce(bucket, trees, "f64")
        assert fused[0]["s"].shape == ()
        assert float(fused[0]["s"]) == pytest.approx(6.0)
        assert np.allclose(fused[0]["v"], np.full(3, 6.0))
