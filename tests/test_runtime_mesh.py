"""VirtualMesh buffer management and collective dispatch."""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.resilience.faults import DeviceLostError
from repro.runtime.mesh import VirtualMesh


class TestBuffers:
    def test_put_get(self):
        m = VirtualMesh(2, 2)
        m.put("w", (1, 1), np.arange(4.0))
        assert np.array_equal(m.get("w", (1, 1)), np.arange(4.0))

    def test_put_replicated(self):
        m = VirtualMesh(2, 3)
        m.put_replicated("w", np.ones(5))
        for d in m.devices():
            assert np.array_equal(m.get("w", d), np.ones(5))

    def test_replication_copies(self):
        m = VirtualMesh(2, 1)
        src = np.zeros(3)
        m.put_replicated("w", src)
        m.get("w", (0, 0))[0] = 99.0
        assert m.get("w", (1, 0))[0] == 0.0

    def test_missing_buffer(self):
        m = VirtualMesh(1, 1)
        with pytest.raises(KeyError):
            m.get("nope", (0, 0))

    def test_bad_device(self):
        m = VirtualMesh(2, 2)
        with pytest.raises(ValueError):
            m.put("w", (2, 0), np.zeros(1))

    def test_devices_order(self):
        m = VirtualMesh(2, 2)
        assert list(m.devices()) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_apply(self):
        m = VirtualMesh(2, 1)
        m.put_replicated("w", np.ones(3))
        m.apply("w", lambda a: 2 * a)
        assert np.array_equal(m.get("w", (1, 0)), 2 * np.ones(3))

    def test_apply_inplace(self):
        m = VirtualMesh(2, 1)
        m.put_replicated("w", np.ones(3))
        before = [m.get("w", d) for d in m.devices()]

        def scale(buf):
            buf *= 3.0

        m.apply_inplace("w", scale)
        for d, buf in zip(m.devices(), before):
            assert m.get("w", d) is buf  # no copies, no dict rewrites
            assert np.array_equal(buf, 3.0 * np.ones(3))

    def test_apply_inplace_missing_buffer(self):
        m = VirtualMesh(1, 1)
        with pytest.raises(KeyError):
            m.apply_inplace("nope", lambda b: None)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            VirtualMesh(0, 1)


class TestMeshCollectives:
    def _fill(self, m, name, size=12):
        for i, d in enumerate(m.devices()):
            m.put(name, d, np.full(size, float(i + 1)))

    def test_flat_all_reduce(self):
        m = VirtualMesh(4, 1)
        self._fill(m, "g")
        m.all_reduce("g", "f64")
        expected = np.full(12, 1.0 + 2 + 3 + 4)
        for d in m.devices():
            assert np.allclose(m.get("g", d), expected)

    def test_hierarchical_all_reduce(self):
        m = VirtualMesh(2, 3)
        self._fill(m, "g")
        m.all_reduce("g", "f64")
        expected = np.full(12, float(sum(range(1, 7))))
        for d in m.devices():
            assert np.allclose(m.get("g", d), expected)

    def test_hierarchical_forced_off(self):
        m = VirtualMesh(2, 2)
        self._fill(m, "g")
        m.all_reduce("g", "f64", hierarchical=False)
        expected = np.full(12, 10.0)
        assert np.allclose(m.get("g", (0, 0)), expected)

    def test_shard_transform_needs_hierarchical(self):
        m = VirtualMesh(4, 1)
        self._fill(m, "g")
        with pytest.raises(ValueError):
            m.all_reduce("g", hierarchical=False, shard_transform=lambda s: s)

    def test_fused_shard_transform(self):
        m = VirtualMesh(2, 2)
        self._fill(m, "g")
        m.all_reduce("g", "f64", shard_transform=lambda s: 0.5 * s)
        expected = np.full(12, 0.5 * 10.0)
        assert np.allclose(m.get("g", (1, 1)), expected)

    def test_fused_multi_name_all_reduce(self):
        """A sequence of names travels in ONE bucketed collective."""
        m = VirtualMesh(4, 1)
        self._fill(m, "g0", size=7)
        self._fill(m, "g1", size=5)
        m.all_reduce(["g0", "g1"], "f64")
        for d in m.devices():
            assert np.allclose(m.get("g0", d), np.full(7, 10.0))
            assert np.allclose(m.get("g1", d), np.full(5, 10.0))

    def test_fused_multi_name_matches_separate(self):
        fused = VirtualMesh(2, 2)
        separate = VirtualMesh(2, 2)
        rng = np.random.default_rng(5)
        for i, d in enumerate(fused.devices()):
            a = rng.standard_normal(9)
            b = rng.standard_normal((3, 4))
            fused.put("a", d, a.copy())
            fused.put("b", d, b.copy())
            separate.put("a", d, a.copy())
            separate.put("b", d, b.copy())
        fused.all_reduce(["a", "b"], "f64")
        separate.all_reduce("a", "f64")
        separate.all_reduce("b", "f64")
        for d in fused.devices():
            assert np.allclose(fused.get("a", d), separate.get("a", d))
            assert np.allclose(fused.get("b", d), separate.get("b", d))

    def test_bucket_layout_cached(self):
        m = VirtualMesh(2, 1)
        self._fill(m, "g")
        m.all_reduce("g", "f64")
        first = m._buckets
        assert len(first) == 1
        m.all_reduce("g", "f64")
        assert m._buckets is first and len(first) == 1


# --- stateful guard: VirtualMesh against a dict-of-arrays model -------------

_DEVICES = [(0, 0), (0, 1), (1, 0), (1, 1)]
_SHAPES = {"a": (3,), "b": (2, 2)}


def _payload(name):
    """Integer-valued f64 arrays: every summation order is exact."""
    size = int(np.prod(_SHAPES[name]))
    return st.lists(
        st.integers(-1000, 1000), min_size=size, max_size=size
    ).map(lambda v: np.array(v, dtype=np.float64).reshape(_SHAPES[name]))


_names = st.sampled_from(sorted(_SHAPES))
_named_payload = _names.flatmap(lambda nm: st.tuples(st.just(nm), _payload(nm)))


class MeshStateMachine(RuleBasedStateMachine):
    """Random put / replicate / fail / restore / mutate / all-reduce runs.

    The model is ``{name: {device: array}}`` plus the dead set.  A dead
    device keeps its model entries (its buffers are unreachable, not
    freed) until ``restore_device`` drops them.
    """

    def __init__(self):
        super().__init__()
        self.mesh = VirtualMesh(2, 2)
        self.model: dict[str, dict[tuple[int, int], np.ndarray]] = {}
        self.dead: set[tuple[int, int]] = set()

    def _alive(self):
        return [d for d in _DEVICES if d not in self.dead]

    @rule(device=st.sampled_from(_DEVICES), item=_named_payload)
    def put(self, device, item):
        name, value = item
        if device in self.dead:
            with pytest.raises(DeviceLostError):
                self.mesh.put(name, device, value.copy())
            return
        self.mesh.put(name, device, value.copy())
        self.model.setdefault(name, {})[device] = value

    @rule(item=_named_payload)
    def put_replicated(self, item):
        name, value = item
        self.mesh.put_replicated(name, value)
        slot = self.model.setdefault(name, {})
        for d in self._alive():
            slot[d] = value.copy()

    @rule(device=st.sampled_from(_DEVICES))
    def fail_device(self, device):
        self.mesh.fail_device(device)
        self.dead.add(device)

    @rule(device=st.sampled_from(_DEVICES))
    def restore_device(self, device):
        self.mesh.restore_device(device)
        if device in self.dead:
            self.dead.discard(device)
            for slot in self.model.values():
                slot.pop(device, None)

    @rule(name=_names, delta=st.integers(-5, 5))
    def apply_inplace(self, name, delta):
        def bump(buf):
            buf += delta

        if name not in self.model:
            with pytest.raises(KeyError):
                self.mesh.apply_inplace(name, bump)
            return
        self.mesh.apply_inplace(name, bump)
        for d, arr in self.model[name].items():
            if d not in self.dead:
                self.model[name][d] = arr + delta

    @rule(name=_names, on_fault=st.sampled_from(["raise", "heal"]))
    def all_reduce(self, name, on_fault):
        alive = self._alive()
        if (self.dead and on_fault == "raise") or not alive:
            with pytest.raises(DeviceLostError):
                self.mesh.all_reduce(name, "f64", on_fault=on_fault)
            return
        slot = self.model.get(name, {})
        if any(d not in slot for d in alive):
            with pytest.raises(KeyError):
                self.mesh.all_reduce(name, "f64", on_fault=on_fault)
            return
        self.mesh.all_reduce(name, "f64", on_fault=on_fault)
        total = sum(slot[d] for d in alive)
        for d in alive:
            slot[d] = total.copy()

    @invariant()
    def matches_model(self):
        assert self.mesh.dead_devices == frozenset(self.dead)
        for name in _SHAPES:
            assert self.mesh.has(name) == (name in self.model)
            slot = self.model.get(name, {})
            for d in _DEVICES:
                if d in self.dead:
                    with pytest.raises(DeviceLostError):
                        self.mesh.get(name, d)
                elif d in slot:
                    np.testing.assert_array_equal(self.mesh.get(name, d), slot[d])
                else:
                    with pytest.raises(KeyError):
                        self.mesh.get(name, d)


MeshStateMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=25, deadline=None
)
TestMeshStateMachine = MeshStateMachine.TestCase
