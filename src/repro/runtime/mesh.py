"""A virtual device mesh holding per-device numpy state.

:class:`VirtualMesh` is the functional twin of the hardware topology: a
logical ``x_size x y_size`` grid of devices, each with named buffers, plus
convenience methods that run the runtime collectives over a named buffer.
It backs fault injection (``fail_device`` / ``restore_device``), the
bit-exact plan execution of :mod:`repro.spmd.graph_exec` and the telemetry
demo; the trainers in :mod:`repro.core` run their collectives directly on
:class:`~repro.runtime.bucket.BucketPlan` blocks instead.

Collectives are routed through :class:`repro.runtime.bucket.GradientBucket`:
``all_reduce`` accepts either one buffer name or a sequence of names, and a
sequence is *fused* — all named buffers travel in a single collective, the
way real trainers bucket their gradients.  Every ``all_reduce`` packs the
surviving participants' fused buffers into one device-major block, runs one
stacked collective over it, and writes each participant its own row of the
result.

Storage is one per-device dict per name (DESIGN.md §11): ``get`` returns
the stored array itself, a dead device keeps its buffers but cannot be
read, and ``restore_device`` drops the restored device's stale buffers.
"""

from __future__ import annotations

import logging
from typing import Callable, Iterator, Sequence

import numpy as np

from repro import telemetry as _telemetry
from repro.resilience.faults import DeviceLostError
from repro.runtime.bucket import GradientBucket

logger = logging.getLogger("repro.runtime")


class VirtualMesh:
    """A logical 2-D grid of numpy 'devices'.

    Parameters
    ----------
    x_size, y_size:
        Logical mesh extent.  For pure data parallelism a 1-D mesh
        (``y_size=1``) is fine; the 2-D hierarchical collective needs both
        dimensions > 1 to exercise both phases.
    """

    def __init__(self, x_size: int, y_size: int = 1) -> None:
        if x_size < 1 or y_size < 1:
            raise ValueError("mesh dims must be >= 1")
        self.x_size = x_size
        self.y_size = y_size
        self._buffers: dict[str, dict[tuple[int, int], np.ndarray]] = {}
        self._buckets: dict[tuple, GradientBucket] = {}
        self._dead: set[tuple[int, int]] = set()

    @property
    def num_devices(self) -> int:
        return self.x_size * self.y_size

    def devices(self) -> Iterator[tuple[int, int]]:
        for x in range(self.x_size):
            for y in range(self.y_size):
                yield (x, y)

    # --- fault injection ------------------------------------------------------

    @property
    def num_alive(self) -> int:
        return self.num_devices - len(self._dead)

    @property
    def dead_devices(self) -> frozenset[tuple[int, int]]:
        return frozenset(self._dead)

    def alive_devices(self) -> Iterator[tuple[int, int]]:
        """Devices still healthy, in device (x-major) order."""
        for d in self.devices():
            if d not in self._dead:
                yield d

    def fail_device(self, device: tuple[int, int]) -> None:
        """Kill one device: its buffers become unreachable.

        The buffers are intentionally *not* freed — nothing holds state the
        survivors can read, which is exactly the recovery problem weight-
        update sharding creates (a lost shard exists nowhere else).
        """
        self._check_device(device, require_alive=False)
        if device in self._dead:
            return
        self._dead.add(device)
        logger.warning(
            "mesh %dx%d: device %s failed (%d/%d alive)",
            self.x_size, self.y_size, device, self.num_alive, self.num_devices,
        )
        if _telemetry.enabled:
            _telemetry.metrics.counter("mesh_device_failures").inc()
        _telemetry.flight_recorder.record(
            "fault", "mesh_device_failed",
            device=list(device), alive=self.num_alive,
        )

    def restore_device(self, device: tuple[int, int]) -> None:
        """Bring a device back (elastic re-expansion after repair).

        Its pre-failure buffers are dropped — a repaired device re-joins
        empty and must be re-populated (normally from a checkpoint).
        """
        self._check_device(device, require_alive=False)
        if device not in self._dead:
            return
        self._dead.discard(device)
        _telemetry.flight_recorder.record(
            "fault", "mesh_device_restored",
            device=list(device), alive=self.num_alive,
        )
        for per_device in self._buffers.values():
            per_device.pop(device, None)
        logger.info("mesh %dx%d: device %s restored", self.x_size, self.y_size, device)

    # --- buffer management ---------------------------------------------------

    def put(self, name: str, device: tuple[int, int], array: np.ndarray) -> None:
        """Place a buffer on one device.

        ``array`` is coerced to a base-class ``np.ndarray`` (``np.asarray``
        copies only when it must), so ``ndarray`` subclasses store their
        plain view rather than leaking subclass behavior into collectives.
        """
        self._check_device(device)
        array = np.asarray(array)
        self._buffers.setdefault(name, {})[device] = array
        if _telemetry.enabled:
            _telemetry.metrics.counter("mesh_put_bytes", device=device).inc(
                array.nbytes
            )

    def put_replicated(self, name: str, array: np.ndarray) -> None:
        """Place identical, independent copies of a buffer on every device.

        The replicas are rows of one block allocation: a single fill
        replaces the per-device copy + dict churn of a ``put`` loop while
        each device still owns a distinct memory region.  Dead devices are
        skipped — replication targets the surviving fleet.
        """
        arr = np.asarray(array)
        block = np.empty((self.num_alive,) + arr.shape, dtype=arr.dtype)
        block[...] = arr
        slot = self._buffers.setdefault(name, {})
        for i, d in enumerate(self.alive_devices()):
            slot[d] = block[i]
        if _telemetry.enabled:
            _telemetry.metrics.counter("mesh_put_bytes", device="replicated").inc(
                block.nbytes
            )

    def get(self, name: str, device: tuple[int, int]) -> np.ndarray:
        self._check_device(device)
        try:
            buf = self._buffers[name][device]
        except KeyError:
            raise KeyError(f"buffer {name!r} not present on device {device}") from None
        if _telemetry.enabled:
            _telemetry.metrics.counter("mesh_get_bytes", device=device).inc(
                buf.nbytes
            )
        return buf

    def get_all(self, name: str) -> list[np.ndarray]:
        """Buffers of every device, in device order."""
        return [self.get(name, d) for d in self.devices()]

    def has(self, name: str) -> bool:
        return name in self._buffers

    def apply(self, name: str, fn: Callable[[np.ndarray], np.ndarray]) -> None:
        """Apply a function to the named buffer on every surviving device."""
        for d in self.alive_devices():
            self.put(name, d, fn(self.get(name, d)))

    def apply_inplace(self, name: str, fn: Callable[[np.ndarray], None]) -> None:
        """Apply a *mutating* function to the named buffer on every device.

        ``fn`` must update its argument in place (its return value is
        ignored); no copies are made and no dict entries are rewritten.
        """
        try:
            per_device = self._buffers[name]
        except KeyError:
            raise KeyError(f"buffer {name!r} not present on mesh") from None
        for device, buf in per_device.items():
            if device not in self._dead:
                fn(buf)

    def _check_device(self, device: tuple[int, int], require_alive: bool = True) -> None:
        x, y = device
        if not (0 <= x < self.x_size and 0 <= y < self.y_size):
            raise ValueError(
                f"device {device} outside mesh {self.x_size}x{self.y_size}"
            )
        if require_alive and device in self._dead:
            raise DeviceLostError(device)

    # --- collectives ----------------------------------------------------------

    def _bucket_for(self, names: tuple[str, ...]) -> GradientBucket:
        template_device = next(self.alive_devices(), None)
        if template_device is None:
            raise DeviceLostError(sorted(self._dead), "every mesh device is dead")
        template = {nm: self.get(nm, template_device) for nm in names}
        key = tuple(
            (nm, template[nm].shape, template[nm].dtype.str) for nm in names
        )
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = GradientBucket(template)
            logger.debug(
                "mesh %dx%d: new fused bucket for %d tensor(s), %d elems",
                self.x_size, self.y_size, len(names), bucket.size,
            )
        return bucket

    def all_reduce(
        self,
        name: str | Sequence[str],
        dtype_policy: str = "f32",
        hierarchical: bool | None = None,
        shard_transform: Callable[[np.ndarray], np.ndarray] | None = None,
        on_fault: str = "raise",
    ) -> None:
        """All-reduce named buffer(s) in place across every surviving device.

        ``name`` may be a single buffer name or a sequence of names; a
        sequence is fused into one bucketed collective (one launch for the
        whole set, as bucketed gradient summation does).  ``hierarchical``
        selects the 2-D schedule (default when both mesh dims exceed 1).
        ``shard_transform`` is the fused sharded-update hook of
        :func:`repro.runtime.collectives.two_phase_all_reduce_stacked`,
        applied to fused flat shards, and is only valid with the
        hierarchical schedule.

        ``on_fault`` controls the semantics on a mesh with holes:
        ``"raise"`` (default) raises :class:`DeviceLostError` naming the
        dead devices — the lockstep behavior of a synchronous fleet;
        ``"heal"`` runs a degraded collective over the survivors only (the
        2-D grid schedule needs a full grid, so healing falls back to a
        flat ring over the survivors, the way Figure 4's hop rings route
        around planned holes).  Dead devices' buffers do not contribute and
        are not updated.
        """
        if on_fault not in ("raise", "heal"):
            raise ValueError(f"on_fault must be 'raise' or 'heal', got {on_fault!r}")
        names = (name,) if isinstance(name, str) else tuple(name)
        degraded = bool(self._dead)
        if degraded:
            if on_fault == "raise":
                err = DeviceLostError(
                    sorted(self._dead),
                    f"all_reduce on mesh with dead device(s) "
                    f"{sorted(self._dead)}; pass on_fault='heal' to degrade",
                )
                _telemetry.on_terminal_failure(err, origin="mesh.all_reduce")
                raise err
            if self.num_alive < 1:
                raise DeviceLostError(sorted(self._dead), "every mesh device is dead")
        if hierarchical is None:
            hierarchical = self.x_size > 1 and self.y_size > 1 and not degraded
        elif hierarchical and degraded:
            # The 2-D schedule addresses a full x*y grid; holes break it.
            logger.info(
                "mesh %dx%d: %d hole(s) — degrading 2-D schedule to survivor ring",
                self.x_size, self.y_size, len(self._dead),
            )
            hierarchical = False
        if not hierarchical and shard_transform is not None:
            raise ValueError("shard_transform requires the hierarchical schedule")
        participants = list(self.alive_devices())
        with _telemetry.tracer.span("mesh_all_reduce", category="comm"):
            bucket = self._bucket_for(names)
            # Device-major path (DESIGN.md §11): gather the participants'
            # fused buffers into one (n, bucket.size) block and run one
            # stacked collective.
            n = len(participants)
            block = np.empty((n, bucket.size), dtype=bucket.dtype)
            for i, d in enumerate(participants):
                bucket.flatten({nm: self.get(nm, d) for nm in names}, out=block[i])
            reduced = bucket.all_reduce_stacked(
                block,
                dtype_policy,
                grid_shape=(self.x_size, self.y_size) if hierarchical else None,
                shard_transform=shard_transform,
            )
            # Each participant owns a distinct row of the materialized
            # result; dead devices keep their stale buffers.
            rows = reduced.materialized().block
            slots = [self._buffers[nm] for nm in names]
            for i, d in enumerate(participants):
                tree = bucket.unflatten(rows[i])
                for nm, slot in zip(names, slots):
                    slot[d] = tree[nm]
        if _telemetry.enabled:
            _telemetry.metrics.counter(
                "mesh_allreduce_launches",
                schedule="2d" if hierarchical else "ring",
            ).inc()
            if degraded:
                _telemetry.metrics.counter("mesh_degraded_collectives").inc()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VirtualMesh({self.x_size}x{self.y_size}, "
            f"buffers={sorted(self._buffers)})"
        )
