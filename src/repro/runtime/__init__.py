"""Functional execution of collectives and parallel training on numpy.

Everything in this subpackage *actually runs* the paper's distributed
algorithms at laptop scale: each "device" is a row of one device-major
numpy block, and the collective routines move chunks between devices step
by step exactly as the ring schedules do on hardware.  There is one
collective path: ``ring_reduce_scatter``, ``ring_all_gather_stacked``,
``ring_all_reduce_stacked`` and ``two_phase_all_reduce_stacked`` take a
device-major block (or :class:`StackedValue`, or a per-device sequence)
and return a :class:`ShardedValue` or a replicated :class:`StackedValue`.
Tests compare the results bit-for-bit against the per-device-loop
``_reference_*`` schedules, which is the correctness backbone for the
data-parallel / model-parallel / weight-update-sharding trainers in
:mod:`repro.core`.
"""

from repro.runtime.collectives import (
    ShardedValue,
    padded_chunk_layout,
    ring_reduce_scatter,
    ring_all_gather_stacked,
    ring_all_reduce_stacked,
    two_phase_all_reduce_stacked,
)
from repro.runtime.bucket import BucketSegment, GradientBucket
from repro.runtime.mesh import VirtualMesh
from repro.runtime.stacked import StackedValue

__all__ = [
    "ShardedValue",
    "StackedValue",
    "padded_chunk_layout",
    "ring_reduce_scatter",
    "ring_all_gather_stacked",
    "ring_all_reduce_stacked",
    "two_phase_all_reduce_stacked",
    "BucketSegment",
    "GradientBucket",
    "VirtualMesh",
]
