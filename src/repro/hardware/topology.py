"""2-D mesh/torus interconnect topology of TPU pods and multipods.

A single TPU-v3 pod is a 32x32 torus of chips.  The paper's "Multipod"
(Figures 1-2) joins four pods along the X dimension with longer cross-pod
optical links, giving a 128x32 topology that is a *mesh* along X (no X wrap)
and keeps the within-pod *torus* wrap links at the Y edges.  Smaller
benchmark runs use rectangular slices; a slice only has wrap links in a
dimension it spans completely.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from repro.hardware.chip import ChipSpec, HostSpec, TPU_V3, TPU_V3_HOST

POD_SIDE = 32
"""Chips per side of one TPU-v3 pod (32x32 = 1024 chips)."""


class Coordinate(NamedTuple):
    """Position of a chip in the 2-D mesh."""

    x: int
    y: int


class LinkKind(enum.Enum):
    """Physical flavor of an inter-chip link."""

    INTRA_POD = "intra_pod"
    WRAP = "wrap"  # torus wrap-around at a mesh edge
    CROSS_POD = "cross_pod"  # longer optical link between pods (Figure 2)


@dataclass(frozen=True)
class Link:
    """A directed inter-chip link."""

    src: Coordinate
    dst: Coordinate
    kind: LinkKind

    @property
    def axis(self) -> str:
        """``"x"`` or ``"y"`` — the mesh dimension this link travels along."""
        return "x" if self.src.y == self.dst.y else "y"


class TorusMesh:
    """A rectangular 2-D mesh of chips with optional torus wraps.

    Parameters
    ----------
    x_size, y_size:
        Mesh extent in chips.
    wrap_x, wrap_y:
        Whether wrap-around (torus) links exist along each dimension.
    cross_pod_every:
        If set (e.g. 32 for a TPU-v3 multipod), the X links crossing
        ``x = k*cross_pod_every - 1 -> k*cross_pod_every`` are cross-pod
        optical links with higher latency.
    chip:
        Per-chip specification (defaults to TPU-v3).
    host:
        Host specification; chips are assigned to hosts in row-major blocks
        of ``host.chips_per_host``.
    """

    def __init__(
        self,
        x_size: int,
        y_size: int,
        *,
        wrap_x: bool = False,
        wrap_y: bool = False,
        cross_pod_every: int | None = None,
        chip: ChipSpec = TPU_V3,
        host: HostSpec = TPU_V3_HOST,
    ) -> None:
        if x_size < 1 or y_size < 1:
            raise ValueError(f"mesh dims must be >= 1, got {x_size}x{y_size}")
        if wrap_x and x_size < 3:
            # A wrap on a 1- or 2-wide dimension duplicates an existing link.
            wrap_x = False
        if wrap_y and y_size < 3:
            wrap_y = False
        if cross_pod_every is not None and cross_pod_every < 1:
            raise ValueError("cross_pod_every must be positive")
        self.x_size = x_size
        self.y_size = y_size
        self.wrap_x = wrap_x
        self.wrap_y = wrap_y
        self.cross_pod_every = cross_pod_every
        self.chip = chip
        self.host = host

    # --- basic geometry ----------------------------------------------------

    @property
    def num_chips(self) -> int:
        return self.x_size * self.y_size

    @property
    def num_cores(self) -> int:
        return self.num_chips * self.chip.cores

    @property
    def num_hosts(self) -> int:
        chips = self.num_chips
        per = self.host.chips_per_host
        return max(1, (chips + per - 1) // per)

    def contains(self, coord: Coordinate) -> bool:
        return 0 <= coord[0] < self.x_size and 0 <= coord[1] < self.y_size

    def chips(self) -> Iterator[Coordinate]:
        """All chip coordinates in row-major (y-fastest) order."""
        for x in range(self.x_size):
            for y in range(self.y_size):
                yield Coordinate(x, y)

    def chip_id(self, coord: Coordinate) -> int:
        """Dense integer id of a chip (row-major, y-fastest)."""
        if not self.contains(coord):
            raise ValueError(f"{coord} outside {self.x_size}x{self.y_size} mesh")
        return coord[0] * self.y_size + coord[1]

    def coordinate(self, chip_id: int) -> Coordinate:
        """Inverse of :meth:`chip_id`."""
        if not 0 <= chip_id < self.num_chips:
            raise ValueError(f"chip id {chip_id} out of range")
        return Coordinate(chip_id // self.y_size, chip_id % self.y_size)

    def host_of(self, coord: Coordinate) -> int:
        """Host index feeding this chip (row-major blocks)."""
        return self.chip_id(coord) // self.host.chips_per_host

    # --- links --------------------------------------------------------------

    def _x_link_kind(self, x_lo: int) -> LinkKind:
        """Kind of the +x link leaving column ``x_lo`` (to ``x_lo + 1``)."""
        if (
            self.cross_pod_every is not None
            and (x_lo + 1) % self.cross_pod_every == 0
            and x_lo + 1 < self.x_size
        ):
            return LinkKind.CROSS_POD
        return LinkKind.INTRA_POD

    def neighbors(self, coord: Coordinate) -> list[Coordinate]:
        """Physically connected neighbor chips (mesh and wrap links)."""
        x, y = coord
        out: list[Coordinate] = []
        if x + 1 < self.x_size:
            out.append(Coordinate(x + 1, y))
        elif self.wrap_x:
            out.append(Coordinate(0, y))
        if x - 1 >= 0:
            out.append(Coordinate(x - 1, y))
        elif self.wrap_x:
            out.append(Coordinate(self.x_size - 1, y))
        if y + 1 < self.y_size:
            out.append(Coordinate(x, y + 1))
        elif self.wrap_y:
            out.append(Coordinate(x, 0))
        if y - 1 >= 0:
            out.append(Coordinate(x, y - 1))
        elif self.wrap_y:
            out.append(Coordinate(x, self.y_size - 1))
        return out

    def links(self) -> list[Link]:
        """All directed links of the mesh."""
        out: list[Link] = []
        for x in range(self.x_size):
            for y in range(self.y_size):
                a = Coordinate(x, y)
                if x + 1 < self.x_size:
                    b = Coordinate(x + 1, y)
                    kind = self._x_link_kind(x)
                    out.append(Link(a, b, kind))
                    out.append(Link(b, a, kind))
                if y + 1 < self.y_size:
                    b = Coordinate(x, y + 1)
                    out.append(Link(a, b, LinkKind.INTRA_POD))
                    out.append(Link(b, a, LinkKind.INTRA_POD))
        if self.wrap_x:
            for y in range(self.y_size):
                a = Coordinate(self.x_size - 1, y)
                b = Coordinate(0, y)
                out.append(Link(a, b, LinkKind.WRAP))
                out.append(Link(b, a, LinkKind.WRAP))
        if self.wrap_y:
            for x in range(self.x_size):
                a = Coordinate(x, self.y_size - 1)
                b = Coordinate(x, 0)
                out.append(Link(a, b, LinkKind.WRAP))
                out.append(Link(b, a, LinkKind.WRAP))
        return out

    def link_between(self, a: Coordinate, b: Coordinate) -> Link:
        """The directed link from ``a`` to ``b``; raises if not adjacent."""
        if b not in self.neighbors(a):
            raise ValueError(f"{a} and {b} are not connected")
        if a.y == b.y:  # x link
            if abs(a.x - b.x) == 1:
                kind = self._x_link_kind(min(a.x, b.x))
            else:
                kind = LinkKind.WRAP
        else:
            kind = LinkKind.INTRA_POD if abs(a.y - b.y) == 1 else LinkKind.WRAP
        return Link(a, b, kind)

    def link_latency(self, link: Link) -> float:
        """One-hop latency of a link in seconds."""
        if link.kind is LinkKind.CROSS_POD:
            return self.chip.cross_pod_link_latency
        return self.chip.link_latency

    @property
    def link_bandwidth(self) -> float:
        """Effective per-direction bandwidth of every link (bytes/s)."""
        return self.chip.link_bandwidth

    # --- analysis helpers ----------------------------------------------------

    def bisection_bandwidth(self) -> float:
        """One-direction bandwidth across the X midline cut, bytes/s.

        For a Y-torus / X-mesh multipod the midline cut crosses ``y_size``
        X links (plus ``y_size`` more if X wraps).
        """
        cut_links = self.y_size * (2 if self.wrap_x else 1)
        return cut_links * self.link_bandwidth

    def sub_slice(self, x_size: int, y_size: int) -> "TorusMesh":
        """A rectangular slice anchored at the origin.

        Wrap links survive only along dimensions the slice spans fully.
        """
        if x_size > self.x_size or y_size > self.y_size:
            raise ValueError(
                f"slice {x_size}x{y_size} exceeds mesh {self.x_size}x{self.y_size}"
            )
        return TorusMesh(
            x_size,
            y_size,
            wrap_x=self.wrap_x and x_size == self.x_size,
            wrap_y=self.wrap_y and y_size == self.y_size,
            cross_pod_every=(
                self.cross_pod_every
                if self.cross_pod_every is not None and x_size > self.cross_pod_every
                else None
            ),
            chip=self.chip,
            host=self.host,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        wraps = "".join(d for d, w in (("x", self.wrap_x), ("y", self.wrap_y)) if w)
        return (
            f"TorusMesh({self.x_size}x{self.y_size}, wrap={wraps or 'none'}, "
            f"chip={self.chip.name})"
        )


def single_pod(chip: ChipSpec = TPU_V3, side: int = POD_SIDE) -> TorusMesh:
    """One TPU pod: a ``side x side`` full torus."""
    return TorusMesh(side, side, wrap_x=True, wrap_y=True, chip=chip)


def multipod(num_pods: int = 4, chip: ChipSpec = TPU_V3) -> TorusMesh:
    """A TPU-v3 multipod: ``num_pods`` pods joined along X (Figure 2).

    The result is a ``(32*num_pods) x 32`` topology, a mesh along X with
    cross-pod links at pod boundaries and torus wraps along Y.  With
    ``num_pods=1`` this degenerates to a full single-pod torus.
    """
    if num_pods < 1:
        raise ValueError("num_pods must be >= 1")
    if num_pods == 1:
        return single_pod(chip)
    return TorusMesh(
        POD_SIDE * num_pods,
        POD_SIDE,
        wrap_x=False,
        wrap_y=True,
        cross_pod_every=POD_SIDE,
        chip=chip,
    )


#: Canonical slice shapes used for the paper's scaling studies (Figures 5-8).
#: Shapes follow TPU slice geometry: grow X first once Y spans the pod.
_SLICE_SHAPES: dict[int, tuple[int, int]] = {
    16: (4, 4),
    32: (8, 4),
    64: (8, 8),
    128: (16, 8),
    256: (16, 16),
    512: (16, 32),
    1024: (32, 32),
    2048: (64, 32),
    4096: (128, 32),
}


def slice_for_chips(num_chips: int, chip: ChipSpec = TPU_V3) -> TorusMesh:
    """The benchmark slice used for a given chip count.

    Slices of 1024 chips or fewer live inside one pod; they get Y wrap links
    only when they span the full pod side (32), and the 1024-chip slice is a
    full torus.  Larger slices are multipods (X mesh with cross-pod links).
    """
    try:
        x, y = _SLICE_SHAPES[num_chips]
    except KeyError:
        known = ", ".join(str(k) for k in sorted(_SLICE_SHAPES))
        raise ValueError(
            f"no canonical slice for {num_chips} chips; known sizes: {known}"
        ) from None
    if num_chips <= 1024:
        return TorusMesh(
            x,
            y,
            wrap_x=(x == POD_SIDE),
            wrap_y=(y == POD_SIDE),
            chip=chip,
        )
    return TorusMesh(
        x,
        y,
        wrap_x=False,
        wrap_y=True,
        cross_pod_every=POD_SIDE,
        chip=chip,
    )
