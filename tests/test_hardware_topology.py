"""Topology tests: mesh geometry, links, wraps, multipod structure."""

import networkx as nx
import pytest

from repro.hardware.topology import (
    Coordinate,
    LinkKind,
    TorusMesh,
    multipod,
    slice_for_chips,
)


class TestGeometry:
    def test_chip_count(self, the_multipod):
        assert the_multipod.num_chips == 4096
        assert the_multipod.num_cores == 8192

    def test_multipod_shape(self, the_multipod):
        assert (the_multipod.x_size, the_multipod.y_size) == (128, 32)
        assert the_multipod.wrap_y and not the_multipod.wrap_x

    def test_hosts(self, the_multipod):
        assert the_multipod.num_hosts == 512

    def test_chip_id_roundtrip(self, the_multipod):
        for cid in (0, 1, 31, 32, 4095):
            assert the_multipod.chip_id(the_multipod.coordinate(cid)) == cid

    def test_chip_id_out_of_range(self, the_multipod):
        with pytest.raises(ValueError):
            the_multipod.coordinate(4096)
        with pytest.raises(ValueError):
            the_multipod.chip_id(Coordinate(128, 0))

    def test_chips_iteration_covers_all(self, small_torus):
        chips = list(small_torus.chips())
        assert len(chips) == 16
        assert len(set(chips)) == 16

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            TorusMesh(0, 4)

    def test_tiny_wraps_dropped(self):
        # A wrap on a 2-wide dimension would duplicate the mesh link.
        m = TorusMesh(2, 4, wrap_x=True)
        assert not m.wrap_x


class TestNeighbors:
    def test_interior_chip_has_4_neighbors(self, small_torus):
        assert len(small_torus.neighbors(Coordinate(1, 1))) == 4

    def test_corner_without_wraps(self, small_mesh):
        assert len(small_mesh.neighbors(Coordinate(0, 0))) == 2

    def test_corner_with_wraps(self, small_torus):
        assert len(small_torus.neighbors(Coordinate(0, 0))) == 4

    def test_wrap_neighbor_identity(self, small_torus):
        assert Coordinate(3, 0) in small_torus.neighbors(Coordinate(0, 0))
        assert Coordinate(0, 3) in small_torus.neighbors(Coordinate(0, 0))


class TestLinks:
    def test_link_count_torus(self, small_torus):
        # Full torus: every chip has 4 outgoing links.
        assert len(small_torus.links()) == 16 * 4

    def test_link_count_mesh(self, small_mesh):
        # 2 * (x*(y-1) + (x-1)*y) directed links.
        assert len(small_mesh.links()) == 2 * (4 * 3 + 3 * 4)

    def test_cross_pod_links_marked(self, the_multipod):
        kinds = {}
        for link in the_multipod.links():
            kinds.setdefault(link.kind, 0)
            kinds[link.kind] += 1
        # 3 pod boundaries x 32 rows x 2 directions.
        assert kinds[LinkKind.CROSS_POD] == 3 * 32 * 2
        assert kinds[LinkKind.WRAP] == 128 * 2  # Y wraps only

    def test_cross_pod_latency_higher(self, the_multipod):
        cross = next(
            l for l in the_multipod.links() if l.kind is LinkKind.CROSS_POD
        )
        intra = next(
            l for l in the_multipod.links() if l.kind is LinkKind.INTRA_POD
        )
        assert the_multipod.link_latency(cross) > the_multipod.link_latency(intra)

    def test_link_between_adjacent(self, small_torus):
        link = small_torus.link_between(Coordinate(0, 0), Coordinate(1, 0))
        assert link.axis == "x"
        assert link.kind is LinkKind.INTRA_POD

    def test_link_between_wrap(self, small_torus):
        link = small_torus.link_between(Coordinate(3, 0), Coordinate(0, 0))
        assert link.kind is LinkKind.WRAP

    def test_link_between_non_adjacent_raises(self, small_torus):
        with pytest.raises(ValueError):
            small_torus.link_between(Coordinate(0, 0), Coordinate(2, 0))


def _digraph(mesh: TorusMesh) -> nx.DiGraph:
    """Directed graph of a mesh's chips and links."""
    g = nx.DiGraph()
    g.add_nodes_from(mesh.chips())
    g.add_edges_from((link.src, link.dst) for link in mesh.links())
    return g


class TestGraph:
    def test_networkx_connected(self, small_mesh):
        g = _digraph(small_mesh)
        assert nx.is_strongly_connected(g)
        assert g.number_of_nodes() == 16

    def test_multipod_graph_diameter_reasonable(self):
        m = multipod(2)  # 64x32
        g = _digraph(m)
        # X line of 64 + Y ring of 32 -> diameter 63 + 16.
        path = nx.shortest_path_length(g, Coordinate(0, 0), Coordinate(63, 16))
        assert path == 63 + 16

    def test_bisection_bandwidth(self, the_multipod):
        assert the_multipod.bisection_bandwidth() == pytest.approx(
            32 * the_multipod.link_bandwidth
        )


class TestSlices:
    @pytest.mark.parametrize(
        "chips,shape",
        [(16, (4, 4)), (256, (16, 16)), (512, (16, 32)),
         (1024, (32, 32)), (2048, (64, 32)), (4096, (128, 32))],
    )
    def test_slice_shapes(self, chips, shape):
        s = slice_for_chips(chips)
        assert (s.x_size, s.y_size) == shape
        assert s.num_chips == chips

    def test_slice_wraps(self):
        assert not slice_for_chips(256).wrap_y  # 16x16 inside a pod
        assert slice_for_chips(512).wrap_y      # 16x32 spans pod side
        s1024 = slice_for_chips(1024)
        assert s1024.wrap_x and s1024.wrap_y    # full torus

    def test_multipod_slices_have_cross_pod_links(self):
        s = slice_for_chips(2048)
        assert s.cross_pod_every == 32
        assert not s.wrap_x and s.wrap_y

    def test_unknown_slice_size(self):
        with pytest.raises(ValueError, match="no canonical slice"):
            slice_for_chips(100)

    def test_sub_slice(self, pod):
        s = pod.sub_slice(8, 32)
        assert (s.x_size, s.y_size) == (8, 32)
        assert s.wrap_y and not s.wrap_x

    def test_sub_slice_too_big(self, pod):
        with pytest.raises(ValueError):
            pod.sub_slice(64, 8)


class TestMultipodConstructor:
    def test_single_pod_is_full_torus(self):
        p = multipod(1)
        assert p.wrap_x and p.wrap_y
        assert p.num_chips == 1024

    def test_invalid_pod_count(self):
        with pytest.raises(ValueError):
            multipod(0)

    def test_host_assignment_blocks(self, the_multipod):
        assert the_multipod.host_of(Coordinate(0, 0)) == 0
        assert the_multipod.host_of(Coordinate(0, 7)) == 0
        assert the_multipod.host_of(Coordinate(0, 8)) == 1
