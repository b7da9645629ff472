import dataclasses
import pickle

import numpy as np
import pytest

from sulphsim.bulk import _pattern
from sulphsim.grid import (
    Edge,
    EdgeTag,
    Grid2D,
    ProfileLine,
    boundary_trace,
    build_grid,
    extract_profile,
)


class TestBuildGrid:
    def test_minimal_grid(self):
        g = build_grid(3, 3)
        assert g.n_nodes == 9
        assert g.hx == g.hy == 0.5

    def test_reference_grid(self):
        g = build_grid(65, 65)
        assert g.n_nodes == 4225
        assert g.hx == pytest.approx(1.0 / 64)

    def test_rejects_too_small(self):
        with pytest.raises(ValueError):
            build_grid(2, 5)
        with pytest.raises(ValueError):
            build_grid(5, 2)
        with pytest.raises(ValueError, match="nx, ny >= 3"):
            Grid2D(2, 5, None)

    def test_rejects_two_exposed_edges(self):
        with pytest.raises(ValueError):
            build_grid(5, 5, {Edge.LEFT: EdgeTag.EXPOSED, Edge.TOP: EdgeTag.EXPOSED})

    def test_second_exposed_edge_message_names_the_default(self):
        # tags overlay the defaults, in which the left edge is exposed
        with pytest.raises(ValueError) as exc:
            build_grid(5, 5, {Edge.TOP: EdgeTag.EXPOSED})
        msg = str(exc.value)
        assert "(got left, top)" in msg
        assert "left edge is exposed by default" in msg
        assert "Edge.LEFT: EdgeTag.ISOLATED" in msg
        g = build_grid(5, 5, {Edge.LEFT: EdgeTag.ISOLATED, Edge.TOP: EdgeTag.EXPOSED})
        assert g.exposed_edge is Edge.TOP

    def test_default_tags_left_exposed(self):
        g = build_grid(5, 5)
        assert g.exposed_edge is Edge.LEFT
        assert g == Grid2D(5, 5, Edge.LEFT)

    def test_all_isolated_allowed(self):
        g = build_grid(5, 5, {Edge.LEFT: EdgeTag.ISOLATED})
        assert g.exposed_edge is None
        assert g.exposed_trace() is None


class TestGridValue:
    def test_fields_cannot_be_assigned(self):
        g = build_grid(5, 5)
        for name, value in (("nx", 7), ("exposed_edge", Edge.TOP)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(g, name, value)

    def test_equal_grids_share_pattern_and_trace(self):
        a = build_grid(9, 7, {Edge.LEFT: EdgeTag.ISOLATED, Edge.TOP: EdgeTag.EXPOSED})
        b = Grid2D(9, 7, Edge.TOP)
        assert a == b and hash(a) == hash(b) and a is not b
        assert _pattern(a) is _pattern(b)
        assert a.exposed_trace() is b.exposed_trace()
        assert _pattern(a) is not _pattern(Grid2D(9, 7, Edge.LEFT))

    def test_hash_survives_pickling(self):
        # the hash is computed once, from ints, so it holds in any process
        g = Grid2D(9, 7, Edge.TOP)
        back = pickle.loads(pickle.dumps(g))
        assert back == g and hash(back) == hash(g)
        assert _pattern(back) is _pattern(g)

    def test_rejects_an_edge_given_by_name(self):
        with pytest.raises(ValueError, match="exposed_edge must be an Edge or None"):
            Grid2D(5, 5, "left")

    def test_trace_arrays_read_only(self):
        trace = build_grid(5, 4).exposed_trace()
        for arr in (trace.indices, trace.coords, trace.weights):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1


class TestIndexing:
    def test_round_trip_all_nodes(self):
        g = build_grid(7, 5)
        for p in range(g.n_nodes):
            i, j = g.ij(p)
            assert g.index(i, j) == p

    def test_lexicographic_layout(self):
        g = build_grid(5, 5)
        assert g.index(0, 2) == 10
        assert g.index(4, 4) == 24


class TestBoundaryTrace:
    def test_left_edge_indices(self):
        g = build_grid(5, 5)
        tr = boundary_trace(g, Edge.LEFT)
        assert list(tr.indices) == [0, 5, 10, 15, 20]
        assert np.allclose(tr.coords, [0, 0.25, 0.5, 0.75, 1.0])

    def test_weights_sum_to_edge_length(self):
        for nx, ny in [(5, 5), (9, 17), (33, 65)]:
            g = build_grid(nx, ny)
            for edge in Edge:
                tr = boundary_trace(g, edge)
                assert abs(tr.weights.sum() - 1.0) < 1e-14

    def test_trapezoid_weights(self):
        g = build_grid(5, 5)
        tr = boundary_trace(g, Edge.LEFT)
        assert np.allclose(tr.weights, [0.125, 0.25, 0.25, 0.25, 0.125])

    def test_other_edges(self):
        g = build_grid(4, 3)
        assert list(boundary_trace(g, Edge.RIGHT).indices) == [3, 7, 11]
        assert list(boundary_trace(g, Edge.BOTTOM).indices) == [0, 1, 2, 3]
        assert list(boundary_trace(g, Edge.TOP).indices) == [8, 9, 10, 11]


class TestVolumes:
    def test_total_area(self):
        g = build_grid(9, 13)
        assert g.node_volumes().sum() == pytest.approx(1.0, abs=1e-14)

    def test_corner_quarter_cell(self):
        g = build_grid(5, 5)
        v = g.node_volumes()
        assert v[0] == pytest.approx(0.25 * g.hx * g.hy)
        assert v[g.index(2, 2)] == pytest.approx(g.hx * g.hy)


class TestExtractProfile:
    def test_constant_field(self):
        g = build_grid(5, 5)
        field = np.full(g.n_nodes, 7.0)
        _, vals = extract_profile(field, g, ProfileLine("horizontal", 0.5))
        assert np.all(vals == 7.0)

    def test_left_edge_of_linear_field(self):
        g = build_grid(5, 5)
        field = g.x2()
        coords, vals = extract_profile(field, g, ProfileLine("vertical", 0.0))
        assert np.allclose(coords, [0, 0.25, 0.5, 0.75, 1.0])
        assert np.allclose(vals, coords)

    def test_horizontal_line_picks_row(self):
        g = build_grid(5, 5)
        field = np.arange(g.n_nodes, dtype=float)
        _, vals = extract_profile(field, g, ProfileLine("horizontal", 0.25))
        assert np.all(vals == np.arange(5, 10))

    def test_rejects_misaligned_line(self):
        g = build_grid(5, 5)
        with pytest.raises(ValueError):
            extract_profile(np.zeros(25), g, ProfileLine("horizontal", 0.3))

    def test_rejects_bad_orientation(self):
        with pytest.raises(ValueError):
            ProfileLine("diagonal", 0.3)
