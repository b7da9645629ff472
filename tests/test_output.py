import sys

import numpy as np

from sulphsim.bulk import FieldState
from sulphsim.grid import ProfileLine, build_grid
from sulphsim.output import (
    FLOAT,
    INVARIANT_HEADER,
    PROFILE_HEADER,
    fmt,
    profile_rows,
    write_profiles_csv,
    write_vtk,
)


def state_on(grid, seed=0):
    rng = np.random.default_rng(seed)
    n = grid.n_nodes
    nr = len(grid.exposed_trace())
    return FieldState(
        0.25, rng.uniform(0, 1, n), rng.uniform(0, 1, n), rng.uniform(0, 1, nr), np.zeros(nr)
    )


class TestFloatFormat:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(1)
        for v in rng.standard_normal(200):
            assert float(fmt(v)) == v
        assert float(fmt(1.0 / 3.0)) == 1.0 / 3.0


# Floats whose text is easy to get wrong: signed zeros, nan, infinities,
# subnormals, the extremes, and values at the switch to exponent notation.
SPECIAL = [
    0.0, -0.0, float("nan"), -float("nan"), float("inf"), -float("inf"),
    5e-324, -5e-324, 1.5e-310, sys.float_info.min, sys.float_info.max,
    -sys.float_info.max, 1.0 / 3.0, 1e16, 1e17, 123456789012345678.0, 1e-5, 1e-4,
]


class TestBlockFormat:
    """The writers format a block with one % over a tuple; the text must be fmt()'s."""

    def test_printf_form_matches_fmt(self):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2**63, 50_000, dtype=np.int64).view(np.float64)
        values = rng.uniform(-1.0, 1.0, 50_000).tolist() + bits.tolist() + SPECIAL
        block = (f"{FLOAT}\n" * len(values)) % tuple(values)
        assert block == "".join(fmt(v) + "\n" for v in values)
        negative = (-bits).tolist()  # the sign bit, which the draw above never sets
        assert (f"{FLOAT}\n" * len(negative)) % tuple(negative) == "".join(
            fmt(v) + "\n" for v in negative
        )

    def test_vtk_values_are_fmt_text(self, tmp_path):
        grid = build_grid(6, 3)
        values = np.array(SPECIAL)
        path = tmp_path / "special.vtk"
        write_vtk(str(path), grid, {"v": values}, "t")
        lines = path.read_text().split("\n")
        assert lines[10 : 10 + len(values)] == [fmt(float(v)) for v in values]

    def test_profile_rows_are_fmt_text(self, tmp_path):
        rows = [(0.5, 0.0, v, "s", v) for v in SPECIAL]
        path = tmp_path / "p.csv"
        write_profiles_csv(str(path), rows)
        got = sorted(path.read_text().split("\n")[1:-1])
        assert got == sorted(f"{fmt(0.5)},{fmt(0.0)},{fmt(v)},s,{fmt(v)}" for v in SPECIAL)


class TestProfileCsv:
    def test_header_and_sort_order(self, tmp_path):
        grid = build_grid(5, 5)
        st = state_on(grid)
        rows = profile_rows(st, grid, (ProfileLine("vertical", 0.0), ProfileLine("horizontal", 0.25)))
        path = tmp_path / "profiles.csv"
        write_profiles_csv(str(path), rows)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == PROFILE_HEADER == "t,x1,x2,field,value"
        parsed = [ln.split(",") for ln in lines[1:]]
        keys = [(float(r[0]), r[3], float(r[2]), float(r[1])) for r in parsed]
        assert keys == sorted(keys)

    def test_fields_present(self, tmp_path):
        grid = build_grid(5, 5)
        st = state_on(grid)
        rows = profile_rows(st, grid, (ProfileLine("vertical", 0.0),))
        names = {r[3] for r in rows}
        assert names == {"s", "c", "r"}  # r rides along on the exposed trace

    def test_values_round_trip(self, tmp_path):
        grid = build_grid(5, 5)
        st = state_on(grid)
        rows = profile_rows(st, grid, (ProfileLine("vertical", 0.0),))
        path = tmp_path / "p.csv"
        write_profiles_csv(str(path), rows)
        for line in path.read_text().strip().split("\n")[1:]:
            t, x1, x2, name, value = line.split(",")
            if name == "s":
                j = round(float(x2) * (grid.ny - 1))
                assert float(value) == st.s[grid.index(0, j)]


class TestVtk:
    def test_structured_points_layout(self, tmp_path):
        grid = build_grid(4, 3)
        st = state_on(grid)
        path = tmp_path / "f.vtk"
        write_vtk(str(path), grid, {"s": st.s, "c": st.c}, "fields step=1 t=0.25")
        text = path.read_text().split("\n")
        assert text[0] == "# vtk DataFile Version 3.0"
        assert text[2] == "ASCII"
        assert text[3] == "DATASET STRUCTURED_POINTS"
        assert text[4] == "DIMENSIONS 4 3 1"
        assert text[5] == "ORIGIN 0 0 0"
        assert text[6].startswith("SPACING ")
        assert text[7] == f"POINT_DATA {grid.n_nodes}"
        assert text[8] == "SCALARS s double 1"
        assert text[9] == "LOOKUP_TABLE default"
        svals = [float(v) for v in text[10 : 10 + grid.n_nodes]]
        assert svals == list(st.s)  # lexicographic, x1 fastest
        assert text[10 + grid.n_nodes] == "SCALARS c double 1"

    def test_parseable_by_independent_reader(self, tmp_path):
        # minimal independent legacy-VTK reader: walks the header keywords
        grid = build_grid(5, 5)
        st = state_on(grid)
        path = tmp_path / "f.vtk"
        write_vtk(str(path), grid, {"s": st.s, "c": st.c}, "t")
        tokens = path.read_text().split()
        dims_at = tokens.index("DIMENSIONS")
        nx, ny, nz = (int(t) for t in tokens[dims_at + 1 : dims_at + 4])
        assert (nx, ny, nz) == (5, 5, 1)
        npts = int(tokens[tokens.index("POINT_DATA") + 1])
        assert npts == nx * ny * nz
        scalars = [i for i, t in enumerate(tokens) if t == "SCALARS"]
        assert [tokens[i + 1] for i in scalars] == ["s", "c"]
        first = scalars[0]
        data = tokens[first + 6 : first + 6 + npts]  # skip name/type/1/LOOKUP_TABLE/default
        assert [float(v) for v in data] == list(st.s)


class TestInvariantCsv:
    def test_written_with_header(self, tmp_path):
        from sulphsim.diagnostics import InvariantReport, audit_step
        from sulphsim.bulk import BalanceTerms
        from sulphsim.model import PhysParams

        grid = build_grid(5, 5)
        st = state_on(grid)
        rep = InvariantReport()
        rep.append(audit_step(st, PhysParams(), BalanceTerms(0, 0, 0), 1))
        path = tmp_path / "inv.csv"
        from sulphsim.output import write_invariants_csv

        write_invariants_csv(str(path), rep)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == INVARIANT_HEADER
        assert len(lines) == 2
