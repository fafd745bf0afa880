"""Hodge diamonds: closed forms, restriction, obstruction, rendering."""

import pathlib

import pytest

from orbitcompat.diamonds import (
    FIXTURES,
    HodgeDiamond,
    IncompleteDiamondError,
    diamond_from_json,
    diamond_pn_pn_dual,
    diamond_to_json,
    euler_from_diamond,
    fixture,
    lefschetz_restrict,
    render_diamond,
    vanishing_cycle_obstruction,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_pn_pn_dual_2_is_the_sl3_orbit_diamond():
    assert diamond_pn_pn_dual(2).rows() == fixture("sl3-orbit").rows()


def test_pn_pn_dual_1_is_the_quadric_surface():
    assert diamond_pn_pn_dual(1).rows() == fixture("sl2-orbit").rows()


@pytest.mark.parametrize("n", range(1, 7))
def test_pn_pn_dual_entry_sum(n):
    d = diamond_pn_pn_dual(n)
    # oracle: direct loop over the diagonal profile
    expected = sum(n + 1 - abs(n - p) for p in range(2 * n + 1))
    assert d.entry_sum() == expected == (n + 1) ** 2
    assert euler_from_diamond(d) == (n + 1) ** 2  # all mass sits on even p+q


@pytest.mark.parametrize("n", range(1, 5))
def test_pn_pn_dual_symmetry(n):
    d = diamond_pn_pn_dual(n)
    m = 2 * n
    for p in range(m + 1):
        for q in range(m + 1):
            assert d.entry(p, q) == d.entry(m - p, m - q)


def test_euler_from_diamond_k3():
    assert euler_from_diamond(fixture("k3")) == 24


def test_euler_from_diamond_quadric():
    assert euler_from_diamond(fixture("sl2-orbit")) == 4


def test_euler_refuses_unknown_entries():
    with pytest.raises(IncompleteDiamondError, match="insufficient data"):
        euler_from_diamond(fixture("fibre110-i"))


def test_lefschetz_restriction_of_the_sl3_orbit():
    r = lefschetz_restrict(fixture("sl3-orbit"))
    f = fixture("sl3-fibre")
    assert r.complex_dim == f.complex_dim == 3
    m = 3
    for p in range(m + 1):
        for q in range(m + 1):
            if p + q != m:
                assert r.entry(p, q) == f.entry(p, q)
            else:
                assert r.entry(p, q) is None


def test_lefschetz_restriction_of_the_quadric():
    r = lefschetz_restrict(diamond_pn_pn_dual(1))
    assert r.rows() == [[1], [None, None], [1]]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lefschetz_unknowns_are_exactly_the_middle_row(n):
    r = lefschetz_restrict(diamond_pn_pn_dual(n))
    m = r.complex_dim
    assert sorted(r.unknown_cells()) == sorted(
        (p, m - p) for p in range(m + 1)
    )
    assert len(r.unknown_cells()) == m + 1


def test_lefschetz_preserves_symmetry_off_the_middle():
    r = lefschetz_restrict(diamond_pn_pn_dual(2))
    m = r.complex_dim
    for p in range(m + 1):
        for q in range(m + 1):
            if p + q != m:
                assert r.entry(p, q) == r.entry(m - p, m - q)


def test_obstruction_on_the_sl3_fibre():
    # the designated middle row of the fibre diamond is all zeros, which is
    # exactly the premise of the degenerate-singularities conclusion
    assert vanishing_cycle_obstruction(fixture("sl3-fibre")) is True


def test_obstruction_on_the_sl2_fibre():
    assert vanishing_cycle_obstruction(fixture("sl2-fibre")) is True


def test_obstruction_fails_on_nonzero_middle():
    d = HodgeDiamond.from_rows([[1], [1, 0], [1]])
    assert vanishing_cycle_obstruction(d) is False


def test_obstruction_needs_known_middle():
    with pytest.raises(IncompleteDiamondError):
        vanishing_cycle_obstruction(fixture("fibre110-i"))


def test_smooth_symmetric_flag_is_validated():
    with pytest.raises(ValueError):
        HodgeDiamond.from_rows([[1], [1, 0], [1]], symmetric_smooth=True)


def test_row_shape_validation():
    with pytest.raises(ValueError):
        HodgeDiamond.from_rows([[1], [0, 0]])
    with pytest.raises(ValueError):
        HodgeDiamond.from_rows([[1], [0, 0, 0], [1]])


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_renders_match_golden_files(name):
    got = render_diamond(fixture(name)) + "\n"
    assert got == (GOLDEN / f"diamond_{name}.txt").read_text()


def test_render_point_diamond():
    assert render_diamond(HodgeDiamond.from_rows([[1]])) == "1"


def test_render_marks_unknowns():
    text = render_diamond(fixture("fibre110-i"))
    assert "16" in text and "?" in text
    assert len(text.splitlines()) == 11


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_json_round_trip(name):
    d = fixture(name)
    rt = diamond_from_json(diamond_to_json(d))
    assert rt.rows() == d.rows()
    assert rt.middle_row_cells == d.middle_row_cells


def test_unknown_fixture_name():
    with pytest.raises(KeyError):
        fixture("nope")


@pytest.mark.parametrize("entry", [1.9, 2.0, "3", True, False, -1, [1]])
def test_from_rows_refuses_an_entry_that_is_not_a_natural(entry):
    # entries are passed through, not converted: int(1.9) would read 1
    with pytest.raises(ValueError, match="naturals or None"):
        HodgeDiamond.from_rows([[1], [entry, 0], [1]])
    # in place of a whole row, the error names the row
    with pytest.raises(ValueError, match="row 1"):
        HodgeDiamond.from_rows([[1], entry, [1]])
    with pytest.raises(ValueError, match="row 1 is not a list"):
        HodgeDiamond.from_rows([[1], 5, [1]])


@pytest.mark.parametrize(
    "text, field",
    [
        ("[]", "JSON object"),
        ("{}", "rows"),
        ('{"rows": 5, "middle_row_cells": [], "dim": 0}', "rows"),
        ('{"rows": [[1], 0, [1]], "middle_row_cells": [], "dim": 1}', "rows"),
        ('{"rows": [[1]], "dim": 0}', "middle_row_cells"),
        ('{"rows": [[1]], "middle_row_cells": 5, "dim": 0}', "middle_row_cells"),
        ('{"rows": [[1]], "middle_row_cells": [0], "dim": 0}', "middle_row_cells"),
        ('{"rows": [[1]], "middle_row_cells": [[0, 0, 0]], "dim": 0}', "middle-row cell"),
        ('{"rows": [[1]], "middle_row_cells": [["0", 0]], "dim": 0}', "middle-row cell"),
        ('{"rows": [[1]], "middle_row_cells": [[0, true]], "dim": 0}', "middle-row cell"),
        ('{"rows": [[1]], "middle_row_cells": [[0, 1]], "dim": 0}', "middle-row cell"),
        ('{"rows": [[1.5]], "middle_row_cells": [[0, 0]], "dim": 0}', "naturals or None"),
        ('{"rows": [[true]], "middle_row_cells": [[0, 0]], "dim": 0}', "naturals or None"),
        ('{"rows": [[1]], "middle_row_cells": [[0, 0]], "dim": 1}', "dim"),
        ('{"rows": [[1]], "middle_row_cells": [[0, 0]]}', "dim"),
        ("not json", "Expecting value"),
    ],
)
def test_diamond_from_json_refuses_a_bad_field_with_value_error(text, field):
    with pytest.raises(ValueError, match=field):
        diamond_from_json(text)


def test_from_rows_reads_question_marks_as_unknown():
    d = HodgeDiamond.from_rows([[1], ["?", 0], [1]])
    assert d.rows() == [[1], [None, 0], [1]]
    assert diamond_from_json(diamond_to_json(d)).rows() == d.rows()
