"""Ideal file format and JSON encodings."""

import io
import json

import pytest

from orbitcompat import IdealPresentation, PolyError, VarContext, buchberger, parse_poly
from orbitcompat.hilbert import hilbert
from orbitcompat.parsing import ParseError
from orbitcompat.ioformats import (
    gb_to_json,
    hilbert_to_json,
    ideal_from_json,
    ideal_to_json,
    parse_rational_list,
    read_ideal,
    write_ideal,
)


def _sample():
    ctx = VarContext(["x", "y", "z", "t"])
    return IdealPresentation(
        ctx, [parse_poly("x^2 + y*z - t^2", ctx), parse_poly("2*x", ctx)]
    )


def test_ideal_file_round_trip():
    ideal = _sample()
    buf = io.StringIO()
    write_ideal(buf, ideal, {"style": "minpoly", "spec": ["1", "-1"]})
    buf.seek(0)
    back, meta = read_ideal(buf)
    assert back == ideal
    assert meta == {"style": "minpoly", "spec": ["1", "-1"]}


def test_ideal_file_comments_and_blanks():
    text = "# a comment\n\nvars: x, y\n# another\nx - y\n"
    back, meta = read_ideal(io.StringIO(text))
    assert meta == {}
    assert [str(g) for g in back.generators] == ["x - y"]


def test_ideal_file_requires_header():
    with pytest.raises(PolyError):
        read_ideal(io.StringIO("x - y\n"))
    with pytest.raises(PolyError):
        read_ideal(io.StringIO("# nothing\n"))


def test_ideal_file_parse_error_names_its_line():
    with pytest.raises(ParseError) as err:
        read_ideal(io.StringIO("vars: x, y\nx - y\nx^2 - q\n"))
    assert err.value.pos == 6
    assert str(err.value) == "line 3: unknown variable 'q' (at position 6)"


def test_ideal_json_round_trip():
    ideal = _sample()
    back, meta = ideal_from_json(ideal_to_json(ideal, {"k": 1}))
    assert back == ideal and meta == {"k": 1}


def test_gb_json_mirrors_fields():
    G = buchberger(_sample())
    doc = json.loads(gb_to_json(G))
    assert doc["vars"] == ["x", "y", "z", "t"]
    assert doc["order"] == "grevlex"
    assert doc["basis"] == ["x", "y*z - t^2"]


def test_hilbert_json_mirrors_fields():
    doc = json.loads(hilbert_to_json(hilbert(buchberger(_sample()))))
    assert doc == {"numerator": [1, 1], "krull_dim": 2, "proj_dim": 1, "degree": 2}


def test_parse_rational_list():
    vals = parse_rational_list("1, -1/2, 3")
    assert [str(v) for v in vals] == ["1", "-1/2", "3"]
    with pytest.raises(PolyError):
        parse_rational_list("1, zebra")
