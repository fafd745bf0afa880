"""Ideal file format and JSON encodings."""

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitcompat import (
    DiagSpec,
    IdealPresentation,
    MultiPoly,
    PolyError,
    VarContext,
    buchberger,
    fibre_ideal,
    homogenise_ideal,
    homogenise_naive,
    orbit_ideal_charvalues,
    parse_poly,
)
from orbitcompat.hilbert import hilbert
from orbitcompat.parsing import ParseError, _vocabulary
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


def test_sl4_closures_read_back_on_what_their_writing_taught():
    # both closures of a fibre that perfbench's sl4-closures times, over the
    # 15 coordinates of sl(4) and t
    orbit = orbit_ideal_charvalues(DiagSpec((3, 1, -1, -3)), (-3, -1, 1))
    I = fibre_ideal(orbit, DiagSpec((3, 1, -1, -3)), 0)
    for closure in (homogenise_naive(I, "t"), homogenise_ideal(I, "t")):
        assert len(closure.ctx) == 16
        buf = io.StringIO()
        write_ideal(buf, closure)
        vocab = _vocabulary(closure.ctx.names)
        entries = dict(vocab.exps)
        back, _ = read_ideal(io.StringIO(buf.getvalue()))
        assert back == closure
        # every monomial read was printed, so the parser entered none
        assert vocab.exps == entries


def test_the_smoke_script_round_trips_an_sl3_operation():
    # the script that checks other Python versions, which lack pytest
    script = Path(__file__).resolve().parent / "smoke_round_trip.py"
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith(": six ideals, 188 terms, read back equal\n")


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


def test_ideal_file_parse_error_counts_the_indent():
    with pytest.raises(ParseError) as err:
        read_ideal(io.StringIO("vars: x, y\n    x - q\n"))
    assert err.value.pos == 8
    assert str(err.value) == "line 2: unknown variable 'q' (at position 8)"


@pytest.mark.parametrize(
    "text,message",
    [
        ("vars: x\nx\nvars: y\ny\n", "line 3: a second vars: header"),
        ("vars: x\nvars: x, y\ny\n", "line 2: a second vars: header"),
        ("# c\nvars: x, x\n", "line 2: duplicate variable name 'x'"),
        ("vars:\nx\n", "line 1: context needs at least one variable"),
        ("vars: x, 1y\n", "line 1: invalid variable name '1y'"),
        ("# meta: {bad\nvars: x\n", "line 1: meta is not valid JSON: "
         "Expecting property name enclosed in double quotes"),
        ("vars: x\n\n# meta: [1, 2]\n", "line 3: meta must be a JSON object"),
        ("# meta: 3\nvars: x\n", "line 1: meta must be a JSON object"),
        ('# meta: {"a": 1}\nvars: x\n# meta: {"b": 2}\n', "line 3: a second meta line"),
        ("vars: x,,y\n", "line 1: invalid variable name ''"),
        ("vars: x, y,\n", "line 1: invalid variable name ''"),
        ("vars: ,x\n", "line 1: invalid variable name ''"),
        ("vars: x\nx - 1\nx^99999999999999\n", "line 3: monomial exponent overflow"),
    ],
)
def test_ideal_file_header_errors_name_their_line(text, message):
    with pytest.raises(PolyError) as err:
        read_ideal(io.StringIO(text))
    assert str(err.value) == message


def test_ideal_file_rejects_non_ascii_space_at_a_line_end():
    # only the grammar's ASCII whitespace is stripped from a line
    with pytest.raises(ParseError) as err:
        read_ideal(io.StringIO("vars: x, y\n x - y\u00a0\n"))
    assert str(err.value) == "line 2: unexpected '\\xa0' (at position 6)"


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="aZ9_", min_size=1, max_size=4))
@example("_x")
def test_every_accepted_variable_name_reads_back(name):
    # a name VarContext accepts must survive write_ideal and read_ideal
    try:
        ctx = VarContext([name, "y"])
    except PolyError:
        assert not name[0].isalpha()
        return
    x, y = MultiPoly.variable(ctx, name), MultiPoly.variable(ctx, "y")
    ideal = IdealPresentation(ctx, [x * x - y, x - MultiPoly.constant(ctx, 3)])
    buf = io.StringIO()
    write_ideal(buf, ideal)
    back, _ = read_ideal(io.StringIO(buf.getvalue()))
    assert back == ideal


def test_ideal_json_round_trip():
    ideal = _sample()
    back, meta = ideal_from_json(ideal_to_json(ideal, {"k": 1}))
    assert back == ideal and meta == {"k": 1}


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"generators": ["x"]}', 'ideal JSON: "vars" must be a list of strings'),
        ('{"vars": "xy", "generators": ["x"]}', 'ideal JSON: "vars" must be a list of strings'),
        ('{"vars": ["x", 1], "generators": []}', 'ideal JSON: "vars" must be a list of strings'),
        ('{"vars": ["x"]}', 'ideal JSON: "generators" must be a list of strings'),
        ('{"vars": ["x"], "generators": ["x"], "meta": [1, 2]}', 'ideal JSON: "meta" must be an object'),
        ("[1]", "ideal JSON must be an object"),
        ("{bad", "ideal JSON is not valid JSON: Expecting property name enclosed in double quotes"),
        ('{"vars": ["_x"], "generators": []}', 'ideal JSON: "vars": invalid variable name \'_x\''),
        ('{"vars": ["x", "x"], "generators": []}', 'ideal JSON: "vars": duplicate variable name \'x\''),
        ('{"vars": [], "generators": []}', 'ideal JSON: "vars": context needs at least one variable'),
        ('{"vars": ["x"], "generators": ["x", "x^99999999999999"]}', "generators[1]: monomial exponent overflow"),
    ],
)
def test_ideal_json_errors_name_their_field(text, message):
    with pytest.raises(PolyError) as err:
        ideal_from_json(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text,pos,message",
    [
        ('{"vars": ["x", "y"], "generators": ["x - y", "x^2 - q"]}', 6,
         "generators[1]: unknown variable 'q' (at position 6)"),
        ('{"vars": ["x"], "generators": ["x +"]}', 3,
         "generators[0]: expected a term (at position 3)"),
    ],
)
def test_ideal_json_parse_errors_name_their_generator(text, pos, message):
    # the same error as read_ideal's line N:, but ParseError is not a PolyError
    with pytest.raises(ParseError) as err:
        ideal_from_json(text)
    assert err.value.pos == pos
    assert str(err.value) == message


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


@pytest.mark.parametrize("text", ["1,,0,-1", "0,,-1", "1,-1,0,", ",1", "3, ,3", ","])
def test_parse_rational_list_refuses_an_empty_entry(text):
    with pytest.raises(PolyError, match="empty entry"):
        parse_rational_list(text)


@pytest.mark.parametrize("text", ["", " ", "\t"])
def test_parse_rational_list_of_empty_text_is_empty(text):
    # an empty --degrees is the empty list of hypersurfaces, P^N itself
    assert parse_rational_list(text) == []
