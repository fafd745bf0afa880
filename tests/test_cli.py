"""CLI golden tests: every documented invocation, exact stdout."""

import json

import pytest

from orbitcompat.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_orbit_sl2_pipeline_golden(capsys, tmp_path):
    orbit = tmp_path / "sl2.ideal"
    code, out, _ = run(capsys, "orbit", "--n", "1", "--h0", "1,-1", "--style", "minpoly", "-o", str(orbit))
    assert code == 0 and out == ""
    assert orbit.read_text() == (
        '# meta: {"spec": ["1", "-1"], "style": "minpoly"}\n'
        "vars: x,y,z\n"
        "x^2 + y*z - 1\n"
    )
    code, out, _ = run(capsys, "gb", "--ideal", str(orbit))
    assert code == 0
    assert out == "vars: x,y,z\norder: grevlex\nbasis:\n  x^2 + y*z - 1\n"


def test_orbit_minpoly_sl3_has_nine_generators(capsys):
    code, out, _ = run(capsys, "orbit", "--n", "2", "--h0", "2,-1,-1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["generators"]) == 9
    assert doc["generators"][0] == "x1^2 + y1*z1 + y2*z2 - x1 - 2"
    assert doc["meta"] == {"style": "minpoly", "spec": ["2", "-1", "-1"]}


def test_orbit_charvalues(capsys):
    code, out, _ = run(
        capsys, "orbit", "--n", "2", "--h0", "1,0,-1", "--style", "charvalues",
        "--shifts", "0,-1", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["generators"]) == 2
    assert doc["meta"]["style"] == "charvalues"


def test_gb_parse_error_names_the_line(capsys, tmp_path):
    ideal = tmp_path / "bad.ideal"
    ideal.write_text("vars: x,y\nx - y\nx^2 - q\n")
    code, out, err = run(capsys, "gb", "--ideal", str(ideal))
    assert code == 1 and out == ""
    assert err == "error: line 3: unknown variable 'q' (at position 6)\n"


def test_homogenise_rejects_meta_that_is_not_an_object(capsys, tmp_path):
    ideal = tmp_path / "bad.ideal"
    ideal.write_text("# meta: [1, 2]\nvars: x,y\nx - y\n")
    code, out, err = run(capsys, "homogenise", "--ideal", str(ideal), "--mode", "naive")
    assert code == 1 and out == ""
    assert err == "error: line 1: meta must be a JSON object\n"


def test_gb_order_flag(capsys, tmp_path):
    ideal = tmp_path / "lin.ideal"
    ideal.write_text("vars: x,y\nx\nx - y\n")
    code, out, _ = run(capsys, "gb", "--ideal", str(ideal), "--order", "lex")
    assert code == 0
    assert out == "vars: x,y\norder: lex\nbasis:\n  y\n  x\n"
    code, out, _ = run(capsys, "gb", "--ideal", str(ideal), "--order", "elim:1", "--format", "json")
    assert code == 0
    assert json.loads(out)["order"] == "elim:1"


def test_fibre_and_homogenise_golden(capsys, tmp_path):
    orbit = tmp_path / "o.ideal"
    fibre = tmp_path / "f.ideal"
    hom = tmp_path / "h.ideal"
    run(capsys, "orbit", "--n", "1", "--h0", "1,-1", "-o", str(orbit))
    code, _, _ = run(capsys, "fibre", "--orbit", str(orbit), "--h", "1,-1", "--value", "0", "-o", str(fibre))
    assert code == 0
    assert "2*x" in fibre.read_text()
    code, _, _ = run(capsys, "homogenise", "--ideal", str(fibre), "--mode", "naive", "-o", str(hom))
    assert code == 0
    code, out, _ = run(capsys, "gb", "--ideal", str(hom), "--hilbert")
    assert out == (
        "vars: x,y,z,t\norder: grevlex\nbasis:\n  x\n  y*z - t^2\n"
        "hilbert:\n  numerator: [1, 1]\n  krull_dim: 2\n  proj_dim: 1\n  degree: 2\n"
    )


def test_fibre_warns_on_irregular_h(capsys, tmp_path):
    orbit = tmp_path / "o.ideal"
    run(capsys, "orbit", "--n", "2", "--h0", "2,-1,-1", "-o", str(orbit))
    code, _, err = run(capsys, "fibre", "--orbit", str(orbit), "--h", "2,-1,-1", "--value", "0", "-o", str(tmp_path / "f.ideal"))
    assert code == 0
    assert "repeated eigenvalues" in err


def test_euler_golden_pretty(capsys):
    code, out, _ = run(capsys, "euler", "--ambient", "8", "--degrees", "3,3,1")
    assert code == 0
    assert out == (
        "complete intersection of degrees (3,3,1) in P^8, dimension 5\n"
        "chern series: 1 + 2*a + 7*a^2 - 4*a^3 + 31*a^4 - 94*a^5\n"
        "degree product: 9\n"
        "expected euler characteristic: -846\n"
    )


@pytest.mark.parametrize(
    "ambient,degrees,chi,d,series",
    [
        ("2", "2", 2, 2, [1, 1]),
        ("3", "4", 24, 4, [1, 0, 6]),
        ("8", "3,3,1", -846, 9, [1, 2, 7, -4, 31, -94]),
        ("8", "2,3,1", -162, 6, [1, 3, 7, 3, 13, -27]),
    ],
)
def test_euler_json(capsys, ambient, degrees, chi, d, series):
    code, out, _ = run(capsys, "euler", "--ambient", ambient, "--degrees", degrees, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"series": series, "chi": chi, "d": d}


def test_diamond_pnpn_golden(capsys):
    code, out, _ = run(capsys, "diamond", "--pnpn", "2")
    assert code == 0
    assert out == (
        "    1\n   0 0\n  0 2 0\n 0 0 0 0\n0 0 3 0 0\n 0 0 0 0\n  0 2 0\n   0 0\n    1\n"
    )


def test_diamond_k3(capsys):
    code, out, _ = run(capsys, "diamond", "--name", "k3")
    assert code == 0
    assert out == "   1\n 0  0\n1  20 1\n 0  0\n   1\n"


def test_diamond_lefschetz_from_pnpn2(capsys):
    code, out, _ = run(capsys, "diamond", "--lefschetz-from", "pnpn2")
    assert code == 0
    assert out == "   1\n  0 0\n 0 2 0\n? ? ? ?\n 0 2 0\n  0 0\n   1\n"


def test_diamond_json_schema(capsys):
    code, out, _ = run(capsys, "diamond", "--name", "fibre110-i", "--format", "json")
    doc = json.loads(out)
    assert doc["dim"] == 5
    assert doc["rows"][5] == [0, 16, "?", "?", 16, 0]
    assert [5, 0] in doc["middle_row_cells"]


def test_critical_golden(capsys):
    code, out, _ = run(capsys, "critical", "--n", "2", "--h", "1,-1,0", "--h0", "2,-1,-1")
    assert code == 0
    assert out == (
        "critical points (3):\n"
        "  diag(-1, -1, 2)\n"
        "  diag(-1, 2, -1)\n"
        "  diag(2, -1, -1)\n"
        "critical values: -3, 0, 3\n"
    )


@pytest.mark.parametrize(
    "h0,count,values",
    [
        ("1,0,-1", 6, "-2, -1, 1, 2"),
        ("3,-1,-2", 6, "-5, -4, -1, 1, 4, 5"),
    ],
)
def test_critical_cases(capsys, h0, count, values):
    code, out, _ = run(capsys, "critical", "--n", "2", "--h", "1,-1,0", "--h0", h0)
    assert code == 0
    assert f"critical points ({count}):" in out
    assert out.rstrip().endswith("critical values: " + values)


def test_critical_json_round_trip(capsys):
    code, out, _ = run(capsys, "critical", "--n", "2", "--h", "1,-1,0", "--h0", "1,0,-1", "--format", "json")
    doc = json.loads(out)
    assert len(doc["points"]) == 6
    assert doc["values"] == ["-2", "-1", "1", "2"]


def test_domain_error_exits_one(capsys):
    code, _, err = run(capsys, "orbit", "--n", "1", "--h0", "1,1")
    assert code == 1
    assert "error:" in err


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as e:
        main(["gb"])  # missing --ideal
    assert e.value.code == 2


def test_pair_cap_env_var(capsys, tmp_path, monkeypatch):
    ideal = tmp_path / "k.ideal"
    ideal.write_text(
        "vars: a,b,c\na^2 + b^2 + c^2 - a\na*b + b*c - b\na + 2*b + 2*c - 1\n"
    )
    monkeypatch.setenv("ORBITCOMPAT_MAX_PAIRS", "1")
    code, _, err = run(capsys, "gb", "--ideal", str(ideal))
    assert code == 1 and "pair cap" in err
    monkeypatch.setenv("ORBITCOMPAT_MAX_PAIRS", "100000")
    code, _, _ = run(capsys, "gb", "--ideal", str(ideal))
    assert code == 0


@pytest.mark.parametrize("cap", ["-3", "0"])
def test_pair_cap_below_one_is_refused_before_the_run(capsys, tmp_path, monkeypatch, cap):
    ideal = tmp_path / "k.ideal"
    ideal.write_text("vars: a,b\na^2 - b\na*b - 1\n")
    monkeypatch.setenv("ORBITCOMPAT_MAX_PAIRS", cap)
    code, out, err = run(capsys, "gb", "--ideal", str(ideal))
    assert code == 1 and out == ""
    assert err == f"error: ORBITCOMPAT_MAX_PAIRS='{cap}' must be at least 1\n"


def test_diamond_requires_exactly_one_selector(capsys):
    code, _, err = run(capsys, "diamond", "--name", "k3", "--pnpn", "1")
    assert code == 1 and "exactly one" in err


def test_full_compactification_pipeline(capsys, tmp_path):
    """The four-command script reproducing the homogenisation comparison."""
    orbit = tmp_path / "orbit.ideal"
    fibre = tmp_path / "fibre.ideal"
    naive = tmp_path / "naive.ideal"
    sat = tmp_path / "sat.ideal"

    assert run(capsys, "orbit", "--n", "2", "--h0", "1,0,-1", "--style", "charvalues", "--shifts", "0,-1", "-o", str(orbit))[0] == 0
    assert run(capsys, "fibre", "--orbit", str(orbit), "--h", "1,-1,0", "--value", "0", "-o", str(fibre))[0] == 0
    assert run(capsys, "homogenise", "--ideal", str(fibre), "--mode", "naive", "-o", str(naive))[0] == 0
    assert run(capsys, "homogenise", "--ideal", str(fibre), "--mode", "saturated", "-o", str(sat))[0] == 0

    code, out, _ = run(capsys, "gb", "--ideal", str(naive), "--hilbert", "--format", "json")
    doc = json.loads(out)
    assert doc["hilbert"]["proj_dim"] == 5 and doc["hilbert"]["degree"] == 9

    code, out, _ = run(capsys, "gb", "--ideal", str(sat), "--hilbert", "--format", "json")
    doc = json.loads(out)
    assert doc["hilbert"]["proj_dim"] == 5 and doc["hilbert"]["degree"] == 6


def test_pipeline_reads_its_own_json_ideal_files(capsys, tmp_path):
    """The saturated route of the pipeline above, every file in JSON."""
    orbit, fibre, sat = (tmp_path / f"{name}.json" for name in ("orbit", "fibre", "sat"))
    js = ("--format", "json")
    assert run(capsys, "orbit", "--n", "2", "--h0", "1,0,-1", "--style", "charvalues", "--shifts", "0,-1", *js, "-o", str(orbit))[0] == 0
    assert json.loads(orbit.read_text())["meta"]["style"] == "charvalues"
    assert run(capsys, "fibre", "--orbit", str(orbit), "--h", "1,-1,0", "--value", "0", *js, "-o", str(fibre))[0] == 0
    assert run(capsys, "homogenise", "--ideal", str(fibre), "--mode", "saturated", *js, "-o", str(sat))[0] == 0
    assert json.loads(sat.read_text())["meta"]["homogenisation"] == "saturated"

    code, out, _ = run(capsys, "gb", "--ideal", str(sat), "--hilbert", *js)
    assert code == 0
    doc = json.loads(out)
    assert doc["hilbert"]["proj_dim"] == 5 and doc["hilbert"]["degree"] == 6
