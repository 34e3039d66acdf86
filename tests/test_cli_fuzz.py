"""Fuzzed command line: every input ends in a documented exit.

Each command runs in-process through ``main`` on flags and config-file
lines drawn from valid values and boundary values (0, -0, +-inf, nan,
1e308, k at and past the cap, empty strings, half-odd l with nu = 0,
evaluation windows at, inside and past their bounds).
The exit must be 0, 1, 2 or 3 with no uncaught exception, and exit 1 only
where the command documents it: a residual above the tolerance (solve,
hierarchy), a failing row (table) or a FAIL line (verify).

The one expected failure is ROADMAP item 3: at k >= 5 the zero test of
the Wronskian machinery, which compares |W| with 1e-13 of its row scale,
can raise SingularEvaluationError from solve, hierarchy and
grid-potential. The fuzz lets it pass there at k >= 5 only, and
test_known_k5_failure keeps one reproduction as a strict xfail. verify
reports it as FAIL lines, and its fuzz tolerates nothing.
"""

import contextlib
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susypv.cli import X_WINDOW, Z_WINDOW, main
from susypv.susy import SingularEvaluationError

BOUNDARY = ["0", "-0", "inf", "-inf", "nan", "1e308", "-1e308", ""]
SPEC_VALUES = {
    "l": ["0", "1", "2", "3", "1.3", "0.5", "1.5", "2.5", "-0.5", "50", "-0.6"] + BOUNDARY,
    "eps": ["0", "0.45", "-0.4", "1", "-0.5", "1.25", "1,11", "0.3,0.5", "100", "0,-100",
            "0,1e308", "1,2,3"] + BOUNDARY,
    "nu": ["0", "1", "3", "-0.5", "0,100", "inf", "infinity", "1e-308"] + BOUNDARY,
    "lk": ["0,100", "1,-2", "0,0", "1e308,1e308", "1,1e308", "nan,0", "1"] + BOUNDARY,
    "k": ["1", "2", "3", "4", "5", "8", "0", "9", "100000", "-1", "2.5", ""],
    "order": ["1234", "2413", "3412", "1423", "2134", "1111", "12345", ""],
    "mode": ["real-physical", "complex-over-real", "fully-complex", "bogus"],
}
Z_VALUES = ["1e-4", "0.1", "2", "20", "400", "9e-5", "401", "1000", "1e-300"] + BOUNDARY
X_VALUES = ["1e-2", "0.05", "1", "8", "20", "9e-3", "21", "30", "1e-7"] + BOUNDARY
JUNK_LINES = ["# a comment", "", "nosuch = 3", "a line without an equals sign"]
ROW_OK = {"matched", "residual-certified", "degenerate"}

FUZZ = dict(derandomize=True, database=None, deadline=None)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@st.composite
def spec_flags(draw, window=None):
    """{flag: (where, value)}, where is 'argv' or 'config'; omitted flags keep defaults.

    window maps the command's window flags to the values they are drawn from.
    """
    flags = {}
    for name, values in {**SPEC_VALUES, **(window or {})}.items():
        where = draw(st.sampled_from(("omit", "omit", "argv", "config")))
        if where != "omit":
            flags[name] = (where, draw(st.sampled_from(values)))
    if draw(st.booleans()):  # branch 1 alone at half-odd l, where b1 <= 0
        flags["l"] = ("argv", draw(st.sampled_from(["0.5", "1.5", "2.5"])))
        flags["nu"] = ("argv", "0")
        flags.pop("lk", None)
    return flags


def _invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    assert code in (0, 1, 2, 3), code
    return code, out.getvalue()


def _run(command, flags, extra, workdir, junk=()):
    """main on argv built from flags (config-file ones through --config)."""
    argv = [command] + [f"--{k}={v}" for k, (where, v) in flags.items() if where == "argv"]
    lines = [f"{k} = {v}" for k, (where, v) in flags.items() if where == "config"]
    if lines or junk:
        cfg = workdir / "run.cfg"
        cfg.write_text("\n".join(list(junk) + lines) + "\n")
        argv += ["--config", str(cfg)]
    k = flags.get("k", ("argv", "1"))[1]
    try:
        return _invoke(argv + extra)
    except SingularEvaluationError:  # the expected failure of ROADMAP item 3
        assert k.isdigit() and 5 <= int(k) <= 8, argv
        return None


def _outside(flags, names, window):
    """A drawn window flag is not a number inside window: the exit must be 2."""
    lo, hi = window
    for name in names:
        if name in flags:
            try:
                value = float(flags[name][1])
            except ValueError:
                return True
            if not lo <= value <= hi:
                return True
    return False


def _number_after(label, text):
    m = re.search(label + r": (\S+)", text)
    assert m, text
    return float(m.group(1))


@settings(max_examples=150, **FUZZ)
@given(flags=spec_flags({"zmin": Z_VALUES, "zmax": Z_VALUES}), points=st.integers(4, 8),
       junk=st.lists(st.sampled_from(JUNK_LINES), max_size=1))
def test_solve(flags, points, junk, workdir):
    result = _run("solve", flags, ["--points", str(points), "--out", str(workdir / "w.csv")],
                  workdir, junk)
    if _outside(flags, ("zmin", "zmax"), Z_WINDOW):
        assert result is not None and result[0] == 2
    if result and result[0] == 1:
        assert _number_after("max masked residual", result[1]) > 1e-8


@settings(max_examples=60, **FUZZ)
@given(flags=spec_flags({"xmin": X_VALUES, "xmax": X_VALUES}), points=st.integers(4, 8))
def test_grid_potential(flags, points, workdir):
    result = _run("grid-potential", flags,
                  ["--points", str(points), "--out", str(workdir / "v.csv")], workdir)
    if _outside(flags, ("xmin", "xmax"), X_WINDOW):
        assert result is not None and result[0] == 2
    assert result is None or result[0] != 1


# valid specs at corners of the domain (the 1F1 terms and x^-l are extreme there)
CORNERS = [{"l": "50", "eps": "-100", "nu": "inf"}, {"l": "0", "eps": "0,100"},
           {"l": "-0.5", "eps": "100", "nu": "0"}, {"l": "50", "eps": "0,-100", "k": "8"},
           {"l": "1", "eps": "100", "k": "8"}]
WINDOWS = {"solve": (("zmin", "zmax"), Z_VALUES, Z_WINDOW),
           "grid-potential": (("xmin", "xmax"), X_VALUES, X_WINDOW)}


@settings(max_examples=60, **FUZZ)
@given(command=st.sampled_from(sorted(WINDOWS)), corner=st.sampled_from(CORNERS),
       data=st.data())
def test_window_at_domain_corners(command, corner, data, workdir):
    # exit 2 exactly when a window flag lies outside its bounds, no traceback inside
    names, values, window = WINDOWS[command]
    flags = {name: ("argv", value) for name, value in corner.items()}
    flags.update({name: ("argv", data.draw(st.sampled_from(values))) for name in names})
    result = _run(command, flags, ["--mode=complex-over-real", "--points", "6",
                                   "--out", str(workdir / "c.csv")], workdir)
    outside = _outside(flags, names, window)
    assert result is not None or not outside
    assert result is None or (result[0] == 2) == outside, result


@settings(max_examples=60, **FUZZ)
@given(flags=spec_flags())
def test_hierarchy(flags, workdir):
    result = _run("hierarchy", flags, [], workdir)
    if result and result[0] == 1:
        assert _number_after("machinery residual", result[1]) > 1e-8


@settings(max_examples=40, **FUZZ)
@given(which=st.sampled_from(["t0", "t1", "t2", "params"]),
       ell=st.sampled_from(["0", "1", "1/2", "3/2", "3", "50", "51", "-3", "1/0", "1e400"]
                           + BOUNDARY),
       points=st.integers(4, 8))
def test_table(which, ell, points):
    code, out = _invoke(["table", "--which", which, f"--l={ell}", "--points", str(points)])
    if code == 1:
        rows = re.findall(r"^t\d \d{4}: params=(\S+) w=(\S+)", out, re.M)
        assert "MISMATCH" in out or any(p != "exact" or w not in ROW_OK for p, w in rows), out


@settings(max_examples=40, **FUZZ)
@given(k=st.sampled_from([None, "1", "2", "4", "5", "8", "0", "9", "100000", ""]),
       check=st.sampled_from([None, "intertwining", "shift", "commutator", "factorization",
                              "annihilation", "ladder-polynomial", "nosuch", ""]))
def test_verify(k, check):
    # a singular Wronskian is a FAIL line here, so nothing is tolerated
    code, out = _invoke(["verify"] + [f"--{name}={value}" for name, value
                                      in (("k", k), ("check", check)) if value is not None])
    if code == 1:
        assert "FAIL " in out


@pytest.mark.xfail(raises=SingularEvaluationError, strict=True,
                   reason="ROADMAP item 3: zero tests against row_scale at k >= 5")
def test_known_k5_failure(tmp_path):
    _invoke(["solve", "--l", "2", "--eps", "0.45", "--nu", "3", "--k", "5", "--points", "8",
             "--out", str(tmp_path / "w.csv")])
