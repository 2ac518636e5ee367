"""Tests for the CLI harness and the operator-expression parser."""

import csv
import io
import json
import tracemalloc

import numpy as np
import pytest

from anharm import cli, harmonic, ideals, operators, testfuncs
from anharm.cli import OperatorSyntaxError, main, parse_operator
from anharm.scalars import (
    NegReal, iso_Phi, iso_Psi, iso_Psi_inv, iso_psi, neg_identity, neg_inv,
    neg_mul, pair_mul,
)
from anharm.testfuncs import Axis, gaussian


# ── parser ───────────────────────────────────────────────────────────────────

def _terms(u):
    return {w: c for c, w in u.terms}


def test_parse_sublaplacian():
    u = parse_operator("E1*E1 + E2*E2", 3)
    t = _terms(u)
    assert t == {(0, 0): 1 + 0j, (1, 1): 1 + 0j}


def test_parse_commutator():
    u = parse_operator("E1*E2 - E2*E1", 3)
    t = _terms(u)
    assert t == {(0, 1): 1 + 0j, (1, 0): -1 + 0j}


def test_parse_literals_and_parens():
    u = parse_operator("2*E1*(E2+E3) - 0.5", 3)
    t = _terms(u)
    assert t == {(0, 1): 2 + 0j, (0, 2): 2 + 0j, (): -0.5 + 0j}


def test_parse_unary_minus():
    assert _terms(parse_operator("-E1", 2)) == {(0,): -1 + 0j}


def test_parse_cancellation_gives_zero_element():
    u = parse_operator("E1 - E1", 2)
    assert all(c == 0 for c, _ in u.terms)


def test_parse_index_out_of_range():
    with pytest.raises(OperatorSyntaxError):
        parse_operator("E9", 3)


def test_parse_syntax_error_carries_position():
    with pytest.raises(OperatorSyntaxError) as err:
        parse_operator("E1 + * E2", 3)
    assert err.value.pos == 5


def test_parse_trailing_input():
    with pytest.raises(OperatorSyntaxError):
        parse_operator("E1 E2", 3)


def test_parse_word_order_is_written_order():
    u = parse_operator("E2*E1*E1", 2)
    assert _terms(u) == {(1, 0, 0): 1 + 0j}


@pytest.mark.parametrize("open_, close", [
    ("(", ")"), ("-", ""), ("-(", ")"),
], ids=["parentheses", "unary-minus", "minus-parenthesis"])
def test_parse_deepest_nesting(open_, close):
    # the deepest allowed nesting parses; one level more is refused at the
    # token that crosses the limit, not by a RecursionError
    n = cli._MAX_NESTING // len(open_)
    sign = (-1) ** (n * open_.count("-"))
    u = parse_operator(open_ * n + "E1" + close * n, 2)
    assert _terms(u) == {(0,): sign + 0j}
    with pytest.raises(OperatorSyntaxError, match="nesting deeper") as err:
        parse_operator("(" + open_ * n + "E1" + close * n + ")", 2)
    assert err.value.pos == cli._MAX_NESTING


# ── verify verbs ─────────────────────────────────────────────────────────────

def test_verify_scalar_groups_passes(capsys):
    assert main(["verify", "scalar-groups"]) == 0
    lines = [json.loads(s) for s in capsys.readouterr().out.splitlines()]
    assert all(ln["schema"] == 1 and ln["pass"] for ln in lines)


def _scalar_groups_reference(seed):
    """The scalar-groups errors term by term: two passes over NumPy
    scalars, each law called afresh for each term and each Ψ pair compared
    through NumPy arrays.  check_scalar_groups must give the same floats."""
    rng = np.random.default_rng(seed)
    xs, ys, zs = (-np.exp(rng.uniform(-3, 3, 10_000)) for _ in range(3))
    worst = 0.0
    for x, y, z in zip(xs, ys, zs):
        a, b, c = NegReal(x), NegReal(y), NegReal(z)
        lhs = neg_mul(neg_mul(a, b), c).value
        worst = max(worst,
                    abs(lhs - neg_mul(a, neg_mul(b, c)).value) / abs(lhs),
                    abs(neg_mul(neg_identity(), a).value - x) / abs(x),
                    abs(neg_mul(a, neg_inv(a)).value + 1.0))
    hom = 0.0
    for x, y in zip(xs, ys):
        a, b = NegReal(x), NegReal(y)
        val = iso_psi(neg_mul(a, b))
        hom = max(hom, abs(val - iso_psi(a) * iso_psi(b)) / abs(val))
        p = (float(np.exp(0.1 * x)), x)
        q = (float(np.exp(0.1 * y)), y)
        l2 = np.asarray(iso_Psi(*pair_mul(p, q)))
        r2 = np.asarray(iso_Psi(*p)) + np.asarray(iso_Psi(*q))
        hom = max(hom, float(np.max(np.abs(l2 - r2)))
                  / max(1.0, float(np.max(np.abs(l2)))))
        hom = max(hom, abs(iso_Phi(*pair_mul(p, q))
                           - iso_Phi(*p) - iso_Phi(*q))
                  / max(1.0, abs(iso_Phi(*p) + iso_Phi(*q))))
        xr, yr = iso_Psi_inv(*iso_Psi(*p))
        hom = max(hom, abs(xr - p[0]) / p[0], abs(yr - x) / abs(x))
    return worst, hom


@pytest.mark.parametrize("seed", [0, 1, 7, 31])
def test_scalar_groups_equals_the_two_pass_computation(seed):
    cfg = cli.RunConfig(seed=seed, group=None, m=None, tolerance=None)
    got = [value for _, _, value, _ in cli.check_scalar_groups(cfg)]
    assert got == list(_scalar_groups_reference(seed))


def test_verify_group_axioms_passes(capsys):
    assert main(["verify", "group-axioms"]) == 0
    capsys.readouterr()


def test_verify_plancherel_passes(capsys):
    assert main(["verify", "plancherel"]) == 0
    capsys.readouterr()


def test_tolerance_zero_forces_failure(capsys):
    assert main(["verify", "scalar-groups", "--tolerance", "0"]) == 1
    capsys.readouterr()


def test_unknown_check_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


_SOLVE = ["solve", "fundamental-solution", "--operator", "E1*E1-1",
          "--grid", "8"]
_HALFWIDTH = "halfwidth must be positive and finite"
_TOLERANCE = "tolerance must be nonnegative and finite"
_EPSILON = "epsilon must be positive and finite"
_STEP = "step and dual half-width must be positive and finite"
_LITERAL = "is not finite"
_M = "m must be >= 2"
_SEED = "seed must be >= 0"
_CAP = "at peak, above the 2.000 GiB cap"
_GRID = "grid must be a power of two >= 2"
_NESTING = "nesting deeper than 200 levels"
_UNSUPPORTED = "group solution not supported for 'N', m="


def _argv_id(argv):
    if argv[0] == "solve":
        return " ".join(["solve", *argv[len(_SOLVE):]])
    return " ".join(argv[1:])


@pytest.mark.parametrize("argv, code, message", [
    (["verify", "plancherel", "--halfwidth", "inf"], 2, _HALFWIDTH),
    (["verify", "plancherel", "--halfwidth", "nan"], 2, _HALFWIDTH),
    (["verify", "plancherel", "--halfwidth=-inf"], 2, _HALFWIDTH),
    (["verify", "plancherel", "--halfwidth", "1e300"], 0, ""),
    (["verify", "plancherel", "--halfwidth", "1e308"], 2, _STEP),
    (["verify", "all", "--tolerance", "nan"], 2, _TOLERANCE),
    (["verify", "scalar-groups", "--tolerance", "inf"], 2, _TOLERANCE),
    (["verify", "scalar-groups", "--tolerance", "0"], 0, ""),
    (_SOLVE + ["--halfwidth", "nan"], 2, _HALFWIDTH),
    (_SOLVE + ["--halfwidth", "inf"], 2, _HALFWIDTH),
    (_SOLVE + ["--epsilon", "nan"], 2, _EPSILON),
    (_SOLVE + ["--epsilon", "inf"], 2, _EPSILON),
    (_SOLVE + ["--epsilon=-inf"], 2, _EPSILON),
    (_SOLVE + ["--epsilon", "0"], 2, _EPSILON),
    (_SOLVE + ["--operator", "1e400*E1"], 2, _LITERAL),
    # each ended in a RecursionError traceback with exit 1
    pytest.param(_SOLVE + ["--operator", "(" * 900 + "E1" + ")" * 900], 2,
                 _NESTING, id="solve --operator (*900 E1 )*900-2"),
    pytest.param(_SOLVE + ["--operator=1*" + "-" * 5000 + "E1"], 2,
                 _NESTING, id="solve --operator=1*-*5000 E1-2"),
    (["verify", "group-axioms", "--m", "1"], 2, _M),
    (["verify", "all", "--m", "0"], 2, _M),
    pytest.param(["verify", "plancherel", "--halfwidth", "0"], 2, _HALFWIDTH,
                 id="plancherel --halfwidth 0-2"),
    pytest.param(["verify", "group-axioms", "--halfwidth", "-2.5"], 2,
                 _HALFWIDTH, id="group-axioms --halfwidth -2.5-2"),
    (_SOLVE + ["--m", "1"], 2, _M),
    pytest.param(["verify", "scalar-groups", "--tolerance", "-1"], 2,
                 _TOLERANCE, id="scalar-groups --tolerance -1-2"),
    (["verify", "all", "--seed", "-1"], 2, _SEED),
    (["verify", "scalar-groups", "--seed", "-1"], 2, _SEED),
    (["verify", "ideals", "--probes", "-1"], 2, "probes must be >= 0"),
    (["verify", "ideals", "--probes", "0"], 0, ""),
    (["verify", "ideals", "--dictionary-size", "0"], 2,
     "dictionary-size must be >= 1"),
    (["verify", "group-axioms", "--group", "S", "--m", "1000"], 2, _CAP),
    (["verify", "all", "--m", "1000"], 2, _CAP),
    (["verify", "plancherel", "--grid", "3"], 2, _GRID),
    (["verify", "plancherel", "--grid", "0"], 2, _GRID),
    (["verify", "plancherel", "--grid", "-4"], 2, _GRID),
    (["verify", "plancherel", "--grid", "128"], 2, "512 GiB"),
    # 1024³ is the first N grid refused: its half spectrum and slab buffers
    # come to 8.031 GiB, where 512³ comes to 1.008 GiB and runs
    (["verify", "plancherel", "--group", "N", "--grid", "1024"], 2,
     "8.031 GiB at peak"),
    pytest.param(["solve", "fundamental-solution", "--operator", "E1*E1-1",
                  "--group", "N", "--m", "3", "--grid", "512"], 2,
                 "512×512×512 sample array needs 2.000 GiB and about "
                 "9.000 GiB at peak", id="solve --group N --m 3 --grid 512-2"),
    # each ended in an OverflowError traceback with exit 1: the estimate,
    # an integer, was formatted through a float
    pytest.param(["verify", "plancherel", "--grid", str(2**400)], 2, _CAP,
                 id="plancherel --grid 2**400-2"),
    pytest.param(["solve", "fundamental-solution", "--operator", "E1",
                  "--grid", str(2**400)], 2, _CAP,
                 id="solve --operator E1 --grid 2**400-2"),
    # each ended in a traceback with exit 1, a numpy memory error at 2**40
    # and a ValueError at 2**400: the check's node axes were never sized
    pytest.param(["verify", "convolution-identity", "--grid", str(2**40)], 2,
                 _CAP, id="convolution-identity --grid 2**40-2"),
    pytest.param(["verify", "convolution-identity", "--grid", str(2**400)], 2,
                 _CAP, id="convolution-identity --grid 2**400-2"),
    (_SOLVE + ["--m", "21"], 2, _UNSUPPORTED),
    # refused before the 190 axes are built and sized: the message listed
    # 190 factors of 32×, and at m = 2**16 the axes alone would need 17 GB
    (_SOLVE + ["--m", "20"], 2, _UNSUPPORTED),
], ids=lambda v: _argv_id(v) if isinstance(v, list) else None)
def test_float_flags_must_be_finite(tmp_path, monkeypatch, capsys, argv,
                                    code, message):
    # the refusal table: a bad flag value, or a grid above the cap, exits 2
    # with a one-line message before any check runs, any Plancherel grid
    # is sampled or any solve builds a mesh; a good one reaches the check
    ran = []

    def recorder(name):
        def run(cfg):
            ran.append(name)
            yield from ()
        return run

    def no_mesh(axes):
        raise AssertionError("a mesh was built before the flags were checked")

    def no_sample(f, axes, rows=None):
        raise AssertionError("a grid was sampled before its size was checked")

    for name, check in cli.CHECKS.items():
        monkeypatch.setitem(cli.CHECKS, name, check._replace(run=recorder(name)))
    monkeypatch.setattr(operators, "grid_mesh", no_mesh)
    # on_grid and the Plancherel slab walk both sample through on_slabs
    monkeypatch.setattr(testfuncs.TestFunction, "on_slabs", no_sample)
    out = tmp_path / "x.csv"
    if argv[0] == "solve":
        argv = argv + ["--output", str(out)]
    assert main(argv) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not ran and not out.exists()
    else:
        assert ran == [argv[1]] and captured.err == ""


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_a_non_finite_value_is_a_failing_null_line(capsys):
    # at halfwidth 1e-300 the N Plancherel cell underflows and its dual
    # overflows, so the frequency-side norm is NaN
    def no_constant(name):
        raise ValueError(f"report holds {name}")

    assert main(["verify", "plancherel", "--halfwidth", "1e-300"]) == 1
    lines = [json.loads(s, parse_constant=no_constant)
             for s in capsys.readouterr().out.splitlines()]
    (line,) = [ln for ln in lines if ln["params"].get("group") == "N"]
    assert line["value"] is None and line["pass"] is False


@pytest.mark.parametrize("flags, n_probes, n_gens", [
    ([], 2, 1),
    (["--probes", "0"], 0, 3),
    (["--dictionary-size", "1"], 2, 1),
    (["--probes", "5", "--dictionary-size", "8"], 5, 3),
])
def test_ideals_reads_its_size_flags(monkeypatch, flags, n_probes, n_gens):
    # 0 is a size, not an unset flag: --probes 0 builds no probe convolutions
    class Built(Exception):
        pass

    def record(gens, probes, *args):
        raise Built(len(probes), len(gens))

    monkeypatch.setattr(cli, "ideal_model", record)
    with pytest.raises(Built) as built:
        main(["verify", "ideals", *flags])
    assert built.value.args == (n_probes, n_gens)


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_failed_gram_guard_is_a_failing_line(monkeypatch, capsys, fmt):
    # correspondence_check refuses a transported Gram that deviates by more
    # than 1e-6 (here a stub's 2e-6): the closure line then fails with a
    # null value, and verify exits 1 with no traceback
    def no_constant(name):
        raise ValueError(f"{name} in a report")

    monkeypatch.setattr(cli, "ideal_model", lambda *args: object())
    for module in (cli, ideals):
        monkeypatch.setattr(module, "transport_gram_deviation",
                            lambda model: 2e-6)
    monkeypatch.setattr(cli, "gamma_intertwine_residual",
                        lambda *args: (1e-5, 1.0))
    assert main(["verify", "ideals", "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    if fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(captured.out)))
        assert [r["value"] for r in rows] == [repr(2e-6), "", repr(1e-5)]
        assert [r["pass"] for r in rows] == ["False", "False", "True"]
        return
    lines = [json.loads(ln, parse_constant=no_constant)
             for ln in captured.out.splitlines()]
    assert [(ln["metric"], ln["value"], ln["pass"]) for ln in lines] == [
        ("gram_transport_deviation", 2e-6, False),
        ("closure_residual_difference", None, False),
        ("intertwine_rel_residual", 1e-5, True)]


def test_report_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["verify", "group-axioms", "--seed", "5",
                 "--output", str(a)]) == 0
    assert main(["verify", "group-axioms", "--seed", "5",
                 "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_csv_format(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(["verify", "scalar-groups", "--format", "csv",
                 "--output", str(out)]) == 0
    text = out.read_text().splitlines()
    assert text[0].startswith("check,metric,value,tolerance,pass")
    assert len(text) == 3
    capsys.readouterr()


def test_io_error_exit_code(capsys):
    code = main(["verify", "scalar-groups",
                 "--output", "/nonexistent-dir/report.jsonl"])
    assert code == 3
    capsys.readouterr()


# ── solve verb ───────────────────────────────────────────────────────────────

def test_solve_writes_grid_csv(tmp_path, capsys):
    out = tmp_path / "sol.csv"
    code = main(["solve", "fundamental-solution",
                 "--operator", "E1*E1+E3*E3-1", "--group", "N", "--m", "3",
                 "--grid", "8", "--halfwidth", "6", "--output", str(out)])
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == "x0,x1,x2,re,im"
    summary = json.loads(capsys.readouterr().out)
    assert summary["schema"] == 1 and summary["grid"] == 8


def test_solve_rejects_bad_index(tmp_path, capsys):
    code = main(["solve", "fundamental-solution", "--operator", "E9",
                 "--m", "3", "--output", str(tmp_path / "x.csv")])
    assert code == 2
    capsys.readouterr()


def test_solve_rejects_zero_operator(tmp_path, capsys):
    code = main(["solve", "fundamental-solution", "--operator", "E1-E1",
                 "--m", "3", "--grid", "8",
                 "--output", str(tmp_path / "x.csv")])
    assert code == 2
    capsys.readouterr()


def test_solve_requires_output(capsys, monkeypatch):
    def no_mesh(axes):
        raise AssertionError("a mesh was built before --output was checked")

    monkeypatch.setattr(operators, "grid_mesh", no_mesh)
    code = main(["solve", "fundamental-solution", "--operator", "E2*E2-1",
                 "--m", "3", "--grid", "8"])
    assert code == 2
    assert "requires --output" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--operator", "E1*E1-1", "--epsilon", "0"], "epsilon must be positive"),
    (["--operator", "E1-E1"], "identically zero"),
])
def test_solve_rejects_bad_epsilon_or_zero_operator_before_any_mesh(
        tmp_path, capsys, monkeypatch, argv, message):
    def no_mesh(axes):
        raise AssertionError("a mesh was built before the solve was refused")

    monkeypatch.setattr(operators, "grid_mesh", no_mesh)
    out = tmp_path / "x.csv"
    code = main(["solve", "fundamental-solution", "--group", "N", "--m", "3",
                 "--grid", "8", "--output", str(out), *argv])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--seed", "1"], ["--tolerance", "-1"],
                                  ["--format", "csv"], ["--timings"]])
def test_solve_does_not_parse_the_verify_flags(tmp_path, capsys, flag):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(["solve", "fundamental-solution", "--operator", "E1*E1-1",
              "--grid", "8", "--output", str(out), *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()

def test_solve_rejects_unsupported_pair_before_any_mesh(tmp_path, capsys,
                                                         monkeypatch):
    def no_mesh(axes):
        raise AssertionError("a mesh was built before (N, 4) was rejected")

    monkeypatch.setattr(operators, "grid_mesh", no_mesh)
    out = tmp_path / "x.csv"
    code = main(["solve", "fundamental-solution", "--operator", "E1*E1-1",
                 "--group", "N", "--m", "4", "--grid", "4", "--output",
                 str(out)])
    assert code == 2
    assert "not supported" in capsys.readouterr().err
    assert not out.exists()


# ── flags each check reads ───────────────────────────────────────────────────

@pytest.mark.parametrize("argv, flag", [
    (["verify", "convolution-identity", "--m", "5"], "--m"),
    (["verify", "plancherel", "--m", "3"], "--m"),
    (["verify", "group-axioms", "--grid", "8"], "--grid"),
    (["verify", "projected-convolution", "--group", "N"], "--group"),
    (["verify", "operator-identity", "--halfwidth", "2"], "--halfwidth"),
    (["verify", "ideals", "--grid", "8"], "--grid"),
    (["verify", "scalar-groups", "--dictionary-size", "4"],
     "--dictionary-size"),
    (["verify", "convolution-identity", "--probes", "3"], "--probes"),
])
def test_named_check_rejects_a_flag_it_does_not_read(monkeypatch, capsys,
                                                     argv, flag):
    def no_check(cfg):
        raise AssertionError("a check ran with a flag it does not read")

    for name, check in cli.CHECKS.items():
        monkeypatch.setitem(cli.CHECKS, name, check._replace(run=no_check))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"does not read {flag}" in captured.err and captured.out == ""


def test_verify_all_passes_each_flag_only_to_its_readers(monkeypatch, capsys):
    seen = {}

    def recorder(name):
        def run(cfg):
            seen[name] = {f: getattr(cfg, f) for f in cli._FLAGS}
            return []
        return run

    for name, check in cli.CHECKS.items():
        monkeypatch.setitem(cli.CHECKS, name, check._replace(run=recorder(name)))
    argv = ["verify", "all", "--group", "N", "--m", "4", "--grid", "8",
            "--halfwidth", "5", "--dictionary-size", "4", "--probes", "2"]
    assert main(argv) == 0
    capsys.readouterr()
    given = {"group": "N", "m": 4, "grid": 8, "halfwidth": 5.0,
             "dictionary_size": 4, "probes": 2}
    assert set(seen) == set(cli.CHECKS)
    for name, flags in seen.items():
        assert flags == {f: (v if f in cli.CHECKS[name].flags else None)
                         for f, v in given.items()}


# ── timings ──────────────────────────────────────────────────────────────────

def test_timings_give_each_line_its_own_time(monkeypatch, capsys):
    clock = [0.0]

    def three_lines(cfg):  # its lines take 1, 2 and 4 s on the fake clock
        for seconds in (1.0, 2.0, 4.0):
            clock[0] += seconds
            yield {"seconds": seconds}, "err", 0.0, 1.0

    monkeypatch.setattr(cli.time, "perf_counter", lambda: clock[0])
    monkeypatch.setitem(cli.CHECKS, "scalar-groups",
                        cli.Check(three_lines, set()))
    assert main(["verify", "scalar-groups", "--timings"]) == 0
    lines = [json.loads(s) for s in capsys.readouterr().out.splitlines()]
    assert [ln["wall_time"] for ln in lines] == [1.0, 2.0, 4.0]
    assert sum(ln["wall_time"] for ln in lines) == clock[0]  # the check's time
    assert main(["verify", "scalar-groups"]) == 0
    lines = [json.loads(s) for s in capsys.readouterr().out.splitlines()]
    assert len(lines) == 3 and not any("wall_time" in ln for ln in lines)
    # in CSV the times are a last column, present only under --timings
    assert main(["verify", "scalar-groups", "--timings", "--format",
                 "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0][-1] == "wall_time" and len(rows) == 4
    assert [float(r[-1]) for r in rows[1:]] == [1.0, 2.0, 4.0]
    assert main(["verify", "scalar-groups", "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert "wall_time" not in rows[0] and len(rows) == 4
    assert {len(r) for r in rows} == {len(rows[0])}


# ── grid size ────────────────────────────────────────────────────────────────

def test_grid_bytes_estimate():
    axes = [Axis(0.0, 6.0, 64)] * 5
    assert cli.grid_bytes(axes) == 16 * 64 ** 5
    assert cli.grid_bytes(axes) > cli.MAX_GRID_BYTES
    assert cli.grid_bytes([Axis(0.0, 6.0, 32)] * 5) <= cli.MAX_GRID_BYTES


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("group, m, axes", [
    ("N", 2, [Axis(0.0, 8.0, 1 << 16)]),
    ("N", 3, [Axis(0.0, 6.0, 32)] * 3),
    ("S", 2, [Axis(0.0, 10.0, 256), Axis(0.0, 3.0, 64)]),
])
def test_solve_peak_estimate_bounds_the_traced_peak(group, m, axes):
    u = parse_operator("E1*E1-1", len(axes))
    peak = _traced_peak(lambda: operators.fundamental_solution_group(
        u, group, m, axes))
    assert peak <= cli.solve_peak_bytes(axes) <= 2 * peak


@pytest.mark.parametrize("axes", [
    [Axis(0.0, 6.0, 1 << 16)],
    [Axis(0.0, 10.0, 256), Axis(0.0, 3.0, 64)],
    [Axis(0.0, 10.0, 32)] * 3,
    [Axis(0.0, 6.0, 8)] * 5,
    [Axis(0.0, 6.0, 16)] * 5,
], ids=["1d", "2d", "3d", "5d", "16^5"])
def test_plancherel_peak_estimate_bounds_the_traced_peak(axes):
    # the 1-D and 2-D grids walk as one slab, the others slab by slab
    f = gaussian([0.1] * len(axes), [1.0] * len(axes))
    peak = _traced_peak(lambda: harmonic.plancherel_check(f, axes))
    assert peak <= cli.plancherel_peak_bytes(axes) <= 2 * peak


@pytest.mark.parametrize("grid", [16, 64])
def test_identity_peak_estimate_bounds_the_traced_peak(grid):
    # a first run imports numpy.random, which is not the grid's memory
    run = cli.check_convolution_identity
    list(run(cli.RunConfig(seed=0, grid=2, tolerance=None)))
    cfg = cli.RunConfig(seed=0, grid=grid, tolerance=None)
    peak = _traced_peak(lambda: list(run(cfg)))
    estimate = max(map(cli.identity_peak_bytes,
                       cli._identity_axes(cfg).values()))
    assert peak <= estimate <= 2 * peak


@pytest.mark.parametrize("group, m", [("N", 8), ("S", 5)])
def test_group_axioms_peak_estimate_bounds_the_traced_peak(group, m):
    cfg = cli.RunConfig(seed=0, group=group, m=m, tolerance=None)
    peak = _traced_peak(lambda: list(cli.check_group_axioms(cfg)))
    dim = cli.law(group, m).dim
    assert peak <= cli.group_axioms_peak_bytes(dim) <= 2 * peak


# ── seed stability ───────────────────────────────────────────────────────────

@pytest.mark.parametrize("check, cases, seeds", [
    ("projected-convolution", ["K1", "H"], range(32)),
    # at its former 64×32 grid the H line failed on seeds 11, 16 and 19
    ("convolution-identity", ["K1", "H"], range(32)),
], ids=["projected-convolution", "convolution-identity"])
def test_gate_margin_over_seeds(capsys, check, cases, seeds):
    # one run of the check per seed covers each of its cases' lines
    for seed in seeds:
        main(["verify", check, "--seed", str(seed)])
        lines = {ln["params"]["case"]: ln for ln in
                 map(json.loads, capsys.readouterr().out.splitlines())}
        for case in cases:
            line = lines[case]
            assert 3.0 * line["value"] <= line["tolerance"], (
                seed, case, line["value"])


def test_axioms_and_parseval_gate_margin_over_seeds(capsys, monkeypatch):
    # the group-axioms points and the discrete-parseval samples come from
    # the seed; with the sampled Plancherel grids stubbed out, the
    # plancherel check runs only its parseval line
    monkeypatch.setattr(cli, "_plancherel_axes", lambda cfg: {})
    for seed in range(32):
        for check in ("group-axioms", "plancherel"):
            assert main(["verify", check, "--seed", str(seed)]) == 0
        lines = list(map(json.loads, capsys.readouterr().out.splitlines()))
        assert [ln["check"] for ln in lines] == ["group-axioms"] * 8 + [
            "plancherel"]
        for line in lines:
            assert 3.0 * line["value"] <= line["tolerance"], (
                seed, line["params"], line["value"])


def test_intertwine_gate_margin_over_seeds(capsys, monkeypatch):
    # the line's 20 points come from the seed; the dictionary lines draw
    # nothing from it, so with them stubbed each seed runs only the ∗_c/∗
    # intertwining, and seed 0 gives the real verify line's value
    assert main(["verify", "ideals", "--seed", "0"]) == 0
    real, = [ln["value"] for ln in
             map(json.loads, capsys.readouterr().out.splitlines())
             if ln["metric"] == "intertwine_rel_residual"]
    monkeypatch.setattr(cli, "ideal_model", lambda *args: None)
    monkeypatch.setattr(cli, "transport_gram_deviation", lambda model: 0.0)
    monkeypatch.setattr(cli, "correspondence_check", lambda model, fns: [
        ideals.CorrespondenceLine(0.0, 0.0, 0.0)])
    for seed in range(32):
        cfg = cli.RunConfig(seed=seed, probes=None, dictionary_size=None,
                            tolerance=None)
        (_, _, value, gate), = [ln for ln in cli.check_ideals(cfg)
                                if ln[1] == "intertwine_rel_residual"]
        assert seed or value == real
        assert 3.0 * value <= gate, (seed, value)


def test_ideals_transport_gate_margin(capsys):
    # the line draws nothing from the seed; on an M z window as narrow as
    # N's its margin was 1.96, because Γ⁻¹ shears z by x·y
    assert main(["verify", "ideals", "--seed", "0"]) == 0
    line, = [ln for ln in map(json.loads, capsys.readouterr().out.splitlines())
             if ln["metric"] == "gram_transport_deviation"]
    assert 3.0 * line["value"] <= line["tolerance"], line["value"]
