import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from trisect import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0 and "s4" in out and "cp2" in out


def test_catalog_emits_parseable_diagram(capsys, tmp_path):
    code, out, _ = run(capsys, "catalog", "s4")
    assert code == 0
    from trisect.diagram import parse, standard_s4

    # catalog names resolve to the embedded variant when one exists
    assert parse(out).base == standard_s4()


def test_validate_catalog(capsys):
    code, out, _ = run(capsys, "validate", "s4", "--strict")
    assert code == 0 and "valid" in out


def test_validate_bad_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"genus": 1, "kind": "closed", "curves": [], "crossings": [{"id": "x", "sign": 1, "ends": [["a", 0], ["b", 0]]}]}')
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1 and "dangling" in out


def test_eval_bracket_and_invariant(capsys):
    code, out, _ = run(capsys, "eval", "bracket", "--triplet", "kashaev:n=3", "cp2")
    assert code == 0 and "3 + 6*z3" in out
    code, out, _ = run(capsys, "eval", "invariant", "--triplet", "kashaev:n=3", "cp2", "--all-roots")
    assert code == 0 and "roots:" in out


def test_eval_rep_backend(capsys):
    code, out, _ = run(capsys, "--json", "eval", "bracket", "--triplet", "kashaev:n=2", "--evaluator", "rep", "s4")
    assert code == 0
    data = json.loads(out)
    assert data["bracket"]["coords"] == ["64"]


def test_eval_count_matches_spec_example(capsys):
    code, out, _ = run(capsys, "eval", "count", "--C", "Z/2", "--B", "Z/3", "s4")
    assert code == 0 and out.strip() == "l=6, invariant=1"


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_real_invariant_prints_no_imaginary_part(capsys, backend):
    code, out, _ = run(capsys, "eval", "invariant", "--triplet", "group:C=S4,B=S3", "--backend", backend, "cp2")
    # a real invariant prints as a real decimal, not as "0.190785707092+0j"
    assert code == 0 and out.startswith("invariant = 0.190785707092 (= 144")


def test_imaginary_invariant_and_its_roots_print_in_one_format(capsys):
    code, out, _ = run(capsys, "eval", "invariant", "--triplet", "kashaev:n=3", "cp2", "--all-roots")
    # the float residue of the real part is not printed, and roots use "i"
    assert code == 0 and out.startswith("invariant = 0.57735026919i (= 3 + 6*z3")
    assert "e-16" not in out and "j" not in out
    assert "roots: 0.57735026919i, 0.5-0.288675134595i, -0.5-0.288675134595i" in out


def test_eval_count_with_gset(capsys):
    code, out, _ = run(capsys, "eval", "count", "--C", "Z/2", "--B", "Z/2", "--M", "cosets:(1,1)", "s4")
    assert code == 0 and "l=8" in out


def test_moves_apply_pipeline(capsys, tmp_path):
    mv = tmp_path / "moves.json"
    mv.write_text(json.dumps([
        {"move": "two_point_insert", "curve_a": "a", "pos_a": 0, "curve_b": "g", "pos_b": 1, "sign": -1},
        {"move": "reverse_orientation", "curve": "b"},
    ]))
    out_file = tmp_path / "moved.json"
    code, _, _ = run(capsys, "moves", "apply", "cp2", "--moves", str(mv), "--out", str(out_file))
    assert code == 0 and out_file.exists()
    code, out1, _ = run(capsys, "--json", "eval", "invariant", "--triplet", "kashaev:n=3", str(out_file))
    code2, out2, _ = run(capsys, "--json", "eval", "invariant", "--triplet", "kashaev:n=3", "cp2")
    assert code == 0 and code2 == 0
    assert json.loads(out1)["value"] == json.loads(out2)["value"]


def test_malformed_move_specs_are_domain_errors(capsys, tmp_path):
    # an unknown parameter or a position that is not an int used to end in a TypeError traceback
    insert = {"move": "two_point_insert", "curve_a": "a", "pos_a": 0, "curve_b": "b", "pos_b": 0}
    cases = [
        ({"move": "shift_basepoint", "curv": "a"}, "no parameter 'curv'"),
        ({"move": "shift_basepoint", "curve": "a", "offset": "x"}, "'offset' must be of type int"),
        ({**insert, "pos_a": 0.5}, "'pos_a' must be of type int"),
    ]
    mv = tmp_path / "moves.json"
    for entry, message in cases:
        mv.write_text(json.dumps([entry]))
        code, _, err = run(capsys, "moves", "apply", "cp2", "--moves", str(mv))
        assert code == 1 and err.startswith("error: ") and message in err, entry


def test_json_determinism(capsys):
    _, out1, _ = run(capsys, "--json", "eval", "bracket", "--triplet", "group:C=Z/2,B=Z/3", "cp2")
    _, out2, _ = run(capsys, "--json", "eval", "bracket", "--triplet", "group:C=Z/2,B=Z/3", "cp2")
    assert out1 == out2


def test_axioms_command(capsys):
    code, out, _ = run(capsys, "axioms", "--algebra", "group:Z/4")
    assert code == 0 and "antipode" in out
    code, out, _ = run(capsys, "--json", "axioms", "--algebra", "weak:C=Z/2;B=Z/2;M=cosets:(1,1)")
    assert code == 0 and json.loads(out)["weak"] is True


def test_crosscheck_command(capsys):
    code, out, _ = run(capsys, "crosscheck", "--triplet", "kashaev:n=2", "cp2")
    assert code == 0 and "PASS" in out


def test_float_backend(capsys):
    code, out, _ = run(capsys, "--json", "eval", "bracket", "--triplet", "kashaev:n=3", "--backend", "float", "cp2")
    assert code == 0
    z = json.loads(out)["bracket"]["approx"]
    assert abs(z[0]) < 1e-9 and abs(z[1] - 5.196152422706632) < 1e-9


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "eval", "bracket", "--triplet", "nonsense:1", "cp2")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "validate", "no-such-diagram")
    assert code == 1


def test_usage_error_exit_code():
    # a missing --triplet, and criteria that are not numbers or name no criterion
    for argv in (["eval", "bracket", "cp2"], ["selftest", "--only", "x"], ["selftest", "--only", "99"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["eval", "bracket", "--triplet", "kashaev:x", "cp2"], "bad parameter 'x'"),
    (["eval", "bracket", "--triplet", "kashaev:m=3", "cp2"], "bad parameter 'm=3'"),
    (["eval", "bracket", "--triplet", "kashaev:n=abc", "cp2"], "n='abc'"),
    (["eval", "bracket", "--triplet", "group:C=S3", "cp2"], "missing the parameter B="),
    (["eval", "bracket", "--triplet", "weak:C=Z/2", "cp2"], "missing the parameter B="),
    (["axioms", "--algebra", "double:kashaev:q"], "bad parameter 'q'"),
])
def test_malformed_specs_are_domain_errors(capsys, argv, message):
    # a malformed spec is a domain error, never a traceback
    code, _, err = run(capsys, *argv)
    assert code == 1 and err.startswith("error: ") and message in err


# the cosets:(1,1) action of Z/2 x Z/2^op, written out as a G-set file
_GSET = {"set": ["x", "y"], "action": {"(0,0)": ["x", "y"], "(0,1)": ["y", "x"], "(1,0)": ["y", "x"], "(1,1)": ["x", "y"]}}


def _gset_commands(path):
    return [
        ("eval", "count", "--C", "Z/2", "--B", "Z/2", "--M", str(path), "cp2"),
        ("eval", "bracket", "--triplet", f"weak:C=Z/2;B=Z/2;M={path}", "cp2"),
    ]


def test_gset_file_reads_like_its_cosets_spec(capsys, tmp_path):
    f = tmp_path / "gset.json"
    f.write_text(json.dumps(_GSET))
    for argv, spec in zip(_gset_commands(f), _gset_commands("cosets:(1,1)")):
        assert run(capsys, *argv) == run(capsys, *spec)
    code, out, _ = run(capsys, *_gset_commands(f)[0])
    assert code == 0 and out.startswith("l=2,")


@pytest.mark.parametrize("data, message", [
    ([1, 2], "needs an object"),
    ({"set": ["x", "y"], "action": {**_GSET["action"], "(1,1)": ["x", "z"]}}, "action of '(1,1)'"),
    ({"set": ["x", "y"], "action": {**_GSET["action"], "(0,1)": "yx"}}, "action of '(0,1)'"),
    ({"set": ["x", "y"], "action": {**_GSET["action"], "(0,1)": ["y"]}}, "action of '(0,1)'"),
    ({"set": ["x", "x"], "action": _GSET["action"]}, "not distinct"),
    ({"set": ["x", "y"], "action": {"(0,0)": ["x", "y"]}}, "missing group element '(0,1)'"),
])
def test_malformed_gset_files_are_domain_errors(capsys, tmp_path, data, message):
    # a point outside "set" and a top level that is not an object used to end in tracebacks
    f = tmp_path / "gset.json"
    f.write_text(json.dumps(data))
    for argv in _gset_commands(f):
        code, _, err = run(capsys, *argv)
        assert code == 1 and err.startswith("error: ") and message in err, argv


def test_closed_stdout_exits_1_with_nothing_on_stderr():
    # as in ``trisect axioms --algebra fun:S3 | head -1`` when head has already exited
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.run([sys.executable, "-m", "trisect.cli", "axioms", "--algebra", "fun:S3"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.stderr == b"" and proc.returncode == 1


def test_eval_has_no_tolerance_option():
    # only crosscheck compares two values; eval bracket|invariant has no tolerance to set
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "bracket", "--tol", "1e-3", "--triplet", "kashaev:n=3", "cp2"])
    assert exc.value.code == 2


def _triplet_data(t):
    """A triplet as a ``file:`` object, on the axes of the stored tensors."""
    def dense(h):
        return {
            "dim": h.dim,
            "mult": [[[_coord(h.mult.get((i, j, k))) for k in range(h.dim)] for j in range(h.dim)] for i in range(h.dim)],
            "unit": [_coord(h.unit.get(k)) for k in range(h.dim)],
            "comult": [[[_coord(h.comult.get((i, j, k))) for k in range(h.dim)] for j in range(h.dim)] for i in range(h.dim)],
            "counit": [_coord(h.counit.get(k)) for k in range(h.dim)],
            "antipode": [[_coord(h.antipode.get((i, j))) for j in range(h.dim)] for i in range(h.dim)],
        }

    def _mat(m, rows, cols):
        return [[_coord(m.get((i, j))) for j in range(cols)] for i in range(rows)]

    return {
        "name": "kashaev2-file",
        "A": dense(t.A), "B": dense(t.B), "C": dense(t.C),
        "tau_AB": _mat(t.tau_AB, t.A.dim, t.B.dim),
        "tau_BC": _mat(t.tau_BC, t.B.dim, t.C.dim),
        "tau_CA": _mat(t.tau_CA, t.C.dim, t.A.dim),
    }


def test_triplet_file(capsys, tmp_path):
    from trisect import hopf

    f = tmp_path / "triplet.json"
    f.write_text(json.dumps(_triplet_data(hopf.kashaev_triplet(2))))
    code, out, _ = run(capsys, "--json", "eval", "bracket", "--triplet", f"file:{f}", "s4")
    assert code == 0 and json.loads(out)["bracket"]["coords"] == ["64"]


def test_triplet_json_roundtrip():
    from trisect import hopf

    t = hopf.kashaev_triplet(2)
    got = hopf.triplet_from_json(_triplet_data(t))
    for slot in "ABC":
        a, b = got.algebra(slot), t.algebra(slot)
        assert (a.mult, a.unit, a.comult, a.counit, a.antipode) == (b.mult, b.unit, b.comult, b.counit, b.antipode)
    assert (got.tau_AB, got.tau_BC, got.tau_CA) == (t.tau_AB, t.tau_BC, t.tau_CA)


@pytest.mark.parametrize("change", [
    lambda d: d["tau_AB"].append(["0", "0"]),   # a row beyond dim A
    lambda d: d["tau_CA"][0].pop(),             # a row shorter than dim A
    lambda d: d.update(tau_BC=[]),
    lambda d: d.pop("tau_BC"),
    lambda d: d.pop("C"),
    lambda d: d["B"].update(basis=["e"]),
])
def test_malformed_triplet_file_is_rejected(change):
    from trisect import hopf
    from trisect.errors import TrisectError

    data = _triplet_data(hopf.kashaev_triplet(2))
    change(data)
    with pytest.raises(TrisectError):
        hopf.triplet_from_json(data)


def test_malformed_files_are_domain_errors(capsys, tmp_path):
    # a short basis used to load as a smaller algebra, and a pairing's shape went unchecked
    from trisect import hopf

    data = _triplet_data(hopf.kashaev_triplet(2))
    f = tmp_path / "algebra.json"
    f.write_text(json.dumps({**data["B"], "basis": ["e"]}))
    code, _, err = run(capsys, "axioms", "--algebra", f"file:{f}")
    assert code == 1 and "error: bad structure-constant file" in err
    data["tau_BC"] = [row + ["0"] for row in data["tau_BC"]]
    f = tmp_path / "triplet.json"
    f.write_text(json.dumps(data))
    code, _, err = run(capsys, "eval", "bracket", "--triplet", f"file:{f}", "s4")
    assert code == 1 and "error: bad structure-constant file: tau_BC" in err


def test_unreadable_files_are_domain_errors(capsys, tmp_path):
    # a missing file, truncated JSON or bytes that are not UTF-8 end in "error: ...", not a traceback
    missing = tmp_path / "missing.json"
    truncated = tmp_path / "bad.json"
    truncated.write_text('{"name": "kashaev2-file", "A": {')
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00")
    cases = [
        (("axioms", "--algebra", f"file:{missing}"), "cannot read"),
        (("eval", "bracket", "--triplet", f"file:{truncated}", "s4"), "is not valid JSON"),
        (("eval", "count", "--C", "Z/2", "--B", "Z/2", "--M", str(truncated), "cp2"), "is not valid JSON"),
        (("moves", "apply", "cp2", "--moves", str(missing)), "cannot read"),
        (("moves", "apply", "cp2", "--moves", str(truncated)), "is not valid JSON"),
        (("validate", str(binary)), "is not valid JSON"),
        (("validate", str(tmp_path)), "cannot read"),
    ]
    for argv, message in cases:
        code, _, err = run(capsys, *argv)
        assert code == 1 and err.startswith("error: ") and message in err, argv


def _coord(x):
    if x is None:
        return "0"
    return str(x.as_fraction())


def test_selftest_subset(capsys):
    code, out, _ = run(capsys, "selftest", "--only", "10")
    assert code == 0 and "PASS criterion 10" in out


def test_selftest_json_deterministic(capsys):
    _, out1, _ = run(capsys, "--json", "selftest", "--only", "10,6")
    _, out2, _ = run(capsys, "--json", "selftest", "--only", "10,6")
    assert out1 == out2
    data = json.loads(out1)
    assert all(entry["ok"] for entry in data)
