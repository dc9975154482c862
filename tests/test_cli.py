import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisect import cli, diagram, hopf
from trisect.groups import symmetric


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _catalog_json(name="cp2", change=lambda d: None, embedded=True) -> str:
    """The JSON of a catalog diagram, or of its base diagram, after ``change`` edits the decoded object."""
    e = diagram.CATALOG[name]()
    data = json.loads(diagram.serialize(e if embedded else e.base))
    change(data)
    return json.dumps(data)


def _add_green_curve(d):
    # a second green curve g2 crossing g
    d["curves"][2]["visits"].append("gg")
    d["curves"].append({"id": "g2", "color": "green", "visits": ["gg"]})
    d["crossings"].append({"id": "gg", "sign": 1, "ends": [["g", 2], ["g2", 0]]})


def _algebra_data(h, coord) -> dict:
    """An algebra as a ``file:`` object, on the axes of the stored tensors, each entry written by ``coord``."""
    n = range(h.dim)
    return {
        "dim": h.dim,
        "mult": [[[coord(h.mult.get((i, j, k))) for k in n] for j in n] for i in n],
        "unit": [coord(h.unit.get(k)) for k in n],
        "comult": [[[coord(h.comult.get((i, j, k))) for k in n] for j in n] for i in n],
        "counit": [coord(h.counit.get(k)) for k in n],
        "antipode": [[coord(h.antipode.get((i, j))) for j in n] for i in n],
    }


def _float_s3_json(s00) -> str:
    """C[S3] as a ``file:`` algebra of JSON floats, with antipode entry (0, 0) set to ``s00``."""
    data = _algebra_data(hopf.group_algebra(symmetric(3)), lambda x: 0.0 if x is None else float(x.as_fraction()))
    data["antipode"][0][0] = s00
    return json.dumps(data)


# The input files of the command-line contract below, written into the working directory of every row.
_FILES = {
    # cp2 after two two-point inserts: the largest step of S4 x S3 keeps 3,456 entries, though an order by
    # dense size alone once needed a step of dense size 17,915,904
    "inserts.json": '[{"move":"two_point_insert","curve_a":"a","pos_a":1,"curve_b":"g","pos_b":2,"sign":-1},'
                    '{"move":"two_point_insert","curve_a":"a","pos_a":2,"curve_b":"b","pos_b":0,"sign":-1}]',
    "m.json": '[{"move":"two_point_insert","curve_a":"a","pos_a":0,"curve_b":"b","pos_b":0},'
              '{"move":"three_point_flip","p":"p_ab","q":"p_bc","r":"p_ca"},{"move":"two_point_delete","p":"tp1","q":"tp2"}]',
    "bad.json": '[{"move":"shift_basepoint","curv":"a"}]',
    "not-a-list.json": '{"move": "shift_basepoint", "curve": "a"}',
    # C[Z/2] with e1 e1 = 2 e0 in place of e0: the residuals must read it
    "bad-alg.json": '{"dim": 2, "mult": [[[1, 0], [0, 1]], [[0, 1], [2, 0]]], "unit": [1, 0], '
                    '"comult": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], "counit": [1, 1], "antipode": [[1, 0], [0, 1]]}',
    # C[Z/3] with every product of e1 set to 0: eps(e1 e_j) = 0 while eps(e1) eps(e_j) = 1
    "zero-e1.json": '{"dim": 3, "mult": [[[1, 0, 0], [0, 0, 0], [0, 0, 1]], [[0, 0, 0], [0, 0, 0], [0, 0, 0]], '
                    '[[0, 0, 1], [0, 0, 0], [0, 1, 0]]], "unit": [1, 0, 0], "comult": [[[1, 0, 0], [0, 0, 0], '
                    '[0, 0, 0]], [[0, 0, 0], [0, 1, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 0], [0, 0, 1]]], '
                    '"counit": [1, 1, 1], "antipode": [[1, 0, 0], [0, 0, 1], [0, 1, 0]]}',
    "gset.json": '{"set": ["x", "y"], "action": {"(0,0)": ["x", "z"]}}',
    # a G-set without points
    "empty.json": '{"set": [], "action": {"(0,0)": [], "(1,0)": [], "(0,1)": [], "(1,1)": []}}',
    "extra.json": _catalog_json(change=lambda d: d.update(colour_map={})),
    "same-colour.json": _catalog_json(change=_add_green_curve, embedded=False),
    "sides-list.json": _catalog_json(change=lambda d: d.update(segment_sides=[])),
    "boundary-list.json": _catalog_json(change=lambda d: d.update(boundary_region=["x"])),
    "b-red.json": _catalog_json(change=lambda d: d["curves"][1].update(color="red")),
    "b-purple.json": _catalog_json(change=lambda d: d["curves"][1].update(color="purple")),
    "null-id.json": _catalog_json(change=lambda d: d["crossings"][0].update(id=None)),
    # float C[S3] whose S^2 misses the identity at (0, 0) by 2.2e-15, inside approx_eq's rule
    "s3-float-near.json": _float_s3_json(1 + 1e-15),
    "list-triplet.json": "[]",
    # the moves that build entangled(4, 1) from cp2: a stabilization, 4 seeded handle slides, 6 random moves
    "entangled-moves.json": (Path(__file__).parent / "data" / "entangled_4_1_moves.json").read_text(),
}


def _row(name, *calls, code=0, out=None, err=None, same_as=None):
    """One check of the ``trisect`` command line.

    Each call is one command line, run in the order given, and each but the
    last must exit 0.  The last must exit with ``code``; when given, the regex
    ``out`` must match a line of its stdout and ``err`` a line of its stderr,
    and its code, stdout and stderr must equal those of the call ``same_as``.
    """
    return pytest.param(calls, code, out, err, same_as, id=name)


_ERROR = "^error: "

CONTRACT = [
    _row("crosscheck-kashaev3", "crosscheck --triplet kashaev:n=3 cp2"),
    _row("axioms-double-kashaev4", "axioms --algebra double:kashaev:n=4"),
    _row("count-s3-z3-s4", "eval count --C S3 --B Z/3 s4", out="^l=18,"),
    _row("count-cosets-cp2", "eval count --C Z/2 --B Z/2 --M cosets:(1,1) cp2", out="^l=2,"),
    _row("count-regular-cp2", "eval count --C Z/2 --B Z/2 --M regular cp2", out="^l=4,"),
    _row("count-disc", "eval count --C Z/2 --B Z/3 s4-disc", out="^l=6,"),
    _row("invariant-s4xs3-exact", "eval invariant --triplet group:C=S4,B=S3 --backend exact cp2",
         out=r"^invariant = 0\.190785707092"),
    _row("invariant-s4xs3-float", "eval invariant --triplet group:C=S4,B=S3 --backend float cp2",
         out=r"^invariant = 0\.190785707092"),
    _row("invariant-s4xs3-inserted", "moves apply cp2 --moves inserts.json --out inserted.json",
         "eval invariant --triplet group:C=S4,B=S3 inserted.json", out=r"^invariant = 0\.190785707092"),
    _row("invariant-weak-exact", "eval invariant --triplet weak:C=Z/2;B=Z/3 --backend exact cp2",
         out=r"^invariant = 0\.550321208149"),
    _row("invariant-weak-float", "eval invariant --triplet weak:C=Z/2;B=Z/3 --backend float cp2",
         out=r"^invariant = 0\.550321208149"),
    # a weak triplet whose M has two points is not move-invariant (ROADMAP item 2): only its raw bracket is printed
    _row("invariant-refuses-weak-cosets", "eval invariant --triplet weak:C=Z/2;B=Z/2;M=cosets:(1,1) cp2",
         code=1, err=r"^error: weak:C=Z/2,B=Z/2,\|M\|=2: .*\(ROADMAP item 2\)$"),
    _row("bracket-weak-cosets", "eval bracket --triplet weak:C=Z/2;B=Z/2;M=cosets:(1,1) cp2", out=r"^bracket = 2 "),
    _row("crosscheck-refuses-weak-cosets", "crosscheck --triplet weak:C=Z/2;B=Z/2;M=cosets:(1,1) cp2",
         code=1, err="^error: the representation backend supports strong triplets only$"),
    _row("axioms-weak-cosets", "axioms --algebra weak:C=Z/2;B=Z/2;M=cosets:(1,1)"),
    _row("axioms-fun-s3", "axioms --algebra fun:S3"),
    _row("crosscheck-z2-z3", "crosscheck --triplet group:C=Z/2,B=Z/3 cp2"),
    _row("crosscheck-product-group", "crosscheck --triplet group:C=Z/2xZ/2,B=Z/3 cp2", out="^PASS "),
    _row("rep-refuses-nonabelian", "eval bracket --evaluator rep --triplet group:C=S3,B=Z/3 cp2",
         code=1, err=re.escape("error: no representations known for the dual of C^(S3xZ/3^op)")),
    _row("rep-refuses-weak", "eval bracket --evaluator rep --triplet weak:C=Z/2;B=Z/2;M=cosets:(1,1) cp2",
         code=1, err="^error: the representation backend supports strong triplets only$"),
    _row("json-invariant-kashaev8", "--json eval invariant --triplet kashaev:n=8 --backend exact cp2",
         out=r'"coords": \["0", "32", "0", "0"\], "level": 8'),
    _row("json-bracket-kashaev3", "--json eval bracket --triplet kashaev:n=3 cp2",
         out=r'"approx": \[1.3322676295501878e-15, 5.196152422706632\], "coords": \["3", "6"\]'),
    _row("moves-file", "moves apply cp2 --moves m.json --out moved.json",
         "eval invariant --triplet kashaev:n=3 moved.json", out=r"^invariant = 0\.57735026919i"),
    _row("moves-bad-parameter", "moves apply cp2 --moves bad.json", code=1, err=_ERROR),
    _row("moves-not-a-list", "moves apply cp2 --moves not-a-list.json",
         code=1, err="^error: the moves file must contain a JSON list$"),
    _row("axioms-corrupted-file", "axioms --algebra file:bad-alg.json", code=1, out=r"^  comultiplicativity: 2\.0$"),
    _row("axioms-right-side-residual", "axioms --algebra file:zero-e1.json", code=1, out=r"^  unit_counit_compat: 1\.0$"),
    _row("axioms-float-antipode-near-one", "axioms --algebra file:s3-float-near.json",
         out=r"^  antipode_involutive: 0\.0$"),
    _row("triplet-file-not-an-object", "eval bracket --triplet file:list-triplet.json cp2",
         code=1, err="^error: bad triplet file: not a JSON object$"),
    _row("axioms-unknown-spec", "axioms --algebra nonsense:1", code=1, err="^error: unknown algebra spec 'nonsense:1'$"),
    # the largest step of kashaev:n=3 on cp2 keeps 3 entries
    _row("cap-2-refuses", "eval invariant --triplet kashaev:n=3 --cap 2 cp2",
         code=1, err=re.escape("error: needs 3 or more entries in a contraction intermediate (cap 2)")),
    _row("cap-3-suffices", "eval invariant --triplet kashaev:n=3 --cap 3 cp2", out=r"^invariant = 0\.57735026919i"),
    # an order by dense size refused this diagram (a step of dense size 241,864,704); its largest step keeps 5,184
    _row("invariant-s4xs3-entangled", "moves apply cp2 --moves entangled-moves.json --out e.json",
         "eval invariant --triplet group:C=S4,B=S3 e.json", out=r"^invariant = 0\.190785707092 "),
    _row("malformed-spec", "eval bracket --triplet kashaev:n=abc cp2", code=1, err=_ERROR),
    _row("gset-file-bad-point", "eval count --C Z/2 --B Z/2 --M gset.json cp2", code=1, err=_ERROR),
    _row("gset-file-empty-count", "eval count --C Z/2 --B Z/2 --M empty.json cp2", code=1, err=_ERROR),
    _row("gset-file-empty-invariant", "eval invariant --triplet weak:C=Z/2;B=Z/2;M=empty.json cp2", code=1, err=_ERROR),
    _row("gset-file-empty-axioms", "axioms --algebra weak:C=Z/2;B=Z/2;M=empty.json", code=1, err=_ERROR),
    _row("gset-unknown-coset-element", "eval count --C Z/2 --B Z/2 --M cosets:(2,2) cp2",
         code=1, err=r"^error: unknown element '\(2,2\)' of Z/2xZ/2\^op"),
    _row("gset-unknown-spec", "eval count --C Z/2 --B Z/2 --M nowhere cp2",
         code=1, err="^error: unknown G-set spec 'nowhere'"),
    _row("boundary-on-closed", "eval count --C Z/2 --B Z/2 --boundary 5 cp2", code=1, err=_ERROR),
    _row("catalog-cp2", "catalog cp2"),
    _row("strict-validate-extra-key", "validate --strict extra.json", code=1, err=_ERROR),
    _row("count-same-colour", "eval count --C Z/2 --B Z/3 same-colour.json", code=1,
         err=re.escape("error: invalid diagram: [same-colour-intersection] 'g' and 'g2' share a colour (at gg)")),
    _row("sides-not-an-object", "validate sides-list.json", code=1,
         err=re.escape("error: key 'segment_sides' has wrong type (at segment_sides)")),
    _row("boundary-not-a-string", "validate boundary-list.json", code=1,
         err=re.escape("error: key 'boundary_region' must be a string (at boundary_region)")),
    _row("validate-red-b", "validate b-red.json", code=1,
         out=re.escape("[same-colour-intersection] 'a' and 'b' share a colour (at p_ab)")),
    _row("count-red-b", "eval count --C Z/2 --B Z/3 b-red.json", code=1, err="^error: invalid embedded diagram: "),
    _row("validate-purple-b", "validate b-purple.json", code=1, out=re.escape("[color] unknown colour 'purple' (at b)")),
    _row("count-purple-b", "eval count --C Z/2 --B Z/3 b-purple.json", code=1, err="^error: invalid embedded diagram: "),
    _row("moves-on-invalid-diagram", "moves apply null-id.json --moves m.json", code=1,
         err=re.escape("error: invalid diagram: [dangling-visit] curve visits unknown crossing 'p_ab' (at a[0])")),
    # --json goes before or after the subcommand, with the same bytes out
    _row("json-after-validate", "validate s4 --json", out=r"^\{", same_as="--json validate s4"),
    _row("json-after-catalog", "catalog cp2 --json", out=r"^\{", same_as="--json catalog cp2"),
    _row("json-after-eval-bracket", "eval bracket --triplet kashaev:n=3 cp2 --json", out=r"^\{",
         same_as="--json eval bracket --triplet kashaev:n=3 cp2"),
    _row("json-after-eval-count", "eval count --C Z/2 --B Z/3 s4 --json", out=r"^\{",
         same_as="--json eval count --C Z/2 --B Z/3 s4"),
    _row("json-after-axioms", "axioms --algebra fun:S3 --json", out=r"^\{", same_as="--json axioms --algebra fun:S3"),
    _row("json-after-crosscheck", "crosscheck --triplet kashaev:n=3 cp2 --json", out=r"^\{",
         same_as="--json crosscheck --triplet kashaev:n=3 cp2"),
    _row("json-after-moves-apply", "moves apply cp2 --moves m.json --json", out=r"^\{",
         same_as="--json moves apply cp2 --moves m.json"),
    _row("json-after-selftest", "selftest --only 10 --json", out=r"^\[", same_as="--json selftest --only 10"),
]


@pytest.mark.parametrize("calls, code, out, err, same_as", CONTRACT)
def test_cli_contract(capsys, monkeypatch, tmp_path, calls, code, out, err, same_as):
    monkeypatch.chdir(tmp_path)
    for name, text in _FILES.items():
        (tmp_path / name).write_text(text)
    *setup, last = calls
    for call in setup:
        assert run(capsys, *shlex.split(call))[0] == 0, call
    got = run(capsys, *shlex.split(last))
    assert got[0] == code, got
    for pattern, text in ((out, got[1]), (err, got[2])):
        assert pattern is None or re.search(pattern, text, re.M), (pattern, text)
    if same_as is not None:
        assert got == run(capsys, *shlex.split(same_as))


@pytest.mark.parametrize("command", ["eval bracket", "eval invariant", "crosscheck"])
def test_cap_help_names_the_quantity_it_bounds(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([*command.split(), "--help"])
    assert exc.value.code == 0
    # argparse wraps the help at the terminal width
    text = " ".join(capsys.readouterr().out.split())
    assert "--cap CAP bound on the nonzero entries that each pairwise contraction step keeps" in text


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0 and "s4" in out and "cp2" in out


def test_catalog_emits_parseable_diagram(capsys, tmp_path):
    code, out, _ = run(capsys, "catalog", "s4")
    assert code == 0
    from trisect.diagram import cp2, parse, standard_s4

    # every catalog entry is embedded; its base is the abstract diagram
    assert parse(out).base == standard_s4()
    # --json prints the same diagram on one line, with sorted keys
    code, out, _ = run(capsys, "--json", "catalog", "cp2")
    assert code == 0 and out.count("\n") == 1 and out.startswith('{"crossings": [{"ends": [["a", 0], ["b", 0]]')
    assert parse(out).base == cp2()


def test_validate_catalog(capsys):
    for name in ("s4", "cp2", "s4-disc"):
        code, out, _ = run(capsys, "validate", name, "--strict")
        assert code == 0 and out == "valid\n", name


def test_strict_validate_rejects_unknown_top_level_keys(capsys, tmp_path):
    # --strict used to stop at catalog names: a file with an unknown key printed "valid"
    code, out, _ = run(capsys, "catalog", "cp2")
    data = json.loads(out)
    data["colour_map"] = {}
    f = tmp_path / "extra.json"
    f.write_text(json.dumps(data))
    code, _, err = run(capsys, "validate", "--strict", str(f))
    assert code == 1 and err == "error: unknown keys ['colour_map']\n"
    code, out, _ = run(capsys, "validate", str(f))
    assert code == 0 and out == "valid\n"


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
    # a disc fixes its boundary label, 0 unless given
    code, out, _ = run(capsys, "eval", "count", "--C", "Z/2", "--B", "Z/3", "s4-disc")
    assert code == 0 and out == "l=6, invariant=1\n"
    code, out, _ = run(capsys, "eval", "count", "--C", "Z/2", "--B", "Z/2", "--M", "cosets:(1,1)", "--boundary", "1", "s4-disc")
    assert code == 0 and out == "l=4, invariant=2\n"


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
    # without --out the diagram goes to stdout: as the file holds it, or as one sorted JSON line
    code, out, _ = run(capsys, "moves", "apply", "cp2", "--moves", str(mv))
    assert code == 0 and out == out_file.read_text()
    code, out, _ = run(capsys, "--json", "moves", "apply", "cp2", "--moves", str(mv))
    assert code == 0 and out == json.dumps(json.loads(out_file.read_text()), sort_keys=True) + "\n"


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
    for algebra, header in (("fun:S3", "C^S3 (dim 6)"), ("double:kashaev:n=3", "D(C^Z/3,C^Z/3) (dim 9)")):
        code, out, _ = run(capsys, "axioms", "--algebra", algebra)
        lines = out.splitlines()
        assert code == 0 and lines[0] == header and len(lines) == 9, algebra
        assert all(line.endswith(": 0.0") for line in lines[1:]), algebra
    code, out, _ = run(capsys, "--json", "axioms", "--algebra", "weak:C=Z/2;B=Z/2;M=cosets:(1,1)")
    assert code == 0 and json.loads(out)["weak"] is True


def test_crosscheck_command(capsys):
    code, out, _ = run(capsys, "crosscheck", "--triplet", "kashaev:n=2", "cp2")
    assert code == 0 and "PASS" in out
    # exact values print as they are, float ones in render's decimal format, not as
    # "element=(1.7763568394002505e-15+5.196152422706632j)"
    code, out, _ = run(capsys, "crosscheck", "--triplet", "kashaev:n=3", "cp2")
    assert code == 0 and out == "PASS backend agreement: element=3 + 6*z3, rep=3 + 6*z3\n"
    code, out, _ = run(capsys, "crosscheck", "--backend", "float", "--triplet", "kashaev:n=3", "cp2")
    assert code == 0 and out == "PASS backend agreement: element=5.19615242271i, rep=5.19615242271i\n"


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
    (["eval", "count", "--C", "Z/2", "--B", "Z/2", "--boundary", "5", "cp2"], "has no boundary region"),
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
    ({"set": [], "action": {"(0,0)": [], "(1,0)": [], "(0,1)": [], "(1,1)": []}}, "'set' is empty"),
])
def test_malformed_gset_files_are_domain_errors(capsys, tmp_path, data, message):
    # a point outside "set" and a top level that is not an object used to end in tracebacks
    f = tmp_path / "gset.json"
    f.write_text(json.dumps(data))
    for argv in _gset_commands(f) + [("axioms", "--algebra", f"weak:C=Z/2;B=Z/2;M={f}")]:
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


def test_crosscheck_has_no_tolerance_option():
    # the float backend's comparison uses approx_eq's tolerance; there is none to set
    with pytest.raises(SystemExit) as exc:
        cli.main(["crosscheck", "--tol", "1e-3", "--triplet", "kashaev:n=3", "cp2"])
    assert exc.value.code == 2


def _triplet_data(t):
    """A triplet as a ``file:`` object, on the axes of the stored tensors."""
    def _mat(m, rows, cols):
        return [[_coord(m.get((i, j))) for j in range(cols)] for i in range(rows)]

    return {
        "name": "kashaev2-file",
        **{slot: _algebra_data(t.algebra(slot), _coord) for slot in "ABC"},
        "tau_AB": _mat(t.tau_AB, t.A.dim, t.B.dim),
        "tau_BC": _mat(t.tau_BC, t.B.dim, t.C.dim),
        "tau_CA": _mat(t.tau_CA, t.C.dim, t.A.dim),
    }


def test_triplet_file(capsys, tmp_path):
    f = tmp_path / "triplet.json"
    f.write_text(json.dumps(_triplet_data(hopf.kashaev_triplet(2))))
    code, out, _ = run(capsys, "--json", "eval", "bracket", "--triplet", f"file:{f}", "s4")
    assert code == 0 and json.loads(out)["bracket"]["coords"] == ["64"]


def test_triplet_json_roundtrip():
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
    lambda d: d.update(name=5),                 # float_triplet appended " (float)" to it: a TypeError
])
def test_malformed_triplet_file_is_rejected(change):
    from trisect.errors import TrisectError

    data = _triplet_data(hopf.kashaev_triplet(2))
    change(data)
    with pytest.raises(TrisectError):
        hopf.triplet_from_json(data)


def test_group_table_cap_is_a_domain_error(capsys, monkeypatch):
    # a cap of 100 entries stands in for the real one, so no test builds a huge table
    from trisect import contraction

    monkeypatch.setattr(contraction, "DEFAULT_CAP", 100)
    code, _, err = run(capsys, "eval", "count", "--C", "Z/11", "--B", "Z/1", "cp2")
    assert code == 1 and err == "error: needs 121 entries in a group table (cap 100)\n"
    code, _, err = run(capsys, "eval", "invariant", "--triplet", "group:C=Z/5,B=Z/3", "cp2")
    assert code == 1 and err == "error: needs 225 entries in a group table (cap 100)\n"


def test_malformed_files_are_domain_errors(capsys, tmp_path):
    # a short basis used to load as a smaller algebra, and a pairing's shape went unchecked
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


@pytest.mark.parametrize("cmd, change", [
    ("validate", lambda d: d.update(genus=True)),
    ("validate", lambda d: d["crossings"][0].update(sign=True)),
    ("axioms", lambda d: d.update(dim=2.9)),
])
def test_non_integer_fields_are_domain_errors(capsys, tmp_path, cmd, change):
    # "genus": true passed strict validation, "sign": true read as +1 and "dim": 2.9 as 2
    if cmd == "validate":
        _, out, _ = run(capsys, "catalog", "cp2")
        data = json.loads(out)
    else:
        data = _triplet_data(hopf.kashaev_triplet(2))["B"]
    change(data)
    f = tmp_path / "data.json"
    f.write_text(json.dumps(data))
    argv = ("validate", "--strict", str(f)) if cmd == "validate" else ("axioms", "--algebra", f"file:{f}")
    code, _, err = run(capsys, *argv)
    assert code == 1 and err.startswith("error: ")


def test_weak_flag_takes_json_booleans_only(capsys, tmp_path):
    # "weak": "false" used to make the algebra weak
    f = tmp_path / "algebra.json"
    data = _triplet_data(hopf.kashaev_triplet(2))["B"]
    f.write_text(json.dumps({**data, "weak": "false"}))
    code, _, err = run(capsys, "axioms", "--algebra", f"file:{f}")
    assert code == 1 and err.startswith("error: bad structure-constant file") and "weak" in err
    f.write_text(json.dumps({**data, "weak": False}))
    code, out, _ = run(capsys, "axioms", "--algebra", f"file:{f}")
    assert code == 0 and out.startswith("H (dim 2)")


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


# ---------------------------------------------------------------------------
# cli.main on mutated input files and corrupted spec strings: every run exits
# 0, 1 or 2, exit 1 prints an "error:" line unless it reports a failed check,
# and no exception leaves main.  Group orders stay at most 12.

# the commands whose exit 1 may be a failed check's report on stdout
_REPORTS = ("validate", "axioms", "crosscheck")


def _check_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    if code == 1:
        cmd = next(a for a in argv if not a.startswith("--"))
        reported = err.getvalue() == "" and cmd in _REPORTS and out.getvalue()
        assert re.match(_ERROR, err.getvalue()) or reported, (argv, out.getvalue(), err.getvalue())


def _json_flag(draw, argv):
    """``argv`` with ``--json`` before the subcommand, after it, or not at all."""
    where = draw(st.sampled_from(("none", "before", "after")))
    return {"none": argv, "before": ["--json", *argv], "after": [*argv, "--json"]}[where]


def _paths(value, path=()):
    """The path of every value inside a decoded JSON value, the root included."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, (*path, key))


# a value of every JSON type, and ids and indices that point at nothing
_RETYPED = (None, True, 0, -1, 7, 2.5, "", "nowhere", [], {}, ["x"], {"x": 1})


@st.composite
def _mutated(draw, value):
    """``value`` after one to three edits, each dropping, retyping or repointing a field or item, or doubling an item."""
    def fresh(v):  # a copy, so that no edit reaches a shared value
        return json.loads(json.dumps(v))

    value = fresh(value)
    for _ in range(draw(st.integers(1, 3))):
        *path, key = draw(st.sampled_from(list(_paths(value)))) or (None,)
        if key is None:
            value = fresh(draw(st.sampled_from(_RETYPED)))
            continue
        parent = value
        for step in path:
            parent = parent[step]
        edit = draw(st.sampled_from(("drop", "retype", "double")))
        if edit == "drop":
            del parent[key]
        elif edit == "double" and isinstance(parent, list):
            parent.insert(key, fresh(parent[key]))
        else:
            parent[key] = fresh(draw(st.sampled_from(_RETYPED)))
    return value


def _fuzz_inputs():
    """(JSON value, the commands that read it as FILE) for each kind of input file."""
    triplet = _triplet_data(hopf.kashaev_triplet(2))
    on_diagram = [
        "validate FILE", "validate --strict FILE", "eval count --C Z/2 --B Z/3 FILE",
        "eval count --C Z/2 --B Z/2 --M cosets:(1,1) --boundary 1 FILE", "eval bracket --triplet kashaev:n=2 FILE",
        "eval invariant --triplet group:C=Z/2,B=Z/3 --backend float FILE", "crosscheck --triplet kashaev:n=3 FILE",
        "moves apply FILE --moves m.json",
    ]
    inputs = {name: (json.loads(diagram.serialize(build())), on_diagram) for name, build in diagram.CATALOG.items()}
    inputs["cp2-abstract"] = json.loads(diagram.serialize(diagram.cp2())), on_diagram
    inputs["triplet"] = triplet, ["eval bracket --triplet file:FILE cp2", "crosscheck --triplet file:FILE cp2",
                                  "eval invariant --triplet file:FILE --backend float cp2"]
    inputs["algebra"] = triplet["B"], ["axioms --algebra file:FILE"]
    inputs["gset"] = _GSET, ["eval count --C Z/2 --B Z/2 --M FILE cp2", "axioms --algebra weak:C=Z/2;B=Z/2;M=FILE",
                             "eval bracket --triplet weak:C=Z/2;B=Z/2;M=FILE cp2"]
    inputs["moves"] = json.loads(_FILES["m.json"]), ["moves apply cp2 --moves FILE"]
    return inputs


_FUZZ_INPUTS = _fuzz_inputs()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "m.json").write_text(_FILES["m.json"])
    return d


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mutated_files_end_in_an_exit_code(fuzz_dir, data):
    value, commands = _FUZZ_INPUTS[data.draw(st.sampled_from(sorted(_FUZZ_INPUTS)))]
    f = fuzz_dir / "input.json"
    f.write_text(json.dumps(data.draw(_mutated(value))))
    argv = shlex.split(data.draw(st.sampled_from(commands)).replace("FILE", str(f)).replace("m.json", str(fuzz_dir / "m.json")))
    _check_exit(_json_flag(data.draw, argv))


# C and B with |C| |B| <= 12, so K = C x B^op has order at most 12
_ORDER = {"Z/1": 1, "Z/2": 2, "Z/3": 3, "Z/4": 4, "Z/2xZ/2": 4, "S3": 6}
_PAIRS = [(c, b) for c in _ORDER for b in _ORDER if _ORDER[c] * _ORDER[b] <= 12]
# no digits: a corrupted spec names no larger group
_NOISE = st.sampled_from("ZzSsDdxX/:=,;()|-. nrcgpkwM")


@st.composite
def _corrupted(draw, spec):
    """``spec`` after up to three characters are inserted, deleted or replaced."""
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(spec)))
        edit = draw(st.sampled_from(("insert", "delete", "replace")))
        noise = draw(_NOISE) if edit != "delete" else ""
        spec = spec[:i] + noise + spec[i + (edit != "insert"):]
    return spec


@st.composite
def _spec_command(draw):
    """A command line with a triplet, algebra, group or G-set spec from the grammar, then corrupted."""
    c, b = draw(st.sampled_from(_PAIRS))
    m = draw(st.sampled_from(("point", "cosets:(1,1)", "cosets:(0,1)|(1,0)") + ("regular",) * (_ORDER[c] * _ORDER[b] <= 4)))
    n = draw(st.integers(0, 4))
    triplet = draw(st.sampled_from((f"kashaev:n={n}", f"group:C={c},B={b}", f"weak:C={c};B={b};M={m}")))
    algebra = draw(st.sampled_from((f"group:{c}", f"fun:{b}", f"double:kashaev:n={n}", f"weak:C={c};B={b};M={m}")))
    name = draw(st.sampled_from(sorted(diagram.CATALOG)))
    argv, at = draw(st.sampled_from((
        (["eval", "bracket", "--triplet", triplet, name], 3),
        (["eval", "invariant", "--triplet", triplet, "--backend", "float", name], 3),
        (["crosscheck", "--triplet", triplet, "cp2"], 2),
        (["axioms", "--algebra", algebra], 2),
        (["eval", "count", "--C", c, "--B", b, "--M", m, name], draw(st.sampled_from((3, 5, 7)))),
    )))
    argv[at] = draw(_corrupted(argv[at]))
    return _json_flag(draw, argv)


@settings(max_examples=150, deadline=None)
@given(_spec_command())
def test_corrupted_specs_end_in_an_exit_code(argv):
    _check_exit(argv)
