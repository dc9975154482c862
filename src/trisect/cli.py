"""Command-line interface: validate, catalog, eval, moves, axioms, selftest.

Exit codes: 0 success, 1 domain error, 2 usage error.  ``--json`` output is
deterministic (no timings, sorted keys) so identical invocations produce
byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import acceptance, bracket, diagram, hopf, labelcount, moves
from .contraction import DEFAULT_CAP
from .errors import TrisectError
from .groups import WeakConfig, bimodule_group, coset_gset, gset_from_json, parse_group, point_gset, regular_gset
from .scalars import Cyc, render, to_complex


def _load_diagram(arg: str, strict: bool = False):
    """Resolve a catalog name or file path; read a file strictly when asked."""
    if arg in diagram.CATALOG:
        return diagram.CATALOG[arg]()
    if not Path(arg).exists():
        raise TrisectError(f"no catalog entry or file named {arg!r}")
    return diagram.from_json(_read_json(arg), strict=strict)


def _read_json(path) -> object:
    """The JSON value in the file at ``path``; a file that cannot be read or decoded is a domain error."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise TrisectError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # json.JSONDecodeError or UnicodeDecodeError
        raise TrisectError(f"{path} is not valid JSON: {exc}") from exc


def _write_text(path, text: str) -> None:
    """Write ``text`` to the file at ``path``; a file that cannot be written is a domain error."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise TrisectError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _base(d):
    return d.base if isinstance(d, diagram.EmbeddedDiagram) else d


def _spec_params(spec: str, prefix: str, sep: str, **defaults: str | None) -> dict[str, str]:
    """The ``key=value`` parameters of ``spec`` after ``prefix``, split at ``sep``.

    Only the keys of ``defaults`` may appear, each at most once, and those
    whose default is ``None`` must; anything else is a domain error.
    """
    params = {}
    for part in spec[len(prefix):].split(sep):
        key, eq, value = part.partition("=")
        if not eq or key not in defaults:
            raise TrisectError(f"bad parameter {part!r} in {spec!r}; use {sep.join(k + '=...' for k in defaults)}")
        if key in params:
            raise TrisectError(f"the parameter {key} is given twice in {spec!r}")
        params[key] = value
    for key, default in defaults.items():
        if params.setdefault(key, default) is None:
            raise TrisectError(f"{spec!r} is missing the parameter {key}=...")
    return params


def _kashaev(spec: str, prefix: str) -> hopf.HopfTriplet:
    n = _spec_params(spec, prefix, ",", n=None)["n"]
    if not n.isdecimal():
        raise TrisectError(f"n={n!r} in {spec!r} is not a decimal integer")
    return hopf.kashaev_triplet(int(n))


def _weak_action(spec: str):
    """The groups C, B and the G-set M of a ``weak:C=G;B=G[;M=SPEC]`` spec."""
    params = _spec_params(spec, "weak:", ";", C=None, B=None, M="point")
    c, b = parse_group(params["C"]), parse_group(params["B"])
    return c, b, _parse_gset(params["M"], c, b)


def parse_triplet(spec: str, backend: str = "exact") -> hopf.HopfTriplet:
    if spec.startswith("kashaev:"):
        t = _kashaev(spec, "kashaev:")
    elif spec.startswith("group:"):
        params = _spec_params(spec, "group:", ",", C=None, B=None)
        t = hopf.group_triplet(parse_group(params["C"]), parse_group(params["B"]))
    elif spec.startswith("weak:"):
        t = hopf.weak_triplet(*_weak_action(spec))
    elif spec.startswith("file:"):
        t = hopf.triplet_from_json(_read_json(spec[len("file:"):]))
    else:
        raise TrisectError(f"unknown triplet spec {spec!r}; use kashaev:n=3, group:C=Z/2,B=Z/3, or file:PATH")
    if backend == "float":
        t = hopf.float_triplet(t)
    return t


def _parse_gset(spec: str, c_group, b_group):
    k = bimodule_group(c_group, b_group)
    if spec == "point":
        return point_gset(k)
    if spec == "regular":
        return regular_gset(k)
    if spec.startswith("cosets:"):
        names = [s.strip() for s in spec[len("cosets:"):].split("|")]
        idx = {lab: i for i, lab in enumerate(k.labels)}
        try:
            gens = [idx[n] for n in names]
        except KeyError as exc:
            raise TrisectError(f"unknown element {exc.args[0]!r} of {k.name}; labels are {list(k.labels)}")
        return coset_gset(k, gens)
    if Path(spec).exists():
        return gset_from_json(k, _read_json(spec))
    raise TrisectError(f"unknown G-set spec {spec!r}; use point, regular, cosets:(c,b)|..., or a file path")


def _criteria(text: str) -> set[int]:
    """The criterion numbers in a comma-separated list; anything else is a usage error."""
    known = {num for num, _, _ in acceptance.CRITERIA}
    parts = text.split(",")
    if not all(p.strip().isdecimal() and int(p) in known for p in parts):
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated list of criteria 1-{max(known)}")
    return {int(p) for p in parts}


def _cap(text: str) -> int:
    """The ``--cap`` value, a count of entries; a negative number or a non-integer is a usage error."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"{text!r} is not a count of entries")
    return int(text)


def _scalar_json(x):
    z = to_complex(x)
    out = {"approx": [z.real, z.imag]}
    if isinstance(x, Cyc):
        out["level"] = x.level
        out["coords"] = [str(c) for c in x.coords]
    return out


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def main(argv: list[str] | None = None) -> int:
    # every parser takes --json, so it may follow any subcommand; SUPPRESS keeps one from resetting it
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--json", action="store_true", default=argparse.SUPPRESS, help="machine-readable output")
    ap = argparse.ArgumentParser(prog="trisect", description="trisection diagram invariants", parents=[flags])
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate", parents=[flags], help="check diagram invariants")
    p.add_argument("diagram")
    p.add_argument("--strict", action="store_true")

    p = sub.add_parser("catalog", parents=[flags], help="list or emit built-in diagrams")
    p.add_argument("name", nargs="?")

    cap_help = ("bound on the nonzero entries that each pairwise contraction step keeps; a step stops at the "
                "first count over it (default %(default)s)")

    p = sub.add_parser("eval", parents=[flags], help="evaluate an invariant")
    ev = p.add_subparsers(dest="what", required=True)
    for what in ("bracket", "invariant"):
        q = ev.add_parser(what, parents=[flags])
        q.add_argument("diagram")
        q.add_argument("--triplet", required=True)
        q.add_argument("--backend", choices=("exact", "float"), default="exact")
        q.add_argument("--evaluator", choices=("element", "rep"), default="element")
        q.add_argument("--cap", type=_cap, default=DEFAULT_CAP, help=cap_help)
        if what == "invariant":
            q.add_argument("--all-roots", action="store_true")
    q = ev.add_parser("count", parents=[flags])
    q.add_argument("diagram")
    q.add_argument("--C", required=True)
    q.add_argument("--B", required=True)
    q.add_argument("--M", default="point")
    q.add_argument("--boundary", type=int, default=None)

    p = sub.add_parser("moves", parents=[flags], help="apply a list of moves")
    mv = p.add_subparsers(dest="what", required=True)
    q = mv.add_parser("apply", parents=[flags])
    q.add_argument("diagram")
    q.add_argument("--moves", required=True, help="JSON file with a list of move specs")
    q.add_argument("--out", default=None)

    p = sub.add_parser("axioms", parents=[flags], help="check Hopf axioms of an algebra")
    p.add_argument("--algebra", required=True,
                   help="group:G, fun:G, double:kashaev:n=N, weak:C=G;B=G[;M=SPEC], or file:PATH")

    p = sub.add_parser("crosscheck", parents=[flags], help="element vs representation backend")
    p.add_argument("diagram")
    p.add_argument("--triplet", required=True)
    p.add_argument("--backend", choices=("exact", "float"), default="exact")
    p.add_argument("--cap", type=_cap, default=DEFAULT_CAP, help=cap_help)

    p = sub.add_parser("selftest", parents=[flags], help="run the acceptance criteria")
    p.add_argument("--only", type=_criteria, default=None, help="comma-separated criterion numbers")

    args = ap.parse_args(argv, argparse.Namespace(json=False))
    try:
        code = _dispatch(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except TrisectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout early (``trisect ... | head -1``): point
        # stdout at devnull, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _dispatch(args) -> int:
    if args.cmd == "validate":
        d = _load_diagram(args.diagram, strict=args.strict)
        if isinstance(d, diagram.EmbeddedDiagram):
            rep = diagram.validate_embedded(d, strict=args.strict)
        else:
            rep = diagram.validate(d, strict=args.strict)
        payload = {
            "ok": rep.ok,
            "violations": [{"code": v.code, "message": v.message, "where": v.where} for v in rep.violations],
        }
        _emit(args, payload, str(rep))
        return 0 if rep.ok else 1

    if args.cmd == "catalog":
        if args.name is None:
            names = sorted(diagram.CATALOG)
            _emit(args, {"catalog": names}, "\n".join(names))
            return 0
        text = diagram.serialize(_load_diagram(args.name))
        if args.json:
            print(json.dumps(json.loads(text), sort_keys=True))
        else:
            print(text, end="")
        return 0

    if args.cmd == "eval":
        return _dispatch_eval(args)

    if args.cmd == "moves":
        d = _load_diagram(args.diagram)
        specs = _read_json(args.moves)
        if not isinstance(specs, list):
            raise TrisectError("the moves file must contain a JSON list")
        base = _base(d)
        rep = diagram.validate(base)
        if not rep.ok:  # the moves assume a consistent diagram
            raise TrisectError(f"invalid diagram: {rep}")
        for entry in specs:
            base = moves.apply_move(base, moves.MoveSpec.from_json(entry))
        out = diagram.serialize(base)
        if args.out:
            _write_text(args.out, out)
            _emit(args, {"written": args.out, "genus": base.genus}, f"wrote {args.out} (genus {base.genus})")
        elif args.json:
            print(json.dumps(json.loads(out), sort_keys=True))
        else:
            print(out, end="")
        return 0

    if args.cmd == "axioms":
        return _dispatch_axioms(args)

    if args.cmd == "crosscheck":
        t = parse_triplet(args.triplet, args.backend)
        d = _base(_load_diagram(args.diagram))
        rep = bracket.cross_check(d, bracket.BracketConfig(t, contraction_cap=args.cap))
        _emit(args, {"ok": rep.ok, "details": rep.details}, str(rep))
        return 0 if rep.ok else 1

    # selftest, the one command left
    results = acceptance.run_all(args.only)
    ok = all(r.ok for r in results)
    if args.json:
        payload = [
            {"criterion": r.number, "name": r.name, "ok": r.ok, "detail": r.detail}
            for r in results
        ]
        print(json.dumps(payload, sort_keys=True))
    else:
        for r in results:
            print(r.line())
        print("selftest:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def _dispatch_eval(args) -> int:
    if args.what == "count":
        e = _load_diagram(args.diagram)
        c_group, b_group = parse_group(args.C), parse_group(args.B)
        cfg = WeakConfig(c_group, b_group, _parse_gset(args.M, c_group, b_group))
        if isinstance(e, diagram.EmbeddedDiagram) and e.base.kind == "disc":
            # a disc's count fixes the boundary label; its invariant counts the base's curve labellings
            count = labelcount.count_admissible(e, cfg, boundary_label=args.boundary or 0)
            inv = labelcount.group_count_invariant(e.base, cfg)
        elif args.boundary is not None:
            raise TrisectError(f"boundary label {args.boundary} given, but the diagram has no boundary region")
        else:
            inv = labelcount.group_count_invariant(e, cfg)
            count = int(inv.coeff.as_fraction())
        payload = {
            "count": count,
            "invariant": _scalar_json(inv.approx()),
            "genus": inv.genus,
        }
        _emit(args, payload, f"l={count}, invariant={render(inv.approx())}")
        return 0

    t = parse_triplet(args.triplet, args.backend)
    d = _base(_load_diagram(args.diagram))
    cfg = bracket.BracketConfig(t, evaluator=args.evaluator, contraction_cap=args.cap)
    if args.what == "bracket":
        val = bracket.trisection_bracket(d, cfg)
        _emit(args, {"bracket": _scalar_json(val)}, f"bracket = {render(val)}")
        return 0
    inv = bracket.invariant(d, cfg)
    payload = {
        "coeff": _scalar_json(inv.coeff),
        "stab_bracket": _scalar_json(inv.base),
        "genus": inv.genus,
        "value": _scalar_json(inv.approx()),
    }
    text = f"invariant = {render(inv.approx())} (= {render(inv.coeff)} x <S4>^(-g/3), g={inv.genus})"
    if args.all_roots:
        payload["all_roots"] = [[z.real, z.imag] for z in inv.all_roots()]
        text += "\n  roots: " + ", ".join(render(z) for z in inv.all_roots())
    _emit(args, payload, text)
    return 0


def _dispatch_axioms(args) -> int:
    spec = args.algebra
    if spec.startswith("group:"):
        h = hopf.group_algebra(parse_group(spec[len("group:"):]))
    elif spec.startswith("fun:"):
        h = hopf.function_algebra(parse_group(spec[len("fun:"):]))
    elif spec.startswith("double:kashaev:"):
        t = _kashaev(spec, "double:kashaev:")
        h = hopf.generalized_double(t.C, t.A, t.tau_CA)
    elif spec.startswith("weak:"):
        h, _ = hopf.weak_hopf_from_action(_weak_action(spec)[2])
    elif spec.startswith("file:"):
        h = hopf.algebra_from_json(_read_json(spec[len("file:"):]))
    else:
        raise TrisectError(f"unknown algebra spec {spec!r}")
    rep = hopf.check_hopf_axioms(h)
    worst = max(rep.values())
    payload = {"algebra": h.name, "dim": h.dim, "weak": h.weak, "residuals": rep, "ok": worst == 0.0}
    text = f"{h}\n" + "\n".join(f"  {k}: {v}" for k, v in rep.items())
    _emit(args, payload, text)
    return 0 if worst == 0.0 else 1


if __name__ == "__main__":
    sys.exit(main())
