"""Command-line front end: list, show, verify, curvature, solve-linear,
search, and export over the built-in catalog.

Exit codes: 0 success / verification pass, 1 verification or search
failure, 2 usage error (bad flags, unknown entry, unreadable file).
Parameter bindings accept exact rationals only; floats live in `search`.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import catalog, geometry, solver
from .liealg import LieAlgebra
from .scalar import SQRT2_NAME, ZERO, ParamBinding, Scalar, parse_expr
from .tensors import TwoForm


class UsageError(Exception):
    """Command cannot run as invoked; maps to exit code 2."""


class VerificationFailure(Exception):
    """A stored structure fails a check the command needs; maps to exit code 1."""


_RATIONAL = re.compile(r"-?\d+(/\d+)?")


# -- LaTeX ----------------------------------------------------------------


def _latex_name(name: str) -> str:
    if name.startswith("psi") and name[3:].isdigit():
        return rf"\psi_{{{name[3:]}}}"
    if name == "lambda":
        return r"\lambda"
    if name == SQRT2_NAME:
        return r"\sqrt{2}"
    return name


def _latex_poly(poly) -> str:
    if not poly:
        return "0"
    names = poly.ring._scalar_names
    pieces = []
    for k, (monom, coeff) in enumerate(poly.terms()):
        c = int(coeff)
        mag = abs(c)
        factors = []
        for i, e in enumerate(monom):
            if not e:
                continue
            base = _latex_name(names[i])
            factors.append(base if e == 1 else f"{base}^{e}" if e < 10 else f"{base}^{{{e}}}")
        body = "".join(factors) if factors else str(mag)
        if factors and mag != 1:
            body = f"{mag}{body}"
        if k == 0:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+{body}" if c > 0 else f"-{body}")
    return "".join(pieces)


def latex_scalar(x: Scalar) -> str:
    """Render as LaTeX; an all-negative numerator puts the minus outside."""
    num = x._num
    den = x._den
    if den == 1:
        return _latex_poly(num)
    sign = ""
    terms = num.terms()
    if terms and all(int(c) < 0 for _, c in terms):
        num = -num
        sign = "-"
    return sign + r"\frac{" + _latex_poly(num) + "}{" + _latex_poly(den) + "}"


def latex_matrix(rows) -> str:
    body = r" \\ ".join(
        " & ".join(latex_scalar(x) for x in row) for row in rows
    )
    return r"\begin{bmatrix} " + body + r" \end{bmatrix}"


# -- shared helpers -------------------------------------------------------


def _entry(name: str) -> catalog.CatalogEntry:
    try:
        return catalog.get(name)
    except KeyError as exc:
        raise UsageError(str(exc.args[0])) from exc
    except OSError as exc:
        raise UsageError(f"cannot load catalog entry {name}: {exc}") from exc
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_binding(pairs: list[str], allowed: frozenset[str]) -> ParamBinding:
    values = {}
    for item in pairs:
        name, eq, txt = item.partition("=")
        if not eq or not name or not txt:
            raise UsageError(f"binding must look like name=value, got {item!r}")
        if name not in allowed:
            raise UsageError(
                f"unknown parameter {name!r}; family parameters: "
                f"{', '.join(sorted(allowed)) or 'none'}")
        if name in values:
            raise UsageError(f"parameter {name!r} is bound twice")
        if not _RATIONAL.fullmatch(txt):
            raise UsageError(
                f"not an exact rational: {item!r} (use n or n/m, no floats)")
        try:
            values[name] = Fraction(txt)
        except ZeroDivisionError as exc:
            raise UsageError(f"zero denominator in {item!r}") from exc
    return ParamBinding(values)


def _check_side_conditions(
    conditions, binding: ParamBinding
) -> list[str]:
    """Evaluate nonvanishing constraints; fully bound zeros are errors."""
    texts = []
    for cond in conditions:
        sc = parse_expr(cond) if isinstance(cond, str) else cond
        bound = sc.substitute(binding)
        if bound.is_zero():
            raise UsageError(f"binding violates side condition {cond} != 0")
        texts.append(f"{cond} != 0")
    return texts


def _full_curvature(e: catalog.CatalogEntry, s: catalog.StructureEntry):
    """``geometry.full_curvature`` of a stored structure; no metric is a failure."""
    try:
        return geometry.full_curvature(e.algebra, e.form(s.form_id).form, s.J)
    except ValueError as exc:
        raise VerificationFailure(f"{e.name} {s.id} on {s.form_id}: {exc}") from exc


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc


def _form_idx(idx) -> str:
    i, j, k, l = idx
    return f"R_{{{i},{j},{k},{l}}}"


# -- commands -------------------------------------------------------------


def cmd_list(args) -> int:
    for name in catalog.NAMES:
        print(f"{name}  type {_entry(name).algebra_type}")
    return 0


def cmd_show(args) -> int:
    e = _entry(args.name)
    print(f"{e.name}  type {e.algebra_type}")
    print("brackets:")
    for b in e.algebra.to_json_dict()["brackets"]:
        coeff = "" if b["c"] == "1" else f"{b['c']}*"
        print(f"  [e{b['i']}, e{b['j']}] = {coeff}e{b['k']}")
    print("forms:")
    for f in e.forms:
        terms = ", ".join(
            f"({t['i']},{t['j']}): {t['c']}" for t in f.form.to_json_dict()["terms"]
        )
        extra = f"  side: {', '.join(f.side_conditions)}" if f.side_conditions else ""
        print(f"  {f.id} admits_J={f.admits_J}  [{terms}]{extra}")
    print("structures:")
    for s in e.structures:
        side = ", ".join(f"{c} != 0" for c in s.side_conditions) or "none"
        print(f"  {s.id} on {s.form_id}  params: {', '.join(s.params) or 'none'}  side: {side}")
    print(f"notes: {e.notes}")
    return 0


def _expectation_lines(
    e: catalog.CatalogEntry, s: catalog.StructureEntry, passed: dict[str, bool]
) -> list[str]:
    """The stored curvature claims of ``s``, each with its verdict.

    A down component reads "matched" when it equals the computed one, else
    the computed value; a computed component the data lacks is listed too.
    Claims of a structure whose residual checks failed are "not checked".
    """
    down_ok = passed.get(f"{s.id} down components")
    got = {}
    if down_ok is False:
        _, _, curv = _full_curvature(e, s)
        got = catalog._component_table(geometry.nonzero_down_components(curv))
    lines = []
    for idx, txt in sorted(s.expected.down_components.items()):
        value = got.get(idx, ZERO)
        if down_ok is None:
            verdict = "not checked"
        elif down_ok or (value - parse_expr(txt)).is_zero():
            verdict = "matched"
        else:
            verdict = f"computed {value}"
        lines.append(f"       {s.id} {_form_idx(idx)} = {txt}: {verdict}")
    for idx in sorted(set(got) - set(s.expected.down_components)):
        lines.append(f"       {s.id} {_form_idx(idx)} = {got[idx]}: not in the data")
    if s.expected.flat:
        flat = passed.get(f"{s.id} flat")
        verdict = "not checked" if flat is None else "matched" if flat else "not matched"
        lines.append(f"       {s.id} curvature identically zero: {verdict}")
    return lines


def _verify_entry(e: catalog.CatalogEntry, form_id: str | None) -> tuple[int, list[str]]:
    validation = catalog.validate_entry(e)
    keep_ids = None
    if form_id is not None:
        e.form(form_id)  # raises KeyError for unknown ids
        keep_ids = {form_id} | {s.id for s in e.structures if s.form_id == form_id}
    lines = []
    failed = 0
    for label, ok in validation.checks:
        head = label.split(" ", 1)[0]
        if keep_ids is not None and head != "jacobi" and head not in keep_ids:
            continue
        lines.append(f"  {'ok  ' if ok else 'FAIL'} {label}")
        failed += 0 if ok else 1
    for s in e.structures:
        if keep_ids is not None and s.id not in keep_ids:
            continue
        if s.expected is None:
            continue
        lines.extend(_expectation_lines(e, s, dict(validation.checks)))
        if s.side_conditions:
            lines.append(
                "       " + s.id + " side conditions: "
                + ", ".join(f"{c} != 0" for c in s.side_conditions))
    return failed, lines


def cmd_verify(args) -> int:
    if args.all == (args.name is not None) or (args.all and args.form is not None):
        raise UsageError("verify takes an entry name, optionally with --form, or --all alone")
    total_failed = 0
    for name in catalog.NAMES if args.all else [args.name]:
        e = _entry(name)
        try:
            failed, lines = _verify_entry(e, args.form)
        except KeyError as exc:
            raise UsageError(str(exc.args[0])) from exc
        plural = "s" if failed != 1 else ""
        status = "pass" if failed == 0 else f"FAIL ({failed} check{plural})"
        print(f"{name}: {status}")
        for line in lines:
            print(line)
        total_failed += failed
    return 0 if total_failed == 0 else 1


def cmd_curvature(args) -> int:
    e = _entry(args.name)
    try:
        fe = e.form(args.form)
    except KeyError as exc:
        raise UsageError(str(exc.args[0])) from exc
    structures = [s for s in e.structures if s.form_id == fe.id]
    if args.structure is not None:
        structures = [s for s in structures if s.id == args.structure]
        if not structures:
            raise UsageError(f"no structure {args.structure!r} on {e.name}/{fe.id}")
    if not structures:
        raise UsageError(f"{e.name}/{fe.id} carries no verified structure")
    reports = []
    for s in structures:
        binding = _parse_binding(args.bind, frozenset(s.params))
        _check_side_conditions(s.side_conditions, binding)
        _, _, curv = _full_curvature(e, s)
        if binding:
            curv = curv.substitute(binding)
        report = geometry.curvature_report(curv)
        if binding:
            report["binding"] = {k: str(v) for k, v in sorted(binding.items())}
        report["entry"] = e.name
        report["form"] = fe.id
        report["structure"] = s.id
        report["side_conditions"] = list(s.side_conditions)
        reports.append(report)
    print(json.dumps(reports if len(reports) > 1 else reports[0], indent=1))
    return 0


def cmd_solve_linear(args) -> int:
    obj = _load_json(args.form_file)
    try:
        w = TwoForm.from_json_dict(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad form file: {exc}") from exc
    solution = solver.compat_nullspace(w)
    print(json.dumps({
        "dimension": solution.dimension,
        "side_conditions": [str(c) for c in solution.side_conditions],
    }, indent=1))
    return 0


def cmd_search(args) -> int:
    alg_obj = _load_json(args.algebra_file)
    form_obj = _load_json(args.form_file)
    try:
        alg = LieAlgebra.from_json_dict(alg_obj)
        w = TwoForm.from_json_dict(form_obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad input file: {exc}") from exc
    try:
        result = solver.newton_search(
            alg, w, tolerance=args.tol, max_starts=args.starts, seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    print(json.dumps(solver.search_report(result), indent=1))
    return 0 if result.converged else 1


def cmd_export(args) -> int:
    e = _entry(args.name)
    if args.format == "json":
        path = os.path.join(catalog._data_dir(), f"{e.name}.json")
        with open(path) as fh:
            sys.stdout.write(fh.read())
        return 0
    if args.format == "csv":
        print("entry,form,structure,kind,idx,value")
        for s in e.structures:
            if s.expected is None:
                continue
            for idx, txt in sorted(s.expected.up_components.items()):
                print(f"{e.name},{s.form_id},{s.id},up,{' '.join(map(str, idx))},\"{txt}\"")
            for idx, txt in sorted(s.expected.down_components.items()):
                print(f"{e.name},{s.form_id},{s.id},down,{' '.join(map(str, idx))},\"{txt}\"")
        return 0
    # latex; every metric is built before anything is printed
    curvatures = [_full_curvature(e, s) for s in e.structures]
    for s, (metric, _, curv) in zip(e.structures, curvatures):
        print(f"% {e.name} {s.id} on {s.form_id}")
        print(r"\[ J = " + latex_matrix(s.J.rows) + r" \]")
        print(r"\[ g = " + latex_matrix(metric.g) + r" \]")
        downs = geometry.nonzero_down_components(curv)
        if not downs:
            print(r"\[ R \equiv 0 \]")
        for idx, v in downs:
            one_based = tuple(t + 1 for t in idx)
            print(r"\[ " + _form_idx(one_based) + " = " + latex_scalar(v) + r" \]")
    return 0


# -- entry point ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilkaehler",
        description="Exact pseudo-Kahler structures on six-dimensional "
                    "nilpotent Lie algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="catalog names with algebra types")

    p = sub.add_parser("show", help="one entry: brackets, forms, structures")
    p.add_argument("name")

    p = sub.add_parser("verify", help="recompute all invariants for an entry")
    p.add_argument("name", nargs="?")
    p.add_argument("--form", help="restrict to one form id")
    p.add_argument("--all", action="store_true", help="verify every entry")

    p = sub.add_parser("curvature", help="curvature report for a family")
    p.add_argument("name")
    p.add_argument("--form", required=True)
    p.add_argument("--structure", help="structure id (default: all on the form)")
    p.add_argument("--bind", nargs="*", default=[], metavar="name=value",
                   help="exact rational parameter values")

    p = sub.add_parser("solve-linear",
                       help="exact nullspace of the compatibility system")
    p.add_argument("form_file")

    p = sub.add_parser("search", help="seeded Newton probe for a compatible J")
    p.add_argument("algebra_file")
    p.add_argument("form_file")
    p.add_argument("--starts", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("export", help="entry data as json, csv, or latex")
    p.add_argument("name")
    p.add_argument("--format", required=True, choices=("json", "csv", "latex"))
    return parser


COMMANDS = {
    "list": cmd_list,
    "show": cmd_show,
    "verify": cmd_verify,
    "curvature": cmd_curvature,
    "solve-linear": cmd_solve_linear,
    "search": cmd_search,
    "export": cmd_export,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep both
        return int(exc.code or 0)
    try:
        return COMMANDS[args.command](args)
    except (UsageError, VerificationFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
