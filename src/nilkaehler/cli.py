"""Command-line front end: list, show, verify, curvature, solve-linear,
search, and export over the built-in catalog.

Exit codes: 0 success / verification pass, 1 verification or search
failure, 2 usage error (bad flags, unknown entry, unreadable file).
Parameter bindings accept exact rationals only; floats live in `search`.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog, geometry, solver, tensors
from .scalar import ZERO, ParamBinding


class UsageError(Exception):
    """Command cannot run as invoked; maps to exit code 2."""


class VerificationFailure(Exception):
    """A stored structure fails a check the command needs; maps to exit code 1."""


# -- LaTeX ----------------------------------------------------------------


def latex_matrix(rows) -> str:
    body = r" \\ ".join(
        " & ".join(x.latex() for x in row) for row in rows
    )
    return r"\begin{bmatrix} " + body + r" \end{bmatrix}"


# -- shared helpers -------------------------------------------------------


def _entry(name: str, form_id: str | None = None) -> catalog.CatalogEntry:
    """The catalog entry ``name``, restricted to ``form_id`` when one is given."""
    try:
        e = catalog.get(name)
        return e if form_id is None else e.only(form_id)
    except KeyError as exc:
        raise UsageError(str(exc.args[0])) from exc
    except OSError as exc:
        raise UsageError(f"cannot load catalog entry {name}: {exc}") from exc
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_binding(pairs: list[str], allowed: frozenset[str]) -> ParamBinding:
    """The binding of ``pairs``, each ``name=value`` with a name in ``allowed``;
    ``ParamBinding`` reads the values."""
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
        values[name] = txt
    try:
        return ParamBinding(values)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _full_curvature(
    e: catalog.CatalogEntry, s: catalog.StructureEntry, binding: ParamBinding | None = None
):
    """``geometry.full_curvature`` of a stored structure, at ``binding`` when
    one is given; no metric is a failure."""
    w, J = e.form(s.form_id).form, s.J
    if binding:
        w, J = w.substitute(binding), J.substitute(binding)
    try:
        return geometry.full_curvature(e.algebra, w, J)
    except ValueError as exc:
        raise VerificationFailure(f"{e.name} {s.id} on {s.form_id}: {exc}") from exc


def _read(path: str, kind: str, what: str):
    """``catalog.read_input``; a file that cannot be read, parsed or built is
    a usage error."""
    try:
        return catalog.read_input(path, kind, what)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _nonzero(conditions) -> str:
    return ", ".join(f"{c} != 0" for c in conditions)


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
    for (i, j, k), c in sorted(e.algebra.constants.items()):
        if i < j:
            coeff = {"1": "", "-1": "-"}.get(str(c), f"{c}*")
            print(f"  [e{i + 1}, e{j + 1}] = {coeff}e{k + 1}")
    print("forms:")
    for f in e.forms:
        terms = ", ".join(f"({i + 1},{j + 1}): {c}" for i, row in enumerate(f.form.omega)
                          for j, c in enumerate(row) if j > i and not c.is_zero())
        extra = f"  side: {_nonzero(f.side_conditions)}" if f.side_conditions else ""
        print(f"  {f.id} admits_J={f.admits_J}  [{terms}]{extra}")
    print("structures:")
    for s in e.structures:
        side = _nonzero(s.side_conditions) or "none"
        print(f"  {s.id} on {s.form_id}  params: {', '.join(s.params) or 'none'}  side: {side}")
    print(f"notes: {e.notes}")
    return 0


def _expectation_lines(
    s: catalog.StructureEntry, passed: dict[str, bool], got: dict
) -> list[str]:
    """The stored curvature claims of ``s``, each with its verdict against
    ``got``, the computed nonzero R_ijkl.

    A down component reads "matched" when its stored text is the computed
    value's canonical text, else the computed value; a computed component
    the data lacks is listed too.  Two empty tables claim R = 0, whose
    verdict is that of the up components.
    Claims of a structure whose residual checks failed are "not checked".
    """
    down_ok = passed.get(f"{s.id} down components")
    lines = []
    for idx, txt in sorted(s.expected.down_components.items()):
        value = got.get(idx, ZERO)
        if down_ok is None:
            verdict = "not checked"
        elif down_ok or str(value) == txt:
            verdict = "matched"
        else:
            verdict = f"computed {value}"
        lines.append(f"       {s.id} {_form_idx(idx)} = {txt}: {verdict}")
    for idx in sorted(set(got) - set(s.expected.down_components)):
        lines.append(f"       {s.id} {_form_idx(idx)} = {got[idx]}: not in the data")
    if not s.expected.up_components and not s.expected.down_components:
        flat = passed.get(f"{s.id} up components")
        verdict = "not checked" if flat is None else "matched" if flat else "not matched"
        lines.append(f"       {s.id} curvature identically zero: {verdict}")
    return lines


def _verify_entry(e: catalog.CatalogEntry) -> tuple[int, list[str]]:
    validation = catalog.validate_entry(e)
    passed = dict(validation.checks)
    lines = [f"  {'ok  ' if ok else 'FAIL'} {label}" for label, ok in validation.checks]
    for s in e.structures:
        lines.extend(_expectation_lines(s, passed, validation.down_components.get(s.id, {})))
        if s.side_conditions:
            lines.append(f"       {s.id} side conditions: {_nonzero(s.side_conditions)}")
    return len(validation.failures()), lines


def cmd_verify(args) -> int:
    if args.all == (args.name is not None) or (args.all and args.form is not None):
        raise UsageError("verify takes an entry name, optionally with --form, or --all alone")
    total_failed = 0
    for name in catalog.NAMES if args.all else [args.name]:
        failed, lines = _verify_entry(_entry(name, args.form))
        plural = "s" if failed != 1 else ""
        status = "pass" if failed == 0 else f"FAIL ({failed} check{plural})"
        print(f"{name}: {status}")
        for line in lines:
            print(line)
        total_failed += failed
    return 0 if total_failed == 0 else 1


def cmd_curvature(args) -> int:
    e = _entry(args.name, args.form)
    structures = [s for s in e.structures if args.structure in (None, s.id)]
    if args.structure is not None and not structures:
        raise UsageError(f"no structure {args.structure!r} on {e.name}/{args.form}")
    if not structures:
        raise UsageError(f"{e.name}/{args.form} carries no verified structure")
    # each structure takes the names of the binding that are its own
    binding = _parse_binding(args.bind, frozenset().union(*(s.params for s in structures)))
    reports = []
    for s in structures:
        own = ParamBinding({k: v for k, v in binding.items() if k in s.params})
        vanishing = s.vanishing(own)
        if vanishing is not None:
            raise UsageError(f"binding violates side condition {vanishing} != 0")
        _, _, curv = _full_curvature(e, s, own)
        report = geometry.curvature_report(curv)
        if own:
            report["binding"] = {k: str(v) for k, v in sorted(own.items())}
        report["entry"] = e.name
        report["form"] = args.form
        report["structure"] = s.id
        report["side_conditions"] = list(s.side_conditions)
        reports.append(report)
    print(json.dumps(reports if len(reports) > 1 else reports[0], indent=1))
    return 0


def cmd_solve_linear(args) -> int:
    solution = solver.compat_nullspace(_read(args.form_file, "form", "form"))
    print(json.dumps({
        "dimension": solution.dimension,
        "side_conditions": [str(c) for c in solution.side_conditions],
    }, indent=1))
    return 0


def cmd_search(args) -> int:
    alg = _read(args.algebra_file, "algebra", "input")
    w = _read(args.form_file, "form", "input")
    if not tensors.nondegenerate(w):
        raise UsageError(f"the form {w!r} is degenerate")
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
        # the file as it is, whatever the locale's encoding
        sys.stdout.flush()
        sys.stdout.buffer.write(catalog.entry_bytes(e.name))
        return 0
    if args.format == "csv":
        print("entry,form,structure,kind,idx,value")
        for s in e.structures:
            for kind, table in (("up", s.expected.up_components),
                                ("down", s.expected.down_components)):
                for idx, txt in sorted(table.items()):
                    print(f"{e.name},{s.form_id},{s.id},{kind},{' '.join(map(str, idx))},\"{txt}\"")
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
            print(r"\[ " + _form_idx(one_based) + " = " + v.latex() + r" \]")
    return 0


# -- entry point ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilkaehler",
        description="Exact pseudo-Kahler structures on six-dimensional "
                    "nilpotent Lie algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="catalog names with algebra types").set_defaults(run=cmd_list)

    p = sub.add_parser("show", help="one entry: brackets, forms, structures")
    p.set_defaults(run=cmd_show)
    p.add_argument("name")

    p = sub.add_parser("verify", help="recompute all invariants for an entry")
    p.set_defaults(run=cmd_verify)
    p.add_argument("name", nargs="?")
    p.add_argument("--form", help="restrict to one form id")
    p.add_argument("--all", action="store_true", help="verify every entry")

    p = sub.add_parser("curvature", help="curvature report for a family")
    p.set_defaults(run=cmd_curvature)
    p.add_argument("name")
    p.add_argument("--form", required=True)
    p.add_argument("--structure", help="structure id (default: all on the form)")
    p.add_argument("--bind", nargs="*", default=[], metavar="name=value",
                   help="exact rational parameter values")

    p = sub.add_parser("solve-linear",
                       help="exact nullspace of the compatibility system")
    p.set_defaults(run=cmd_solve_linear)
    p.add_argument("form_file")

    p = sub.add_parser("search", help="seeded Newton probe for a compatible J")
    p.set_defaults(run=cmd_search)
    p.add_argument("algebra_file")
    p.add_argument("form_file")
    p.add_argument("--starts", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("export", help="entry data as json, csv, or latex")
    p.set_defaults(run=cmd_export)
    p.add_argument("name")
    p.add_argument("--format", required=True, choices=("json", "csv", "latex"))
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep both
        return int(exc.code or 0)
    try:
        return args.run(args)
    except (UsageError, VerificationFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
