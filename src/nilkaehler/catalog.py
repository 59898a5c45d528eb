"""Catalog of thirteen six-dimensional nilpotent Lie algebras carrying
symplectic forms, with their compatible complex-structure families and the
expected curvature data.

Entries load from the JSON files shipped under ``data/``; the environment
variable NILKAEHLER_CATALOG points the loader at an alternate directory
with the same layout.  Loading only parses; ``self_validate`` recomputes
the mathematics and returns a report instead of raising, so a broken data
file is a reported failure, not an import error.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from . import geometry, liealg, linalg, solver, tensors
from .liealg import LieAlgebra, jacobi_check
from .scalar import ParamBinding, parse_expr
from .tensors import Endomorphism, TwoForm

NAMES = (
    "g10", "g11", "g12", "g13", "g14", "g15", "g16", "g17", "g18",
    "g21", "g23", "g24", "g25",
)

Idx4 = tuple[int, int, int, int]


@dataclass(frozen=True)
class MetricExpectation:
    """Nonzero metric entries (1-based, upper triangle) at a binding."""

    binding: Mapping[str, str]
    entries: Mapping[tuple[int, int], str]


@dataclass(frozen=True)
class Expectation:
    """Computed curvature data a structure must reproduce exactly.

    Component indices are 1-based (i, j, k, s) with i < j; values are
    canonical Scalar strings.  Components not listed are zero.
    """

    up_components: Mapping[Idx4, str]
    down_components: Mapping[Idx4, str]
    flat: bool
    ricci_zero: bool
    norm: str
    metric: MetricExpectation | None


@dataclass(frozen=True)
class FormEntry:
    id: str
    form: TwoForm
    admits_J: str  # "yes" | "no" | "unknown"
    side_conditions: tuple[str, ...]


@dataclass(frozen=True)
class StructureEntry:
    id: str
    form_id: str
    J: Endomorphism
    params: tuple[str, ...]
    side_conditions: tuple[str, ...]
    canonical_binding: Mapping[str, str]
    expected: Expectation | None

    def binding(self) -> ParamBinding:
        return ParamBinding(
            {k: Fraction(v) for k, v in self.canonical_binding.items()}
        )


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    algebra: LieAlgebra
    forms: tuple[FormEntry, ...]
    structures: tuple[StructureEntry, ...]
    notes: str

    def form(self, form_id: str) -> FormEntry:
        for f in self.forms:
            if f.id == form_id:
                return f
        raise KeyError(f"entry {self.name} has no form {form_id!r}")

    def structure(self, structure_id: str) -> StructureEntry:
        for s in self.structures:
            if s.id == structure_id:
                return s
        raise KeyError(f"entry {self.name} has no structure {structure_id!r}")

    @property
    def algebra_type(self) -> tuple[int, ...]:
        return liealg.algebra_type(self.algebra)


def _data_dir() -> str:
    override = os.environ.get("NILKAEHLER_CATALOG")
    if override:
        return override
    return os.path.join(os.path.dirname(__file__), "data")


@lru_cache(maxsize=None)
def _expectations(dirpath: str) -> Mapping[tuple[str, str], Expectation]:
    with open(os.path.join(dirpath, "expectations.json")) as fh:
        records = json.load(fh)
    table = {}
    for rec in records:
        metric = None
        if "metric" in rec:
            metric = MetricExpectation(
                binding=dict(rec["metric"]["binding"]),
                entries={
                    tuple(c["idx"]): c["value"]
                    for c in rec["metric"]["entries"]
                },
            )
        table[(rec["entry"], rec["structure"])] = Expectation(
            up_components={tuple(c["idx"]): c["value"]
                           for c in rec["up_components"]},
            down_components={tuple(c["idx"]): c["value"]
                             for c in rec["down_components"]},
            flat=bool(rec["flat"]),
            ricci_zero=bool(rec["ricci_zero"]),
            norm=rec["norm"],
            metric=metric,
        )
    return table


@lru_cache(maxsize=None)
def _load(dirpath: str, name: str) -> CatalogEntry:
    with open(os.path.join(dirpath, f"{name}.json")) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"catalog entry {name} is not valid JSON: {exc}") from exc
    expectations = _expectations(dirpath)
    try:
        forms = tuple(
            FormEntry(
                id=f["id"],
                form=TwoForm.from_json_dict(f["form"]),
                admits_J=f["admits_J"],
                side_conditions=tuple(f.get("side_conditions", ())),
            )
            for f in obj["forms"]
        )
        structures = tuple(
            StructureEntry(
                id=s["id"],
                form_id=s["form"],
                J=Endomorphism.from_json_dict(s["J"]),
                params=tuple(s["params"]),
                side_conditions=tuple(s["side_conditions"]),
                canonical_binding=dict(s["canonical_binding"]),
                expected=expectations.get((name, s["id"])),
            )
            for s in obj["structures"]
        )
        algebra = LieAlgebra.from_json_dict(obj["algebra"])
        form_ids = {f.id for f in forms}
        for f in forms:
            if f.form.dim != algebra.dim:
                raise ValueError(f"form {f.id} has dimension {f.form.dim}, not {algebra.dim}")
        for s in structures:
            if s.form_id not in form_ids:
                raise ValueError(f"structure {s.id} is on the unknown form {s.form_id!r}")
            if s.J.dim != algebra.dim:
                raise ValueError(f"structure {s.id} has dimension {s.J.dim}, not {algebra.dim}")
        return CatalogEntry(
            name=obj["name"],
            algebra=algebra,
            forms=forms,
            structures=structures,
            notes=obj["notes"],
        )
    except KeyError as exc:
        raise ValueError(f"catalog entry {name} lacks the key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"catalog entry {name} is malformed: {exc}") from exc


def get(name: str) -> CatalogEntry:
    if name not in NAMES:
        raise KeyError(f"unknown catalog entry {name!r}; known: {', '.join(NAMES)}")
    return _load(_data_dir(), name)


def list_entries() -> list[tuple[str, tuple[int, ...]]]:
    """All catalog names with their ascending-series type tuples."""
    return [(name, get(name).algebra_type) for name in NAMES]


# -- validation ----------------------------------------------------------------


@dataclass(frozen=True)
class EntryValidation:
    name: str
    checks: tuple[tuple[str, bool], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)

    def failures(self) -> list[str]:
        return [label for label, passed in self.checks if not passed]


@dataclass(frozen=True)
class ValidationReport:
    entries: tuple[EntryValidation, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def failures(self) -> list[str]:
        return [
            f"{e.name}: {label}" for e in self.entries
            for label in e.failures()
        ]


def _component_table(
    pairs: Iterable[tuple[tuple[int, ...], object]],
) -> dict[tuple[int, ...], object]:
    return {tuple(i + 1 for i in idx): value for idx, value in pairs}


def _components_match(
    got: Mapping[tuple[int, ...], object],
    want: Mapping[tuple[int, ...], str],
) -> bool:
    if set(got) != set(want):
        return False
    return all((got[idx] - parse_expr(txt)).is_zero() for idx, txt in want.items())


def _validate_structure(
    entry: CatalogEntry, s: StructureEntry
) -> list[tuple[str, bool]]:
    checks: list[tuple[str, bool]] = []
    w = entry.form(s.form_id).form
    report = solver.verify_family(entry.algebra, w, s.J, s.side_conditions)
    for residual in report.checked:
        checks.append((f"{s.id} {residual}", residual not in report.failures))
    if not report.ok:
        return checks
    metric, _, curv = geometry.full_curvature(entry.algebra, w, s.J)
    checks.append((f"{s.id} ricci zero", linalg.is_zero_matrix(curv.ricci)))
    checks.append((f"{s.id} norm zero", curv.norm.is_zero()))
    exp = s.expected
    if exp is None:
        checks.append((f"{s.id} expectations present", False))
        return checks
    got_up = _component_table(geometry.nonzero_up_components(curv))
    got_down = _component_table(geometry.nonzero_down_components(curv))
    # the paper: the curvature of every family depends on at most three parameters
    values = (*got_up.values(), *got_down.values())
    params = set().union(*(v.free_params() for v in values))
    checks.append((f"{s.id} curvature parameters <= 3", len(params) <= 3))
    checks.append(
        (f"{s.id} up components", _components_match(got_up, exp.up_components)))
    checks.append(
        (f"{s.id} down components",
         _components_match(got_down, exp.down_components)))
    if exp.flat:
        checks.append((f"{s.id} flat", curv.is_flat()))
    if exp.metric is not None:
        binding = ParamBinding(
            {k: Fraction(v) for k, v in exp.metric.binding.items()})
        ok = True
        n = entry.algebra.dim
        for i in range(n):
            for j in range(i, n):
                bound = metric.g[i][j].substitute(binding)
                txt = exp.metric.entries.get((i + 1, j + 1))
                if txt is None:
                    ok = ok and bound.is_zero()
                else:
                    ok = ok and (bound - parse_expr(txt)).is_zero()
        checks.append((f"{s.id} metric", ok))
    return checks


def validate_entry(entry: CatalogEntry) -> EntryValidation:
    """Recompute every invariant for one entry; failures are reported."""
    checks: list[tuple[str, bool]] = []
    checks.append(("jacobi", jacobi_check(entry.algebra) == []))
    for f in entry.forms:
        checks.append((f"{f.id} closed", tensors.is_closed(entry.algebra, f.form)))
        checks.append((f"{f.id} nondegenerate", tensors.nondegenerate(f.form)))
    for s in entry.structures:
        checks.extend(_validate_structure(entry, s))
    return EntryValidation(name=entry.name, checks=tuple(checks))


def self_validate(names: Sequence[str] | None = None) -> ValidationReport:
    """Run validate_entry over the whole catalog (or the named subset).

    An entry that cannot be loaded is reported as one failed check whose
    label is ``load: `` and the loader's message; the others still run.
    """
    selected = tuple(names) if names is not None else NAMES
    entries = []
    for name in selected:
        try:
            entry = get(name)
        except (OSError, ValueError) as exc:
            entries.append(EntryValidation(name=name, checks=((f"load: {exc}", False),)))
        else:
            entries.append(validate_entry(entry))
    return ValidationReport(entries=tuple(entries))
