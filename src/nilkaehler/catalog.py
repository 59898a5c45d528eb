"""Catalog of thirteen six-dimensional nilpotent Lie algebras carrying
symplectic forms, with their compatible complex-structure families and the
expected curvature data.

Each entry is one JSON file, ``data/<name>.json``: the algebra, its forms
and its structures, and under each structure the curvature it must
reproduce (``expected``).  The environment variable NILKAEHLER_CATALOG
points the loader at an alternate directory of such files.  Each fact is
stored once: an entry's name, whether a form admits J, a structure's
parameters and its form's side conditions are derived, and a file that
stores them does not load.  Loading only parses; ``self_validate``
recomputes the mathematics and returns a report instead of raising, so a
broken data file is a reported failure, not an import error.

This module is the only one that opens a data file or reads a JSON key.
Indices in the files are 1-based, as the basis e1..e6 prints, and every
stored key is required except ``metric``.  The command line's algebra and
2-form input files are read by ``read_input`` with the readers of the
entries' own algebra and forms.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
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

    binding: ParamBinding
    entries: Mapping[tuple[int, int], str]


@dataclass(frozen=True)
class Expectation:
    """Computed curvature data a structure must reproduce exactly.

    Component indices are 1-based (i, j, k, s) with i < j; values are
    canonical Scalar strings, compared as text with ``str`` of the computed
    value.  Components not listed are zero.
    """

    up_components: Mapping[Idx4, str]
    down_components: Mapping[Idx4, str]
    metric: MetricExpectation | None


@dataclass(frozen=True)
class FormEntry:
    id: str
    form: TwoForm
    admits_J: str  # "yes" | "no"
    side_conditions: tuple[str, ...]


@dataclass(frozen=True)
class StructureEntry:
    id: str
    form_id: str
    J: Endomorphism
    params: tuple[str, ...]
    side_conditions: tuple[str, ...]
    canonical_binding: ParamBinding
    expected: Expectation

    def binding(self) -> ParamBinding:
        return self.canonical_binding

    def vanishing(self, binding: ParamBinding) -> str | None:
        """The first side condition that ``binding`` makes vanish, or None."""
        return next((text for text in self.side_conditions
                     if parse_expr(text).substitute(binding).is_zero()), None)


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

    def only(self, form_id: str) -> CatalogEntry:
        """This entry restricted to one form and the structures on it."""
        return replace(self, forms=(self.form(form_id),),
                       structures=tuple(s for s in self.structures if s.form_id == form_id))

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


# what a message calls each JSON type a stored value may have; an expression
# is a string or an integer
_EXPR = (str, int)
_KINDS = {int: "an integer", list: "a list", dict: "an object", str: "a string",
          _EXPR: "a string or an integer"}


def _field(key: str, value, kind):
    """``value``, read from the JSON key ``key``, when it is of the JSON type
    ``kind``; a bool is no integer, and a float or a string where an integer
    belongs is refused rather than truncated or coerced."""
    if type(value) is kind or isinstance(value, kind) and type(value) is not bool:
        return value
    shown = key if kind is dict else f"{key}={value!r}"
    raise TypeError(f"{shown}: must be {_KINDS[kind]}, not {type(value).__name__}")


def _algebra(obj) -> LieAlgebra:
    if not isinstance(obj, dict):
        raise ValueError(f"a Lie algebra must be a JSON object, not {type(obj).__name__}")
    terms = [(_field("i", _field("brackets", b, dict)["i"], int), _field("j", b["j"], int),
              _field("k", b["k"], int), _field("c", b["c"], _EXPR))
             for b in _field("brackets", obj["brackets"], list)]
    return LieAlgebra.from_terms(_field("dim", obj["dim"], int), terms)


def _two_form(obj) -> TwoForm:
    if not isinstance(obj, dict):
        raise ValueError(f"a 2-form must be a JSON object, not {type(obj).__name__}")
    terms = [(_field("i", _field("terms", t, dict)["i"], int), _field("j", t["j"], int),
              _field("c", t["c"], _EXPR))
             for t in _field("terms", obj["terms"], list)]
    return TwoForm.from_terms(_field("dim", obj["dim"], int), terms)


def _endomorphism(obj) -> Endomorphism:
    if not isinstance(obj, dict):
        raise ValueError(f"an endomorphism must be a JSON object, not {type(obj).__name__}")
    rows = [[_field("rows", x, _EXPR) for x in _field("rows", row, list)]
            for row in _field("rows", obj["rows"], list)]
    dim = _field("dim", obj["dim"], int)
    if dim < 1:
        raise ValueError("dimension must be positive")
    if len(rows) != dim:
        raise ValueError("row count must match dim")
    return Endomorphism(rows)


def _components(obj, key: str, dim: int) -> dict[tuple[int, ...], str]:
    """The values stored under ``key`` by 1-based index, each in 1..dim: the
    metric ``entries`` at (i, j) with i <= j, curvature components at
    (i, j, k, s) with i < j."""
    what, size = ("metric entry", 2) if key == "entries" else ("component", 4)
    table: dict[tuple[int, ...], str] = {}
    for c in _field(key, obj[key], list):
        idx = tuple(_field("idx", i, int)
                    for i in _field("idx", _field(key, c, dict)["idx"], list))
        name = f"the {what} {list(idx)}"
        if len(idx) != size:
            raise ValueError(f"{name} does not have {size} indices")
        for i in idx:
            if not 1 <= i <= dim:
                raise ValueError(f"{name} has the index {i}, not in 1..{dim}")
        if size == 2 and idx[0] > idx[1]:
            raise ValueError(f"{name} lies below the diagonal")
        if size == 4 and idx[0] >= idx[1]:
            raise ValueError(f"{name} does not have i < j")
        if idx in table:
            raise ValueError(f"{name} is given twice")
        table[idx] = _field("value", c["value"], str)
    return table


def _not_stored(record, key: str) -> None:
    # a key the loader derives is refused, so no stale copy of it is read
    if key in record:
        raise ValueError(f"the key {key!r} is derived when loading and must not be stored")


def _expectation(obj, dim: int, params: Sequence[str]) -> Expectation:
    _not_stored(_field("expected", obj, dict), "flat")
    metric = None
    if "metric" in obj:
        # the binding may leave parameters free, but binds no other name
        binding = ParamBinding(_field("metric", obj["metric"], dict)["binding"])
        for name in binding:
            if name not in params:
                raise ValueError(f"the metric binding names {name!r},"
                                 f" not one of the parameters {list(params)}")
        metric = MetricExpectation(binding, _components(obj["metric"], "entries", dim))
    return Expectation(
        up_components=_components(obj, "up_components", dim),
        down_components=_components(obj, "down_components", dim),
        metric=metric,
    )


def _conditions(texts, inherited: Sequence[str] = ()) -> tuple[str, ...]:
    """The side conditions ``inherited`` then ``texts``, as their stored text;
    each of ``texts`` is checked to parse to a value in which a parameter
    occurs and which is no earlier condition times a constant."""
    seen = {parse_expr(text).primitive_numerator(): f"the form's {text!r}"
            for text in inherited}
    for text in _field("side_conditions", texts, list):
        value = parse_expr(_field("side_conditions", text, str))
        if not value.free_params():
            raise ValueError(f"side condition {text!r} is free of parameters")
        key = value.primitive_numerator()
        if key in seen:
            raise ValueError(f"side condition {text!r} repeats {seen[key]}")
        seen[key] = repr(text)
    return (*inherited, *texts)


def _form(obj, carried: set[str], dim: int) -> FormEntry:
    # a form admits J exactly when a stored structure rides on it
    _not_stored(_field("forms", obj, dict), "admits_J")
    fid, form = _field("id", obj["id"], str), _two_form(obj["form"])
    if form.dim != dim:
        raise ValueError(f"form {fid} has dimension {form.dim}, not {dim}")
    return FormEntry(
        id=fid,
        form=form,
        admits_J="yes" if fid in carried else "no",
        side_conditions=_conditions(obj["side_conditions"]),
    )


def _structure(obj, forms: Mapping[str, FormEntry], dim: int) -> StructureEntry:
    # the parameters are those of J and its form, each bound by the canonical
    # binding; the form's side conditions come first, and none is in another
    # parameter or vanishes at that binding
    _not_stored(obj, "params")
    sid, J = _field("id", obj["id"], str), _endomorphism(obj["J"])
    if J.dim != dim:
        raise ValueError(f"structure {sid} has dimension {J.dim}, not {dim}")
    f = forms.get(obj["form"])
    if f is None:
        raise ValueError(f"structure {sid} is on the unknown form {obj['form']!r}")
    params = sorted(J.free_params() | f.form.free_params())
    binding = ParamBinding(obj["canonical_binding"])
    if sorted(binding) != params:
        raise ValueError(f"structure {sid} has a canonical binding of"
                         f" {sorted(binding)}, not of {params}")
    conditions = _conditions(obj["side_conditions"], f.side_conditions)
    for text in conditions:
        if not parse_expr(text).free_params() <= set(params):
            raise ValueError(f"side condition {text!r} of structure {sid}"
                             f" is not in its parameters {params}")
    s = StructureEntry(
        id=sid,
        form_id=f.id,
        J=J,
        params=tuple(params),
        side_conditions=conditions,
        canonical_binding=binding,
        expected=_expectation(obj["expected"], dim, params),
    )
    vanishing = s.vanishing(binding)
    if vanishing is not None:
        raise ValueError(f"side condition {vanishing!r} vanishes at the canonical"
                         f" binding of structure {sid}")
    return s


def _by_id(kind: str, items) -> dict:
    table = {}
    for x in items:
        if x.id in table:
            raise ValueError(f"the {kind} id {x.id!r} is repeated")
        table[x.id] = x
    return table


def _read_json(path: str, label: str):
    """The JSON value in the file ``path``.  A file that cannot be opened
    raises OSError, and one that is not UTF-8 JSON, or nests too deeply for
    the decoder, ValueError naming ``label``."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ValueError(f"{label} is not valid JSON: {exc}") from exc


def read_input(path: str, kind: str, what: str) -> LieAlgebra | TwoForm:
    """The Lie algebra (``kind`` "algebra") or 2-form (``kind`` "form") in the
    JSON file ``path``, stored as an entry stores its own.  A file that does
    not hold one raises ValueError naming a ``bad {what} file``."""
    build = {"algebra": _algebra, "form": _two_form}[kind]
    obj = _read_json(path, path)
    try:
        return build(obj)
    except KeyError as exc:
        raise ValueError(f"bad {what} file: lacks the key {exc.args[0]!r}") from exc
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad {what} file: {exc}") from exc


def entry_bytes(name: str) -> bytes:
    """The data file of the entry ``name``, byte for byte."""
    with open(os.path.join(_data_dir(), f"{name}.json"), "rb") as fh:
        return fh.read()


@lru_cache(maxsize=None)
def _load(dirpath: str, name: str) -> CatalogEntry:
    obj = _read_json(os.path.join(dirpath, f"{name}.json"), f"catalog entry {name}")
    try:
        _not_stored(_field(name, obj, dict), "name")
        algebra = _algebra(obj["algebra"])
        linalg.require_bound([algebra.constants.values()])  # the series need numbers
        records = [_field("structures", s, dict)
                   for s in _field("structures", obj["structures"], list)]
        carried = {_field("form", s["form"], str) for s in records}
        forms = tuple(_form(f, carried, algebra.dim) for f in _field("forms", obj["forms"], list))
        form_by_id = _by_id("form", forms)
        structures = tuple(_structure(s, form_by_id, algebra.dim) for s in records)
        _by_id("structure", structures)
        return CatalogEntry(
            name=name,
            algebra=algebra,
            forms=forms,
            structures=structures,
            notes=_field("notes", obj["notes"], str),
        )
    except KeyError as exc:
        raise ValueError(f"catalog entry {name} lacks the key {exc.args[0]!r}") from exc
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"catalog entry {name} is malformed: {exc}") from exc


def get(name: str) -> CatalogEntry:
    if name not in NAMES:
        raise KeyError(f"unknown catalog entry {name!r}; known: {', '.join(NAMES)}")
    return _load(_data_dir(), name)


# -- validation ----------------------------------------------------------------


@dataclass(frozen=True)
class EntryValidation:
    """The checks of one entry, and the nonzero R_ijkl (1-based indices) of
    each structure whose curvature was computed, by structure id."""

    name: str
    checks: tuple[tuple[str, bool], ...]
    down_components: Mapping[str, Mapping[tuple[int, ...], object]] = field(
        default_factory=dict)

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
    return set(got) == set(want) and all(str(got[idx]) == txt for idx, txt in want.items())


def _validate_structure(
    entry: CatalogEntry, s: StructureEntry
) -> tuple[list[tuple[str, bool]], dict | None]:
    """The residuals of ``s``; when they hold, the paper's claims on its
    metric, Levi-Civita connection and curvature, and the stored values.
    Also the computed table of nonzero R_ijkl, or None when the residuals
    fail."""
    checks: list[tuple[str, bool]] = []
    w = entry.form(s.form_id).form
    report = solver.verify_family(entry.algebra, w, s.J, s.side_conditions)
    for residual in report.checked:
        checks.append((f"{s.id} {residual}", residual not in report.failures))
    metric = report.metric
    if not report.ok or metric is None:  # a degenerate form has no metric
        return checks, None
    gamma = geometry.christoffel(entry.algebra, metric)
    curv = geometry.curvature(entry.algebra, gamma, metric)
    checks.append((f"{s.id} ricci zero", linalg.is_zero_matrix(curv.ricci)))
    checks.append((f"{s.id} norm zero", curv.norm.is_zero()))
    # g is nondegenerate, so a nonzero isotropic vector makes it indefinite
    # at every binding where the family is defined
    checks.append((f"{s.id} indefinite (e_k isotropic)",
                   any(metric.g[k][k].is_zero() for k in range(metric.dim))))
    checks.append((f"{s.id} torsion free", geometry.is_torsion_free(entry.algebra, gamma)))
    checks.append((f"{s.id} first bianchi", geometry.first_bianchi_holds(curv)))
    checks.append((f"{s.id} pair symmetric", geometry.pair_symmetric(curv)))
    exp = s.expected
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
    if exp.metric is not None:
        n = entry.algebra.dim
        try:
            ok = all(
                str(metric.g[i][j].substitute(exp.metric.binding))
                == exp.metric.entries.get((i + 1, j + 1), "0")
                for i in range(n) for j in range(i, n))
        except ZeroDivisionError:  # the binding is a pole of g
            ok = False
        checks.append((f"{s.id} metric", ok))
    return checks, got_down


def validate_entry(entry: CatalogEntry) -> EntryValidation:
    """Recompute every invariant for one entry; failures are reported."""
    alg = entry.algebra
    checks: list[tuple[str, bool]] = []
    checks.append(("jacobi", jacobi_check(alg) == []))
    series = liealg.ascending_series(alg)
    checks.append(("nilpotent", bool(series) and len(series[-1]) == alg.dim))
    center = series[0] if series else ()  # the first ascending term is Z
    for f in entry.forms:
        checks.append((f"{f.id} closed", tensors.is_closed(alg, f.form)))
        checks.append((f"{f.id} nondegenerate", tensors.nondegenerate(f.form)))
        # C1 is spanned by the brackets, so omega(C1, Z) = 0 asks that
        # omega([e_i, e_j], z) vanish for every pair i, j and every z spanning Z
        brackets = linalg.transform(alg.constants, 2, f.form.omega)
        checks.append((f"{f.id} omega(C1, Z) = 0",
                       not any(linalg.contract(brackets, 2, z) for z in center)))
    down = {}
    for s in entry.structures:
        structure_checks, table = _validate_structure(entry, s)
        checks.extend(structure_checks)
        if table is not None:
            down[s.id] = table
    return EntryValidation(name=entry.name, checks=tuple(checks), down_components=down)


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
