"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

Each workload is built from a seed outside the timed region and exposes
``run()``, one pass over its fixed inputs.  A pass returns one ``Outcome``
per operation and a dict of workload counters.  An exception inside an
operation is caught and counted as a failure of that operation; it never
ends the run.

* ``validate``: one ``catalog.self_validate()`` pass with parameters free,
  the paper's claim end to end.  Nearly all of it is one symbolic inverse
  (g14 J1), so the Scalar and linalg kernel on large polynomials dominates.
  The seed is accepted and ignored: there is no random input.
* ``probe``: the Newton probe, numpy-bound.  The negative forms run
  ``PROBE_STARTS`` starts each at the workload seed; every stored family
  runs once from a seeded 0.05 nudge of its canonical point.
* ``pointwise``: the acceptance checks at seeded exact rational bindings.
  Every Scalar is a constant, the opposite regime from ``validate``, and
  it is the only workload that reaches ``linalg.in_row_span``.
* ``probe_pointwise``: ``probe`` then ``pointwise`` in one pass.  This is
  the workload BENCHMARK.json lists besides ``validate``.  A ``validate``
  run takes about a minute whatever its length, and the time left for the
  benchmark's runs does not allow two more workloads with runs long enough
  to be steady on a shared machine.  The traced run still splits its time
  by layer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from nilkaehler import catalog, geometry, linalg, solver
from nilkaehler.liealg import Vector
from nilkaehler.scalar import ZERO, ParamBinding, Scalar, parse_expr
from nilkaehler.tensors import Endomorphism, TwoForm

# Checks of self_validate() that fail by design: two stored forms are not
# closed.  Any other outcome than this is a failed operation.
VALIDATE_KNOWN_RED = frozenset({"g16: w2 closed", "g23: w3 closed"})

TOLERANCE = 1e-9
NEGATIVE_LAMBDA = Fraction(2)  # free form parameter of a negative form
NUDGE = 0.05
# Starts per negative form and bindings per family: small passes, so that a
# run holds several and reports their median.  The acceptance test uses 200
# starts.
PROBE_STARTS = 25

BINDINGS_PER_FAMILY = 5
NUMERATORS = range(-5, 6)
DENOMINATORS = range(1, 4)
MAX_DRAWS = 1000

# The standard adapted splitting A + B + Z of a type-(2,4,6) algebra.
SPLIT_STD = (
    [Vector.of([1, 0, 0, 0, 0, 0]), Vector.of([0, 1, 0, 0, 0, 0])],
    [Vector.of([0, 0, 1, 0, 0, 0]), Vector.of([0, 0, 0, 1, 0, 0])],
    [Vector.of([0, 0, 0, 0, 1, 0]), Vector.of([0, 0, 0, 0, 0, 1])],
)


@dataclass(frozen=True)
class Outcome:
    """One operation.  ``wrong`` marks a verdict that contradicts the known
    answer; an exception or a non-converged positive start fails without
    being wrong."""

    name: str
    ok: bool
    wrong: bool = False
    detail: str = ""


def _families():
    for name in catalog.NAMES:
        entry = catalog.get(name)
        for s in entry.structures:
            yield entry, s


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class Validate:
    def __init__(self, seed: int) -> None:
        """There is no random input: the seed is ignored."""

    def run(self) -> tuple[list[Outcome], dict]:
        try:
            report = catalog.self_validate()
        except Exception as exc:
            return [Outcome("self_validate", False, detail=_error(exc))], {}
        outcomes = []
        for entry in report.entries:
            for label, passed in entry.checks:
                name = f"{entry.name}: {label}"
                expected = name not in VALIDATE_KNOWN_RED
                outcomes.append(Outcome(name, passed == expected, passed != expected))
        seen = {o.name for o in outcomes}
        for name in sorted(VALIDATE_KNOWN_RED - seen):
            outcomes.append(Outcome(name, False, True, "check missing from the report"))
        return outcomes, {}


def _bound_negative(w):
    if w.free_params():
        w = w.substitute(ParamBinding({p: NEGATIVE_LAMBDA for p in w.free_params()}))
    return w


def _float_matrix(rows) -> np.ndarray:
    return np.array([[x.evaluate({}) for x in row] for row in rows])


class Probe:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.negatives = []
        for name in catalog.NAMES:
            entry = catalog.get(name)
            for f in entry.forms:
                if f.admits_J == "no":
                    self.negatives.append(
                        (f"{name} {f.id}", entry.algebra, _bound_negative(f.form)))
        self.positives = []
        for k, (entry, s) in enumerate(_families()):
            binding = s.binding()
            w = entry.form(s.form_id).form.substitute(binding)
            canonical = _float_matrix(s.J.substitute(binding).rows)
            rng = np.random.default_rng((seed, k))
            guess = canonical + NUDGE * rng.standard_normal(canonical.shape)
            self.positives.append(
                (f"{entry.name} {s.id}", entry.algebra, w, guess,
                 _float_matrix(w.omega)))

    def run(self) -> tuple[list[Outcome], dict]:
        outcomes = []
        starts = converged = 0
        for label, alg, w in self.negatives:
            name = f"negative {label}"
            try:
                result = solver.newton_search(
                    alg, w, tolerance=TOLERANCE, max_starts=PROBE_STARTS, seed=self.seed)
            except Exception as exc:
                outcomes.append(Outcome(name, False, detail=_error(exc)))
                continue
            starts += result.starts_tried
            outcomes.append(Outcome(name, not result.converged, result.converged,
                                    "converged on a form without a structure"
                                    if result.converged else ""))
        for label, alg, w, guess, omega in self.positives:
            name = f"positive {label}"
            try:
                result = solver.newton_search(
                    alg, w, tolerance=TOLERANCE, max_starts=1, seed=self.seed,
                    initial_guess=guess.tolist())
            except Exception as exc:
                outcomes.append(Outcome(name, False, detail=_error(exc)))
                continue
            starts += result.starts_tried
            if not result.converged or result.residual_norm > TOLERANCE:
                outcomes.append(Outcome(name, False, detail=f"status {result.status}"))
                continue
            converged += 1
            J = np.array(result.J_numeric)
            # independent of the solver: J^2 = -I and J compatible with omega
            sound = (np.abs(J @ J + np.eye(len(J))).max() <= 1e-6
                     and np.abs(J @ omega + omega @ J.T).max() <= 1e-6)
            outcomes.append(Outcome(name, sound, not sound,
                                    "" if sound else "converged J is not a structure"))
        stats = {"solver.starts": starts,
                 "solver.converged_ratio": converged / len(self.positives)}
        return outcomes, stats


def draw_bindings(rng: random.Random, params, conditions, count: int):
    """``count`` distinct rational bindings of ``params`` under which no
    condition vanishes (the empty binding repeated when there are none)."""
    if not params:
        return (ParamBinding({}),) * count
    found: dict[tuple, ParamBinding] = {}
    for _ in range(MAX_DRAWS):
        values = tuple(Fraction(rng.choice(NUMERATORS), rng.choice(DENOMINATORS))
                       for _ in params)
        binding = ParamBinding(dict(zip(params, values)))
        if values not in found and all(
                not c.substitute(binding).is_zero() for c in conditions):
            found[values] = binding
            if len(found) == count:
                return tuple(found.values())
    raise RuntimeError(f"fewer than {count} admissible bindings of {params}")


@dataclass(frozen=True)
class Family:
    label: str
    entry: catalog.CatalogEntry
    form: TwoForm
    J: Endomorphism
    conditions: tuple[Scalar, ...]
    expected_down: dict
    type246: bool
    bindings: tuple[ParamBinding, ...]


class Pointwise:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.families = []
        for entry, s in _families():
            f = entry.form(s.form_id)
            conditions = tuple(parse_expr(c)
                               for c in s.side_conditions + f.side_conditions)
            params = sorted(set(s.params) | f.form.free_params())
            rng = random.Random(f"pointwise/{seed}/{entry.name}/{s.id}")
            bindings = draw_bindings(rng, params, conditions, BINDINGS_PER_FAMILY)
            down = {idx: parse_expr(txt)
                    for idx, txt in s.expected.down_components.items()}
            self.families.append(Family(
                f"{entry.name} {s.id}", entry, f.form, s.J, conditions, down,
                entry.algebra_type == (2, 4, 6), bindings))

    def run(self) -> tuple[list[Outcome], dict]:
        outcomes = []
        for fam in self.families:
            for binding in fam.bindings:
                values = ", ".join(f"{p}={v}" for p, v in binding.items())
                name = f"{fam.label} at ({values})"
                failures = self.evaluate(fam, binding)
                wrong = [f for f in failures if not f.startswith("raised ")]
                outcomes.append(Outcome(name, not failures, bool(wrong), "; ".join(failures)))
        return outcomes, {}

    @staticmethod
    def evaluate(fam: Family, binding: ParamBinding) -> list[str]:
        """Names of the failed checks; an exception reads ``raised ...``."""
        failures: list[str] = []

        def check(label: str, thunk) -> None:
            try:
                if not thunk():
                    failures.append(label)
            except Exception as exc:
                failures.append(f"raised in {label}: {_error(exc)}")

        alg = fam.entry.algebra
        try:
            w = fam.form.substitute(binding)
            J = fam.J.substitute(binding)
        except Exception as exc:
            return [f"raised in substitution: {_error(exc)}"]
        check("verify_family", lambda: solver.verify_family(alg, w, J, ()).ok)
        check("in compat span", lambda: solver.compat_nullspace(w).contains(J))
        try:
            metric, _, curv = geometry.full_curvature(alg, w, J)
        except Exception as exc:
            return failures + [f"raised in full_curvature: {_error(exc)}"]
        check("ricci zero", lambda: linalg.is_zero_matrix(curv.ricci))
        check("norm zero", lambda: curv.norm.is_zero())
        check("down components", lambda: _down_match(curv, fam.expected_down, binding))
        check("indefinite", lambda: min(geometry.signature(metric)) > 0)
        if fam.type246:
            check("type246", lambda: geometry.type246_structure_check(
                alg, w, J, SPLIT_STD).ok())
        return failures


def _down_match(curv, expected: dict, binding: ParamBinding) -> bool:
    got = {tuple(i + 1 for i in idx): v
           for idx, v in geometry.nonzero_down_components(curv)}
    want = {idx: v.substitute(binding) for idx, v in expected.items()}
    return all((got.get(idx, ZERO) - want.get(idx, ZERO)).is_zero()
               for idx in set(got) | set(want))


class ProbePointwise:
    def __init__(self, seed: int) -> None:
        self.parts = (Probe(seed), Pointwise(seed))

    def run(self) -> tuple[list[Outcome], dict]:
        outcomes: list[Outcome] = []
        stats: dict = {}
        for part in self.parts:
            out, extra = part.run()
            outcomes += out
            stats.update(extra)
        return outcomes, stats


WORKLOADS = {"validate": Validate, "probe": Probe, "pointwise": Pointwise,
             "probe_pointwise": ProbePointwise}
