"""Clause-level reporting shared by the verification routines.

Every asserted identity becomes a :class:`Clause` carrying its numeric
residual and threshold, so the CLI can emit machine-readable reports in
which nothing passes silently.  Residuals are computed against their
threshold (:func:`covdilate.numerics.basis_sweep`): a failing clause always
carries its exact residual, while a passing one may carry an upper bound on
it, which its entry labels ``"residual_kind": "bound"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .numerics import UpperBound


@dataclass(frozen=True)
class Clause:
    """One asserted identity with its residual and threshold.

    ``bound`` marks a residual that is an upper bound on the exact value,
    certified at or below the threshold; a failing clause's residual is
    always exact.
    """

    name: str
    identity: str          # the operator identity being checked, in plain text
    residual: float
    threshold: float
    passed: bool
    note: str = ""
    bound: bool = False

    def as_dict(self) -> dict:
        d = {
            "name": self.name,
            "identity": self.identity,
            "residual": float(self.residual),
            "threshold": float(self.threshold),
            "passed": bool(self.passed),
        }
        if self.bound:
            d["residual_kind"] = "bound"
        if self.note:
            d["note"] = self.note
        return d


def clause(name: str, identity: str, res: float, threshold: float, note: str = "") -> Clause:
    passed = bool(res <= threshold)
    bound = isinstance(res, UpperBound)
    if bound and not passed:
        # a bound is only ever returned at or below the threshold it was
        # computed against, so this clause's threshold is not that one
        raise ValueError(f"clause {name}: an upper bound {float(res):.3e} "
                         f"cannot decide a failure at threshold {threshold:.3e}")
    return Clause(name, identity, float(res), float(threshold), passed, note, bound)


@dataclass
class ClauseReport:
    """A bag of clauses; ``passed`` is the conjunction."""

    clauses: list[Clause] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, cl: Clause) -> Clause:
        self.clauses.append(cl)
        return cl

    def extend(self, other: "ClauseReport") -> None:
        self.clauses.extend(other.clauses)
        self.notes.extend(other.notes)

    @property
    def passed(self) -> bool:
        return all(cl.passed for cl in self.clauses)

    def max_residual(self) -> float:
        return max((cl.residual for cl in self.clauses), default=0.0)

    def as_dict(self) -> dict:
        d = {"clauses": [cl.as_dict() for cl in self.clauses],
             "passed": self.passed}
        if self.notes:
            d["notes"] = list(self.notes)
        return d
