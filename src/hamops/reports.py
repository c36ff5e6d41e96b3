"""Structured verdicts for symbolic checks.

A report is a list of condition records; each record carries the condition
id, the first index tuple it was observed at, the normalized residual, a
pass flag, side conditions used during normalization, and how many index
tuples produced this exact residual.  The overall verdict is the conjunction
of the per-record flags (an attached error always fails the report).
Checks report their condition families through :func:`condition_report`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import expr as E
from .expr import Expr, render


@dataclass(frozen=True)
class Condition:
    cid: str
    indices: tuple
    residual_text: str
    passed: bool
    side_conditions: tuple = ()
    multiplicity: int = 1

    def to_dict(self):
        return {
            "id": self.cid,
            "indices": [i + 1 for i in self.indices],
            "residual": self.residual_text,
            "pass": self.passed,
            "side_conditions": list(self.side_conditions),
            "multiplicity": self.multiplicity,
        }


@dataclass
class CheckReport:
    conditions: list = field(default_factory=list)
    error: str | None = None

    @property
    def verdict(self) -> bool:
        if self.error is not None:
            return False
        return all(c.passed for c in self.conditions)

    def failures(self):
        return [c for c in self.conditions if not c.passed]

    def merged(self, *others: "CheckReport") -> "CheckReport":
        out = CheckReport(list(self.conditions), self.error)
        for other in others:
            out.conditions.extend(other.conditions)
            if out.error is None and other.error is not None:
                out.error = other.error
        return out

    def prefixed(self, tag: str) -> "CheckReport":
        """The same report with every condition id written ``tag:id``."""
        return CheckReport(
            [replace(c, cid=f"{tag}:{c.cid}") for c in self.conditions], self.error
        )

    def to_dict(self):
        data = {
            "verdict": "pass" if self.verdict else "fail",
            "conditions": [c.to_dict() for c in self.conditions],
        }
        if self.error is not None:
            data["error"] = self.error
        return data

    def summary_lines(self):
        lines = []
        if self.error is not None:
            lines.append(f"error: {self.error}")
        for c in self.conditions:
            mark = "ok  " if c.passed else "FAIL"
            where = "" if not c.indices else " @" + ",".join(str(i + 1) for i in c.indices)
            extra = f" [x{c.multiplicity}]" if c.multiplicity > 1 else ""
            side = f" (assuming {'; '.join(c.side_conditions)} != 0)" if c.side_conditions else ""
            if c.passed:
                lines.append(f"  {mark} {c.cid}{extra}{side}")
            else:
                lines.append(f"  {mark} {c.cid}{where}{extra}: residual {c.residual_text}{side}")
        lines.append("verdict: " + ("pass" if self.verdict else "FAIL"))
        return lines

    def __str__(self):
        return "\n".join(self.summary_lines())


class ReportBuilder:
    """Collects residuals, deduplicating identical (id, residual) records.

    Index tuples are visited in lexicographic order; the first tuple showing
    a given residual is kept and later duplicates only bump the multiplicity,
    so reports stay readable while every distinct residual is witnessed.

    All exact normalisations of one builder go through one ``Ring``, so the
    subexpressions its residuals share are converted once; in numeric mode
    all its residuals are evaluated at one ``SamplePoints``, so those
    subexpressions are evaluated once per point.  The ring, the point set and
    their memos live as long as the builder.
    """

    def __init__(self, ctx):
        self.ctx = ctx
        self._ring = None
        self._points = None
        self._records: dict = {}

    def add(self, cid: str, indices: tuple, residual: Expr):
        if residual == E.ZERO:
            passed, text, used_conds = True, "0", ()
        elif (mode := E.zero_mode()) is not None:
            seed, trials = mode
            used: set = set()
            if self._points is None:
                self._points = E.SamplePoints(self.ctx, seed)
            passed = E.probabilistic_zero_test(
                residual, self.ctx, trials=trials, seed=seed, used=used, points=self._points
            )
            text = "0" if passed else render(residual, self.ctx)
            used_conds = E.side_conditions(used)
        else:
            if self._ring is None:
                self._ring = E.Ring(self.ctx)
            normal, used_conds = E.normalize_with_side_conditions(
                residual, self.ctx, self._ring
            )
            passed = normal == E.ZERO
            text = render(normal, self.ctx)
        key = (cid, text)
        rec = self._records.get(key)
        if rec is None:
            self._records[key] = [cid, tuple(indices), text, passed, used_conds, 1]
        else:
            rec[5] += 1

    def build(self) -> CheckReport:
        conditions = [
            Condition(cid, idx, text, passed, conds, mult)
            for cid, idx, text, passed, conds, mult in self._records.values()
        ]
        return CheckReport(conditions)


def condition_report(ctx, *families) -> CheckReport:
    """One report over condition families, each ``(cid, pairs)`` where
    ``pairs`` yields ``(index tuple, residual)``: ``entries(T)`` for a
    residual tensor T built for other uses too, ``indexed(n, rank, entry)``
    for one that is only reported, or pairs over chosen tuples, such as the
    i < j < k of ``jacobi-cyclic``.  Families are added in the order given,
    each pair in the order it is yielded."""
    rb = ReportBuilder(ctx)
    for cid, pairs in families:
        for idx, x in pairs:
            # positional, so a wrapper of ReportBuilder.add sees every argument
            rb.add(cid, idx, x)
    return rb.build()
