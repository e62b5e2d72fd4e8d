"""Dyadic approximation schedules and empirical convergence diagnostics.

An irrational shape parameter is never instantiated directly; it is
approached through its dyadic roundings lambda_n = round(2^n t)/2^n, each
of which admits an exact solve.  The diagnostics track the solved weight,
resistances and resolvent entries at addressed vertices along the
schedule and test for a Cauchy trend, since the underlying theory gives
convergence without a rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .approx import LEVEL_CAP, level_form, measure_weights, resistance_metric, resolvent_kernel
from .errors import DomainError
from .geometry import Address, address_leaf, check_level, hausdorff_distance, make_ifs
from .network import harmonic_extension
from .renorm import BISECT_TOL, EIGEN_MAX_ITERS, EIGEN_TOL, solve_r

DIFF_THRESHOLD = 1e-2
WINDOW_ROWS = 3  # trailing rows whose successive differences must not increase
TREND_SLACK = 1e-12

TrackedPair = tuple[Address, Address]


class Target:
    """A real in (0, 1/2): an exact rational or an inverse square root.

    Comparisons against rationals are exact in both cases, and so is the
    dyadic rounding below.
    """

    def __init__(self, kind: str, value):
        self.kind = kind      # 'rational' | 'inv_sqrt'
        self.value = value    # Fraction | int N (for 1/sqrt(N))

    @classmethod
    def parse(cls, text) -> "Target":
        if isinstance(text, Target):
            return text
        if isinstance(text, Fraction):
            return cls("rational", text)
        if isinstance(text, float):
            raise DomainError("give targets exactly: 'p/q', a decimal string, or '1/sqrtN'")
        if isinstance(text, int):
            return cls("rational", Fraction(text))
        s = str(text).strip().lower().replace(" ", "")
        if s.startswith("1/sqrt"):
            try:
                n = int(s[len("1/sqrt"):])
            except ValueError as exc:
                raise DomainError(f"malformed inverse square root {text!r}") from exc
            if n <= 0:
                raise DomainError("square root argument must be positive")
            root = math.isqrt(n)
            if root * root == n:
                return cls("rational", Fraction(1, root))
            return cls("inv_sqrt", n)
        try:
            return cls("rational", Fraction(s))
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"cannot parse target {text!r}") from exc

    def compare(self, q: Fraction) -> int:
        """Exact sign of (target - q)."""
        if self.kind == "rational":
            d = self.value - q
            return (d > 0) - (d < 0)
        if q <= 0:
            return 1
        d = 1 - q * q * self.value
        return (d > 0) - (d < 0)

    def describe(self) -> str:
        if self.kind == "rational":
            return f"{self.value.numerator}/{self.value.denominator}"
        return f"1/sqrt{self.value}"


@dataclass
class DyadicSchedule:
    """Entries (n, lambda_n) with lambda_n the dyadic rounding of the target at scale n."""
    target: Target
    entries: list[tuple[int, Fraction]]

    def lambdas(self) -> list[Fraction]:
        return [lam for _, lam in self.entries]


def dyadic_round(target: Target, n: int) -> Fraction:
    """round(2^n t) / 2^n (n >= 0, half up), exactly: (x + 1) // 2 with x = floor(2^(n+1) t),
    which is 2^(n+1) p // q for t = p/q and isqrt(4^(n+1) // N) for t = 1/sqrt(N)."""
    if n < 0:
        raise DomainError(f"schedule scale n must be nonnegative, got {n}")
    if target.kind == "rational":
        x = 2 ** (n + 1) * target.value.numerator // target.value.denominator
    else:
        x = math.isqrt(4 ** (n + 1) // target.value)
    return Fraction((x + 1) // 2, 2 ** n)


def schedule_target(target) -> Target:
    """The target parsed (``Target.parse``), checked to lie in (0, 1/2)."""
    tgt = Target.parse(target)
    if not (tgt.compare(Fraction(0)) > 0 and tgt.compare(Fraction(1, 2)) < 0):
        raise DomainError("target must lie in (0, 1/2)")
    return tgt


def dyadic_schedule(target, n_range: Sequence[int]) -> DyadicSchedule:
    """Dyadic roundings of the target (``schedule_target``) for each n >= 0, all in (0, 1/2)."""
    tgt = schedule_target(target)
    ns = sorted(set(int(n) for n in n_range))
    if not ns:
        raise DomainError("schedule range is empty")
    entries = []
    for n in ns:
        lam = dyadic_round(tgt, n)
        if not (0 < lam < Fraction(1, 2)):
            raise DomainError(f"rounding at n={n} leaves (0, 1/2): {lam}")
        entries.append((n, lam))
    return DyadicSchedule(tgt, entries)


@dataclass
class ReportRow:
    n: int
    lam: Fraction
    r: float
    resistances: list[float]
    resolvents: list[float]


@dataclass
class ConvergenceReport:
    """Per-schedule-entry solved weight, tracked resistances and resolvent entries."""
    target: Target
    s: float
    m: int
    alpha: Optional[float]
    pairs: list[TrackedPair]
    rows: list[ReportRow]
    verdicts: dict = field(default_factory=dict)

    def quantity_columns(self) -> dict[str, list[float]]:
        cols: dict[str, list[float]] = {"r": [row.r for row in self.rows]}
        for k in range(len(self.pairs)):
            cols[f"R_{k}"] = [row.resistances[k] for row in self.rows]
        if self.alpha is not None:
            for k in range(len(self.pairs)):
                cols[f"u_{k}"] = [row.resolvents[k] for row in self.rows]
        return cols

    def diffs(self) -> dict[str, list[float]]:
        return {name: [abs(col[i + 1] - col[i]) for i in range(len(col) - 1)]
                for name, col in self.quantity_columns().items()}

    def compute_verdicts(self) -> dict:
        """Trend over the trailing window of rows: the successive differences
        computed from the last ``WINDOW_ROWS`` entries must be nonincreasing,
        and the final difference must clear the threshold."""
        out = {}
        nd = WINDOW_ROWS - 1
        for name, d in self.diffs().items():
            tail = d[-nd:]
            trend = all(tail[i] >= tail[i + 1] - TREND_SLACK for i in range(len(tail) - 1))
            out[name] = {
                "trend_nonincreasing": bool(trend) if len(d) >= nd else None,
                "final_gap": d[-1] if d else 0.0,
                "final_gap_ok": bool(d[-1] <= DIFF_THRESHOLD) if d else True,
            }
        self.verdicts = out
        return out

    def to_csv(self) -> str:
        if not self.verdicts:
            self.compute_verdicts()
        cols, diffs = self.quantity_columns(), self.diffs()
        header = ["n", "lambda_num", "lambda_den", *cols]
        header += [f"diff_{nm}" for nm in cols] + [f"verdict_{nm}" for nm in cols]
        verdicts = ["1" if v["final_gap_ok"] and v["trend_nonincreasing"] is not False else "0"
                    for v in (self.verdicts[nm] for nm in cols)]
        lines = [",".join(header)]
        for i, row in enumerate(self.rows):
            cells = [str(row.n), str(row.lam.numerator), str(row.lam.denominator)]
            cells += [f"{col[i]:.17g}" for col in cols.values()]
            cells += ["" if i == 0 else f"{diffs[nm][i - 1]:.17g}" for nm in cols]
            lines.append(",".join(cells + verdicts))
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        if not self.verdicts:
            self.compute_verdicts()
        return {
            "target": self.target.describe(),
            "s": self.s,
            "level": self.m,
            "alpha": self.alpha,
            "pairs": [[[list(a[0]), a[1]], [list(b[0]), b[1]]] for a, b in self.pairs],
            "rows": [
                {"n": row.n,
                 "lambda": f"{row.lam.numerator}/{row.lam.denominator}",
                 "r": row.r,
                 "R": row.resistances,
                 "u": row.resolvents}
                for row in self.rows
            ],
            "diffs": self.diffs(),
            "verdicts": self.verdicts,
        }


def convergence_report(target, s: float, n_range: Sequence[int],
                       tracked: Sequence[TrackedPair],
                       alpha: Optional[float] = None, m: int = 3,
                       measure_scheme: str = "hausdorff",
                       eigen_tol: float = EIGEN_TOL, bisect_tol: float = BISECT_TOL,
                       max_iters: int = EIGEN_MAX_ITERS) -> ConvergenceReport:
    """Solve along a dyadic schedule and track quantities at addressed vertices.

    Tracked points are (word, corner) addresses, so they exist canonically
    at every schedule entry; coordinate-specified points are rejected by
    construction of the interface.  The level m, then each address at level m
    (``geometry.address_leaf``), is checked before any solve.  Each distinct
    lambda_n is solved once; entries that repeat it get a copy of its row under
    their own n.
    """
    check_level(m, LEVEL_CAP)
    sched = dyadic_schedule(target, n_range)
    pairs = [tuple((tuple(int(c) for c in word), int(corner)) for word, corner in (a, b))
             for a, b in tracked]
    for word, corner in (addr for pair in pairs for addr in pair):
        address_leaf(word, corner, m)
    rows, solved = [], {}
    for n, lam in sched.entries:
        if lam not in solved:
            sol = solve_r(make_ifs(lam), s, eigen_tol=eigen_tol, bisect_tol=bisect_tol,
                          max_iters=max_iters)
            lf = level_form(sol, m)
            res = [value for _, value in resistance_metric(lf, pairs)]
            us = []
            if alpha is not None:
                kernel = resolvent_kernel(lf, alpha, measure_weights(sol.ifs, measure_scheme))
                us = [float(kernel.matrix[lf.vid_of_address(*a1), lf.vid_of_address(*a2)])
                      for a1, a2 in pairs]
            solved[lam] = (sol.r, res, us)
        r, res, us = solved[lam]
        rows.append(ReportRow(n, lam, r, list(res), list(us)))
    report = ConvergenceReport(sched.target, float(s), m, alpha, pairs, rows)
    report.compute_verdicts()
    return report


def hausdorff_check(lam1, lam2, depth: int = 8) -> tuple[float, float, bool]:
    """Cloud estimate of the attractor distance against the 2|dl| bound plus slack."""
    ifs1, ifs2 = make_ifs(lam1), make_ifs(lam2)
    estimate, bound = hausdorff_distance(ifs1, ifs2, depth)
    slack = 2.0 * 2.0 ** -depth
    return estimate, bound, estimate <= bound + slack + 1e-12


@dataclass
class GammaRow:
    n: int
    lam: Fraction
    harmonic_energy: float
    transplant_energy: float
    minimality_ok: bool


@dataclass
class GammaTable:
    """Harmonic energies along a schedule plus transplanted-competitor energies.

    The transplant carries the finest solution's vertex values to each
    coarser parameter by matching (word, corner) addresses; it is a
    legitimate competitor there, so its energy can never undercut the
    harmonic one.  A finite-level proxy for variational convergence, not a
    proof.
    """
    target: Target
    s: float
    m: int
    f_corners: tuple[float, float, float]
    rows: list[GammaRow]

    def to_csv(self) -> str:
        lines = ["n,lambda_num,lambda_den,harmonic_energy,transplant_energy,minimality_ok"]
        for r in self.rows:
            lines.append(f"{r.n},{r.lam.numerator},{r.lam.denominator},"
                         f"{r.harmonic_energy:.17g},{r.transplant_energy:.17g},"
                         f"{int(r.minimality_ok)}")
        return "\n".join(lines) + "\n"


def gamma_diagnostic(target, s: float, n_range: Sequence[int],
                     f_corners: Sequence[float], m: int = 3) -> GammaTable:
    """Harmonic energies of fixed corner data along a schedule, each distinct lambda_n
    solved once, and of the finest solution transplanted to every entry as a competitor."""
    if len(f_corners) != 3 or not np.isfinite(np.asarray(f_corners, float)).all():
        raise DomainError("corner data must be three finite values")
    sched = dyadic_schedule(target, n_range)
    solved = {}
    for lam in dict.fromkeys(sched.lambdas()):
        lf = level_form(solve_r(make_ifs(lam), s), m)
        boundary = {lf.vid_of_address((), i + 1): float(f_corners[i]) for i in range(3)}
        h = harmonic_extension(lf.form, boundary)
        solved[lam] = lf, np.array([h[v] for v in range(lf.form.n)])

    lf_fin, h_fin = solved[sched.lambdas()[-1]]
    fin_corners = lf_fin.geometry.leaf_corners.ravel()
    rows = []
    for n, lam in sched.entries:
        lf, hvec = solved[lam]
        # vertex ids are numbered by first occurrence in (leaf, corner) order, so the
        # first occurrence of each id is its canonical address
        addr = np.unique(lf.geometry.leaf_corners.ravel(), return_index=True)[1]
        comp = h_fin[fin_corners[addr]]
        e_h = lf.form.energy(hvec)
        e_t = lf.form.energy(comp)
        rows.append(GammaRow(n, lam, float(e_h), float(e_t),
                             bool(e_t >= e_h - 1e-12)))
    return GammaTable(sched.target, float(s), m,
                      tuple(float(x) for x in f_corners), rows)
