"""Batch command-line front end.

Commands parse parameters, run the library pipelines, and write CSV/JSON
artifacts plus a manifest echoing the fully resolved configuration.
Outputs are deterministic: fixed float formatting, fixed orderings, no
timestamps.  Exit codes: 0 success, 2 validation error, 3 numerical
failure; errors are also emitted as JSON on standard error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import approx, converge, geometry, renorm
from .errors import AgresError, NumericalError, ValidationError
from .exact import as_fraction, g17_lines, point_decimal_str, point_exact_str

COMMANDS = ("solve", "boundary", "graph", "resistance", "resolvent", "relations",
            "estimates", "converge", "hausdorff")


@dataclass
class RunConfig:
    """Resolved configuration of one invocation; echoed into the manifest."""
    command: str
    lam: Optional[str] = None
    lam2: Optional[str] = None
    target: Optional[str] = None
    s: Optional[float] = None
    level: int = 3
    depth: int = 8
    n_range: Optional[str] = None
    alpha: Optional[float] = None
    pairs: Optional[str] = None
    measure: str = "hausdorff"
    eigen_tol: float = renorm.EIGEN_TOL
    bisect_tol: float = renorm.BISECT_TOL
    max_iters: int = renorm.EIGEN_MAX_ITERS
    relation_depth: int = 1
    guard: int = renorm.RELATION_GUARD
    mode: str = "fast"
    grid: bool = False
    out: str = "."

    def manifest(self) -> dict:
        return {k: getattr(self, k) for k in sorted(self.__dataclass_fields__)}


def _parse_pairs(text: str) -> list:
    """Pairs like '(4,1):(4,2);(,1):(,2)'; empty word means a bare corner."""
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        halves = chunk.split(":")
        if len(halves) != 2:
            raise ValidationError(f"pair {chunk!r} must be '(w,i):(w,i)'")
        addrs = []
        for half in halves:
            half = half.strip()
            if not (half.startswith("(") and half.endswith(")")):
                raise ValidationError(f"address {half!r} must be parenthesized")
            body = half[1:-1]
            word_s, _, corner_s = body.rpartition(",")
            word_s = word_s.strip().strip("-")
            try:
                word = tuple(int(ch) for ch in word_s if not ch.isspace())
                corner = int(corner_s)
            except ValueError as exc:
                raise ValidationError(f"bad address {half!r}") from exc
            addrs.append((word, corner))
        pairs.append((addrs[0], addrs[1]))
    if not pairs:
        raise ValidationError("no pairs given")
    return pairs


def _parse_range(text: str) -> list[int]:
    text = text.strip()
    if ".." in text:
        a, b = text.split("..", 1)
        return list(range(int(a), int(b) + 1))
    return [int(x) for x in text.replace(",", " ").split()]


def validate(cfg: RunConfig) -> list[str]:
    """Total validation pass; returns human-readable violations."""
    v: list[str] = []
    if cfg.command not in COMMANDS:
        v.append(f"command: unknown command {cfg.command!r}")
        return v

    def check_lambda(text, name="lambda"):
        if text is None:
            v.append(f"{name}: required for {cfg.command}")
            return None
        try:
            lam = as_fraction(text, name)
        except AgresError as exc:
            v.append(f"{name}: {exc}")
            return None
        if not (0 < lam < Fraction(1, 2)):
            v.append(f"{name}: must lie in (0, 1/2), got {lam}")
            return None
        return lam

    needs_lambda = cfg.command in ("solve", "boundary", "graph", "resistance",
                                   "resolvent", "relations", "estimates", "hausdorff")
    lam = check_lambda(cfg.lam) if needs_lambda else None
    if cfg.command == "hausdorff":
        check_lambda(cfg.lam2, "lambda2")
    if cfg.command == "converge":
        if cfg.target is None:
            v.append("target: required for converge")
        else:
            try:
                tgt = converge.Target.parse(cfg.target)
                if not tgt.in_open_interval():
                    v.append("target: must lie in (0, 1/2)")
            except AgresError as exc:
                v.append(f"target: {exc}")
        if cfg.n_range is None:
            v.append("n: schedule range required")
        else:
            try:
                if not _parse_range(cfg.n_range):
                    v.append("n: schedule range is empty")
            except ValueError:
                v.append(f"n: malformed range {cfg.n_range!r}")
    if cfg.command in ("solve", "resistance", "resolvent", "estimates", "converge"):
        if cfg.s is None:
            v.append("s: required")
        elif not (0.0 < cfg.s < 1.0):
            v.append("s must lie in (0,1); irregular cases s >= 1 are out of scope")
    if cfg.command == "resistance" and not cfg.pairs:
        v.append("pairs: required for resistance")
    if cfg.command in ("resistance", "converge") and cfg.pairs:
        try:
            pairs = _parse_pairs(cfg.pairs)
            if cfg.level >= 0:  # a negative level is its own violation
                for word, corner in (addr for pair in pairs for addr in pair):
                    geometry.address_leaf(word, corner, cfg.level)
        except ValidationError as exc:
            v.append(f"pairs: {exc}")
    if cfg.command == "relations" and lam is not None:
        try:
            size = geometry.boundary_set(geometry.make_ifs(lam)).size
            if size > cfg.guard:
                v.append(f"lambda: boundary set has {size} points, guard is {cfg.guard}")
        except AgresError as exc:
            v.append(f"lambda: {exc}")
    if cfg.level < 0:
        v.append("level: must be nonnegative")
    elif cfg.command in ("resistance", "resolvent", "converge"):
        try:
            approx._check_level(cfg.level)
        except AgresError as exc:
            v.append(f"level: {exc}")
    elif cfg.command == "graph" and cfg.level > geometry.GRAPH_LEVEL_CAP:
        v.append(f"level: level {cfg.level} exceeds cap {geometry.GRAPH_LEVEL_CAP}")
    if cfg.depth < 0 or cfg.depth > geometry.GRAPH_LEVEL_CAP:
        v.append(f"depth: must lie in 0..{geometry.GRAPH_LEVEL_CAP}")
    if cfg.alpha is not None and not (math.isfinite(cfg.alpha) and cfg.alpha > 0):
        v.append("alpha: must be finite and positive")
    if cfg.measure not in ("hausdorff", "uniform"):
        v.append(f"measure: must be hausdorff or uniform, got {cfg.measure!r}")
    for name in ("eigen_tol", "bisect_tol"):
        if not (math.isfinite(getattr(cfg, name)) and getattr(cfg, name) > 0):
            v.append(f"{name}: must be finite and positive")
    if cfg.max_iters < 1:
        v.append("max_iters: must be at least 1")
    if not 1 <= cfg.relation_depth <= approx.LEVEL_CAP:
        v.append(f"relation_depth: must lie in 1..{approx.LEVEL_CAP}")
    return v


def _write(outdir: Path, name: str, text: str) -> None:
    (outdir / name).write_text(text)


def _write_json(outdir: Path, name: str, obj) -> None:
    _write(outdir, name, json.dumps(obj, indent=1, sort_keys=True) + "\n")


def _points_json(points, labels=None) -> list:
    rows = []
    for i, p in enumerate(points):
        dx, dy = point_decimal_str(p)
        ex, ey = point_exact_str(p)
        row = {"id": i, "x": dx, "y": dy, "x_exact": ex, "y_exact": ey}
        if labels is not None:
            lab = labels[i]
            row["label"] = ({"kind": "corner", "corner": lab.corner}
                            if lab.kind == "corner"
                            else {"kind": "edge", "edge": geometry.EDGE_NAMES[lab.edge],
                                  "t": f"{lab.t.numerator}/{lab.t.denominator}"})
        rows.append(row)
    return rows


def _solve(cfg: RunConfig, lam, s: Optional[float] = None) -> renorm.Solution:
    """The weight solve on the IFS of lam at s (default: the configured s)."""
    return renorm.solve_r(geometry.make_ifs(lam), cfg.s if s is None else s,
                          eigen_tol=cfg.eigen_tol, bisect_tol=cfg.bisect_tol,
                          max_iters=cfg.max_iters)


def _cmd_solve(cfg: RunConfig, outdir: Path) -> None:
    _write_json(outdir, "solution.json", _solve(cfg, cfg.lam).to_json_obj())


def _cmd_boundary(cfg: RunConfig, outdir: Path) -> None:
    ifs = geometry.make_ifs(cfg.lam)
    bset = geometry.boundary_set(ifs, cfg.mode,
                                 depth=cfg.depth if cfg.mode == "oracle" else None)
    obj = {"lambda": cfg.lam, "size": bset.size,
           "parameters": [f"{t.numerator}/{t.denominator}" for t in bset.parameter_set()],
           "points": _points_json(bset.points, bset.labels)}
    _write_json(outdir, "boundary.json", obj)


def _cmd_graph(cfg: RunConfig, outdir: Path) -> None:
    ifs = geometry.make_ifs(cfg.lam)
    g = geometry.approximation_graph(ifs, cfg.level)
    _write(outdir, "edges.csv", g.edge_list_csv())
    _write(outdir, "vertices.csv", g.vertex_csv())


def _cmd_resistance(cfg: RunConfig, outdir: Path) -> None:
    lf = approx.level_form(_solve(cfg, cfg.lam), cfg.level)
    rows = approx.resistance_metric(lf, _parse_pairs(cfg.pairs))
    lines = ["word_1,corner_1,word_2,corner_2,x1,y1,x2,y2,"
             "x1_exact,y1_exact,x2_exact,y2_exact,resistance"]
    for pair, val in rows:
        points = [lf.geometry.point(lf.vid_of_address(word, c)) for word, c in pair]
        cells = [f"{''.join(map(str, word))},{c}" for word, c in pair]
        cells += [x for p in points for x in point_decimal_str(p)]
        cells += [f'"{x}"' for p in points for x in point_exact_str(p)]
        lines.append(",".join(cells + [f"{val:.17g}"]))
    _write(outdir, "resistance.csv", "\n".join(lines) + "\n")


def _write_kernel_csv(path: Path, points, matrix) -> None:
    """Write resolvent.csv: a header, then the line 'x_id,y_id,x,y,x_exact,y_exact,u'
    of every ordered pair of points, row by row.

    The u texts of a block of about 4,096 entries (whole rows) come from one
    ``exact.g17_lines`` call, which gives "{u:.17g}\\n" bit for bit.  Each row
    is one write, joined from the parts "{x},", "{y},", x's coordinate columns
    and the u text of its lines.  ``matrix`` must be bitwise symmetric
    (``ResolventKernel.matrix`` is), so that the (x, y) and (y, x) lines carry
    the same text; one that is not (a sign of zero or a NaN payload counts)
    raises NumericalError before the file is opened.
    """
    bits = matrix.view(np.int64)
    if not np.array_equal(bits, bits.T):
        raise NumericalError("resolvent kernel is not bitwise symmetric")
    n = len(points)
    rows = max(1, 4096 // n)
    parts = [None] * (4 * n)
    parts[1::4] = [b"%d," % j for j in range(n)]
    with open(path, "wb") as fh:
        fh.write(b"x_id,y_id,x,y,x_exact,y_exact,u\n")
        for start in range(0, n, rows):
            texts = g17_lines(matrix[start:start + rows].ravel())
            for i, p in enumerate(points[start:start + rows], start):
                dx, dy = point_decimal_str(p)
                ex, ey = point_exact_str(p)
                parts[0::4] = [b"%d," % i] * n
                parts[2::4] = [f'{dx},{dy},"{ex}","{ey}",'.encode()] * n
                parts[3::4] = texts[(i - start) * n:(i - start + 1) * n]
                fh.write(b"".join(parts))


def _cmd_resolvent(cfg: RunConfig, outdir: Path) -> None:
    sol = _solve(cfg, cfg.lam)
    alpha = cfg.alpha if cfg.alpha is not None else 1.0
    mspec = approx.measure_weights(sol.ifs, cfg.measure)
    lf = approx.level_form(sol, cfg.level)
    kernel = approx.resolvent_kernel(lf, alpha, mspec)
    _write_kernel_csv(outdir / "resolvent.csv", lf.points, kernel.matrix)
    _write_json(outdir, "resolvent.json", {
        "lambda": cfg.lam, "s": cfg.s, "alpha": alpha, "level": cfg.level,
        "measure": mspec.to_json_obj(),
        "row_mass_error": kernel.row_mass_error(),
        "symmetry_error": kernel.symmetry_error(),
    })


def _cmd_relations(cfg: RunConfig, outdir: Path) -> None:
    ifs = geometry.make_ifs(cfg.lam)
    rels = renorm.enumerate_preserved_relations(ifs, k=cfg.relation_depth, guard=cfg.guard)
    bset = geometry.boundary_set(ifs)
    obj = {
        "lambda": cfg.lam,
        "boundary_size": bset.size,
        "count": len(rels),
        "all_trivial": all(r.is_trivial for r in rels),
        "relations": [
            {"blocks": [list(b) for b in r.blocks],
             "full": r.is_full, "empty": r.is_empty}
            for r in rels
        ],
    }
    _write_json(outdir, "relations.json", obj)


def _cmd_estimates(cfg: RunConfig, outdir: Path) -> None:
    sol = _solve(cfg, cfg.lam)
    levels = [approx.level_form(sol, m) for m in (4, 5, 6)]
    bottom = []
    for lf in levels:
        value, bound, ok = approx.boundary_resistance_check(lf)
        bottom.append({"level": lf.m, "value": value, "bound": bound, "pass": ok})
    tfit, theta, env = approx.scaling_exponent(sol, range(4, 10))
    genv = approx.envelope_check(levels[0])
    obj = {
        "lambda": cfg.lam, "s": cfg.s, "r": sol.r, "theta": theta,
        "bottom_edge_resistance": bottom,
        "exponent_fit": {"theta_fit": tfit, "theta": theta,
                         "c1": env.c1, "c2": env.c2, "spread": env.spread},
        "global_envelope": {"eta_star": genv.eta_star, "eta_sub": genv.eta_sub,
                            "c1": genv.c1, "c2": genv.c2},
    }
    if cfg.grid:
        rows = []
        worst = 0.0
        # each lambda in [1/8, 3/8] with denominator dividing 32, once, in first-seen order
        for lam in dict.fromkeys(Fraction(num, den) for den in (8, 16, 32)
                                 for num in range(den // 8, 3 * den // 8 + 1)):
            for s in (0.2, 0.5, 0.8, 0.95):
                rsol = _solve(cfg, lam, s)
                rows.append({"lambda": f"{lam.numerator}/{lam.denominator}",
                             "s": s, "r": rsol.r})
                worst = max(worst, rsol.r)
        obj["uniform_bound_scan"] = {"max_r": worst, "rows": rows}
    _write_json(outdir, "estimates.json", obj)


def _cmd_converge(cfg: RunConfig, outdir: Path) -> None:
    pairs = _parse_pairs(cfg.pairs) if cfg.pairs else [(((), 1), ((), 2))]
    ns = _parse_range(cfg.n_range)
    rep = converge.convergence_report(cfg.target, cfg.s, ns, pairs,
                                      alpha=cfg.alpha, m=cfg.level,
                                      measure_scheme=cfg.measure,
                                      eigen_tol=cfg.eigen_tol,
                                      bisect_tol=cfg.bisect_tol,
                                      max_iters=cfg.max_iters)
    _write(outdir, "report.csv", rep.to_csv())
    _write_json(outdir, "report.json", rep.to_json_obj())


def _cmd_hausdorff(cfg: RunConfig, outdir: Path) -> None:
    est, bound, ok = converge.hausdorff_check(cfg.lam, cfg.lam2, cfg.depth)
    _write_json(outdir, "hausdorff.json", {
        "lambda1": cfg.lam, "lambda2": cfg.lam2, "depth": cfg.depth,
        "estimate": est, "bound": bound,
        "slack": 2.0 * 2.0 ** -cfg.depth, "pass": ok,
    })


_DISPATCH = {
    "solve": _cmd_solve,
    "boundary": _cmd_boundary,
    "graph": _cmd_graph,
    "resistance": _cmd_resistance,
    "resolvent": _cmd_resolvent,
    "relations": _cmd_relations,
    "estimates": _cmd_estimates,
    "converge": _cmd_converge,
    "hausdorff": _cmd_hausdorff,
}


_CONFIG_ALIASES = {"lambda": "lam", "lambda2": "lam2", "n": "n_range"}
_CONFIG_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _typed(field_type: str, val: str):
    """Convert a config-file string to the type of its RunConfig field."""
    if "bool" in field_type:
        if val.lower() not in _CONFIG_BOOLS:
            raise ValueError(f"{val!r} is not a bool: use 1/true/yes or 0/false/no")
        return _CONFIG_BOOLS[val.lower()]
    if "int" in field_type:
        return int(val)
    if "float" in field_type:
        return float(val)
    return val


def _read_config_file(path: str) -> dict:
    """Flat key = value lines mirroring the flags; '#' starts a comment; unknown keys fail."""
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line {raw!r} is not 'key = value'")
        name, val = (part.strip() for part in line.split("=", 1))
        key = name.replace("-", "_")
        key = _CONFIG_ALIASES.get(key, key)
        if key == "command":
            continue
        if key not in RunConfig.__dataclass_fields__:
            raise ValidationError(f"config line {raw!r}: unknown key {name!r}")
        try:
            out[key] = _typed(RunConfig.__dataclass_fields__[key].type, val)
        except ValueError as exc:
            raise ValidationError(f"config line {raw!r}: {exc}") from exc
    return out


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Flags carry no defaults: only flags given explicitly appear in the namespace,
    so they override the config file, which overrides the RunConfig defaults.

    Built once per process: every ``parse_args`` call returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="agres",
        description="Self-similar resistance forms on gaskets with an added rotated triangle")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        p.add_argument("--lambda", dest="lam", help="rational 'p/q' in (0,1/2)")
        p.add_argument("--lambda2", dest="lam2", help="second rational (hausdorff)")
        p.add_argument("--target", help="'p/q', decimal, or '1/sqrtN'")
        p.add_argument("--s", type=float, help="added-cell weight in (0,1)")
        p.add_argument("--level", type=int)
        p.add_argument("--depth", type=int)
        p.add_argument("--n", dest="n_range", help="schedule range 'a..b'")
        p.add_argument("--alpha", type=float)
        p.add_argument("--pairs", help="'(w,i):(w,i);...' addressed vertex pairs")
        p.add_argument("--measure", choices=("hausdorff", "uniform"))
        p.add_argument("--eigen-tol", dest="eigen_tol", type=float)
        p.add_argument("--bisect-tol", dest="bisect_tol", type=float,
                       help="weight solve stops once |x*C(x) - s| <= this")
        p.add_argument("--max-iters", dest="max_iters", type=int)
        p.add_argument("--relation-depth", dest="relation_depth", type=int)
        p.add_argument("--guard", type=int)
        p.add_argument("--mode", choices=("fast", "oracle"))
        p.add_argument("--grid", action="store_true",
                       help="estimates: add the uniform-bound parameter scan")
        p.add_argument("--out")
        p.add_argument("--config", help="flat key = value file; flags override")
    return parser


def _error_json(exc: Exception) -> str:
    return json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}},
                      sort_keys=True)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    values = vars(ns)
    config_path = values.pop("config", None)
    try:
        if config_path:
            values = {**_read_config_file(config_path), **values}
        cfg = RunConfig(**values)
        violations = validate(cfg)
        if violations:
            raise ValidationError("; ".join(violations))
        outdir = Path(cfg.out)
        outdir.mkdir(parents=True, exist_ok=True)
        _write_json(outdir, "manifest.json", {"tool": "agres", "config": cfg.manifest()})
        _DISPATCH[cfg.command](cfg, outdir)
    except (OSError, AgresError) as exc:
        print(_error_json(exc), file=sys.stderr)
        return 3 if isinstance(exc, NumericalError) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
