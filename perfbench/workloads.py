"""The three benchmark workloads: seeded inputs, the jobs of one round, and
the summaries of their outputs that the correctness check compares.

All three are closed-loop batch jobs with one client: each operation starts
only after the previous one has finished.  ``inputs`` is pure and imports
nothing from ``agres``, so the parent process can use it to look up the
reference values; ``run_pass`` and the summaries run inside a worker.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

WORKLOADS = ("converge_sqrt8", "level_realize", "contact_oracle")
DEFAULT_SEED = 0        # gives the inputs named in the notes
HELD_OUT_SEED = 104729  # kept out of tuning; for checking later claims

# Candidate tracked pairs for converge_sqrt8: words of length <= 3, which
# exist at level 3 for every schedule entry.
CONVERGE_PAIRS = (
    "(,1):(,2)", "(4,1):(4,2)", "(,2):(,3)", "(1,2):(1,3)",
    "(4,2):(4,3)", "(2,1):(3,1)", "(14,1):(14,2)", "(41,2):(41,3)",
    "(444,1):(444,2)", "(123,1):(321,2)", "(34,3):(43,1)", "(11,2):(22,3)",
)
CONVERGE_NS = range(4, 11)    # the schedule n = 4..10, one CLI call per entry
# Each set holds parameters of one work class (equal boundary-set size).
RESISTANCE_LAMBDAS = ("3/16", "5/16")      # boundary set of 12 points
RESOLVENT_LAMBDAS = ("1/8", "3/8")         # boundary set of 9 points
CONTACT_FIXED = ("1/4", "1/8")
CONTACT_NON_DYADIC = ("1/7", "2/7", "3/7")  # 12 points, nontrivial relations
CONTACT_DYADIC = ("3/16", "5/16")           # 12 points, trivial relations only

RESOLVENT_SAMPLES = 64


def inputs(workload: str, seed: int) -> dict:
    """The inputs of one workload at one seed; the same seed gives the same inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    default = seed == DEFAULT_SEED
    if workload == "converge_sqrt8":
        pairs = list(CONVERGE_PAIRS[:2]) if default else rng.sample(CONVERGE_PAIRS, 2)
        return {"target": "1/sqrt8", "s": "0.5", "alpha": "1",
                "level": "3", "pairs": pairs}
    if workload == "level_realize":
        if default:
            return {"resistance": RESISTANCE_LAMBDAS[0], "resolvent": RESOLVENT_LAMBDAS[0]}
        return {"resistance": rng.choice(RESISTANCE_LAMBDAS),
                "resolvent": rng.choice(RESOLVENT_LAMBDAS)}
    if default:
        extra = [CONTACT_NON_DYADIC[0], CONTACT_DYADIC[0]]
    else:
        extra = [rng.choice(CONTACT_NON_DYADIC), rng.choice(CONTACT_DYADIC)]
    return {"lambdas": list(CONTACT_FIXED) + extra}


def operations(workload: str, inp: dict) -> list[str]:
    """Names of the operations of one round, in the order they run."""
    if workload == "converge_sqrt8":
        return [f"converge {n}" for n in CONVERGE_NS]
    if workload == "level_realize":
        return [f"resistance {inp['resistance']}", f"resolvent {inp['resolvent']}"]
    return [f"{job} {lam}" for lam in inp["lambdas"]
            for job in ("boundary", "graph", "relations")]


# -- jobs (worker side) ----------------------------------------------------------


def _converge_argv(inp: dict, n: int, out: Path) -> list[str]:
    return ["converge", "--target", inp["target"], "--s", inp["s"], "--n", f"{n}..{n}",
            "--pairs", ";".join(inp["pairs"]), "--alpha", inp["alpha"],
            "--level", inp["level"], "--out", str(out)]


def run_pass(workload: str, inp: dict, out: Path, run_op) -> None:
    """Run every operation of one pass through ``run_op(name, thunk)``.

    ``run_op`` records each operation's result or failure; the thunks call
    only public ``agres`` entry points.
    """
    from agres import cli, geometry, renorm

    def cli_job(argv):
        def thunk():
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"agres {argv[0]} exited with code {code}")
        return thunk

    if workload == "converge_sqrt8":
        for n in CONVERGE_NS:
            run_op(f"converge {n}", cli_job(_converge_argv(inp, n, out / "converge")))
        return
    if workload == "level_realize":
        lam = inp["resistance"]
        run_op(f"resistance {lam}", cli_job(
            ["resistance", "--lambda", lam, "--s", "0.5", "--level", "5",
             "--pairs", ";".join(CONVERGE_PAIRS), "--out", str(out / "resistance")]))
        lam = inp["resolvent"]
        run_op(f"resolvent {lam}", cli_job(
            ["resolvent", "--lambda", lam, "--s", "0.5", "--level", "4", "--alpha", "1",
             "--out", str(out / "resolvent")]))
        return
    for lam in inp["lambdas"]:
        # The three operations of one λ share its IFS, built inside the first.
        built = {}

        def boundary(lam=lam, built=built):
            built["ifs"] = ifs = geometry.make_ifs(lam)
            return geometry.boundary_set(ifs, "oracle"), geometry.boundary_set(ifs, "fast")

        run_op(f"boundary {lam}", boundary)
        run_op(f"graph {lam}",
               lambda: (geometry.approximation_graph(built["ifs"], 3, "direct"),
                        geometry.approximation_graph(built["ifs"], 3, "fast")))
        run_op(f"relations {lam}",
               lambda: renorm.enumerate_preserved_relations(built["ifs"], k=2))


# -- output summaries (worker side) -------------------------------------------------


def _sha256(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _exact_points(points) -> list[str]:
    from agres.exact import point_exact_str
    return [" ".join(point_exact_str(p)) for p in points]


def _summarize_converge(out: Path) -> dict:
    rep = json.loads((out / "converge" / "report.json").read_text())
    return {"rows": [{"n": row["n"], "lambda": row["lambda"], "r": row["r"],
                      "R": row["R"], "u": row["u"]} for row in rep["rows"]]}


def _summarize_resistance(out: Path) -> dict:
    """Resistance per pair, and the pairs' exact coordinates by hash."""
    with open(out / "resistance" / "resistance.csv") as fh:
        next(fh)
        rows = [line.rstrip("\n").rsplit(",", 5) for line in fh]
    return {"resistances": [float(row[-1]) for row in rows],
            "coords_sha256": _sha256(",".join(row[1:5]) for row in rows)}


def _summarize_resolvent(out: Path) -> dict:
    """Exact coordinates by hash, plus trace, total and fixed sample entries."""
    meta = json.loads((out / "resolvent" / "resolvent.json").read_text())
    rows = []
    coords = []
    with open(out / "resolvent" / "resolvent.csv") as fh:
        next(fh)
        for line in fh:
            head, _, u = line.rpartition(",")
            i, j, rest = head.split(",", 2)
            rows.append(float(u))
            if j == "0":
                coords.append(rest.split(",", 2)[2])
    n = len(coords)
    if n * n != len(rows):
        raise ValueError(f"resolvent.csv has {len(rows)} entries for {n} vertices")
    picks = [((k * n) // RESOLVENT_SAMPLES, (k * 37 + 11) % n) for k in range(RESOLVENT_SAMPLES)]
    return {
        "lambda": meta["lambda"], "s": meta["s"], "alpha": meta["alpha"],
        "level": meta["level"], "measure": meta["measure"],
        "row_mass_error": meta["row_mass_error"], "symmetry_error": meta["symmetry_error"],
        "vertices": n, "coords_sha256": _sha256(coords),
        "trace": sum(rows[i * n + i] for i in range(n)),
        "total": sum(rows),
        "sample": [rows[i * n + j] for i, j in picks],
    }


def _summarize_boundary(result) -> dict:
    oracle, fast = result
    return {"size": oracle.size, "points": _exact_points(oracle.points),
            "oracle_equals_fast": _exact_points(oracle.points) == _exact_points(fast.points)}


def _summarize_graph(result) -> dict:
    direct, fast = result
    same = (_exact_points(direct.points) == _exact_points(fast.points)
            and direct.edges == fast.edges and direct.cells == fast.cells)
    return {"vertices": direct.vertex_count, "edges": direct.edge_count,
            "coords_sha256": _sha256(_exact_points(direct.points)),
            "edges_sha256": _sha256(f"{a},{b}" for a, b in sorted(direct.edges)),
            "direct_equals_fast": same}


def _summarize_relations(result) -> dict:
    return {"count": len(result), "trivial": sum(1 for r in result if r.is_trivial),
            "blocks": [[list(b) for b in r.blocks] for r in result]}


def summarize(op: str, result, out: Path) -> dict:
    """Compact record of one operation's outputs, in the shape of the reference."""
    job = op.split(" ", 1)[0]
    if job == "converge":
        return _summarize_converge(out)
    if job == "resistance":
        return _summarize_resistance(out)
    if job == "resolvent":
        return _summarize_resolvent(out)
    return {"boundary": _summarize_boundary, "graph": _summarize_graph,
            "relations": _summarize_relations}[job](result)
