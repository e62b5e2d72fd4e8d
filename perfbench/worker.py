"""Rounds of one workload in a fresh interpreter, or its set-up alone.

Usage: python3 perfbench/worker.py WORKLOAD SEED TRACE OUTDIR T0 SECONDS

T0 is the parent's ``time.perf_counter()`` just before it started this
process (the clock is system-wide on Linux), so ``setup_s`` runs from
interpreter start to ``agres`` imported and the inputs generated.  With
SECONDS 0 the worker only sets up; otherwise it runs rounds of the
workload for about SECONDS.  It writes ``OUTDIR/result.json`` with its
timings, as measured and scaled to the reference speed of ``calib.py``,
each operation's output summary or error, and, when traced, the
per-layer metrics of each round.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402

import agres  # noqa: E402
import agres.cli  # noqa: E402

import calib  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

def _sparse(size_of):
    def count(counters, args, kwargs):
        if size_of(args, kwargs) > agres.network.DENSE_LIMIT:
            counters["network.sparse_solves"] += 1
    return count


def _target_size(args, kwargs):
    form, target = args[0], args[2] if len(args) > 2 else kwargs["target"]
    grounded = len(set(target)) if isinstance(target, (list, set, frozenset)) else 1
    return form.n - grounded


def _eigen(counters, args, result):
    counters["renorm.power_iters"] += result.iterations
    counters["renorm.boundary_size_max"] = max(counters["renorm.boundary_size_max"],
                                               result.D.n)


def _level(counters, args, result):
    counters["approx.level_vertices"] += args[0].n_vertices


def _rows(counters, args, result):
    counters["converge.rows"] += len(result.rows)


def _hooks(solutions: list) -> dict:
    """Counter hooks by span name; every solve_r result goes to ``solutions``."""
    return {
        "renorm.solve_r": (None, lambda counters, args, result: solutions.append(result)),
        "renorm.eigen_solve": (None, _eigen),
        "approx.level_geometry": (None, _level),
        "network.trace": (_sparse(
            lambda a, k: a[0].n - len(set(a[1] if len(a) > 1 else k["keep"]))), None),
        "network.harmonic_extension": (_sparse(
            lambda a, k: a[0].n - len(a[1] if len(a) > 1 else k["boundary"])), None),
        "network.effective_resistance": (_sparse(_target_size), None),
        "converge.report": (None, _rows),
    }


SELF_TIMES = ("renorm.solve_r", "renorm.eigen_solve", "renorm.relations",
              "approx.level_geometry", "approx.level_form", "approx.tower_refine",
              "network.trace", "network.effective_resistance", "network.resolvent",
              "geometry.boundary_set", "geometry.approximation_graph",
              "converge.report", "cli.main")
CALLS = ("renorm.eigen_solve", "network.trace")
COUNTERS = ("renorm.power_iters", "renorm.boundary_size_max", "approx.level_vertices",
            "network.sparse_solves", "geometry.membership_tests", "converge.rows")


def layer_metrics(tracer: spans.Tracer, wall: float) -> dict:
    """Per-layer metrics of one traced round (times in seconds)."""
    selfs = spans.self_times(tracer.spans)
    out = {f"{name}.self_s": selfs.get(name, (0.0, 0))[0] for name in SELF_TIMES}
    out.update({f"{name}.calls": selfs.get(name, (0.0, 0))[1] for name in CALLS})
    out.update({name: tracer.counters.get(name, 0) for name in COUNTERS})
    for layer in spans.LAYERS:
        out[f"{layer}.self_s"] = sum(t for name, (t, _) in selfs.items()
                                     if name.split(".", 1)[0] == layer)
    out["unspanned_s"] = wall - sum(end - start for _, start, end, parent in tracer.spans
                                    if parent is None)
    return out


def execute(workload: str, inp: dict, out: Path, traced: bool, seconds: float = 0.0,
            reading: float | None = None) -> dict:
    """Run rounds of one workload's operations in this process.

    A round is one pass over the operations.  Rounds run back to back.  The
    first round runs whole; after it, an operation starts only while it is
    expected to end within ``seconds``, and the first one that is not
    ends its round and the run.  So the last round may be cut short, but
    never in the middle of operations that share state.  Every operation of
    every round is timed and summarized for the check; ``reading`` is a
    ``calib.reading()`` just taken, and another follows each operation,
    outside its timing, so that each operation is scaled by the machine's
    speed around it.  Caches of ``agres`` belong to one IFS instance, and
    every round builds its own, so no round reuses the work of another.
    Only whole rounds report per-layer metrics.
    """
    tracer = spans.Tracer()
    solutions: list = []
    spans.install(tracer, _hooks(solutions), only=None if traced else {"renorm.solve_r"})
    readings = [calib.reading() if reading is None else reading]
    rounds = []
    longest: dict[str, float] = {}  # per operation, including its reading and summary
    deadline = time.perf_counter() + seconds

    def run_op(name, thunk):
        if rounds[-1].get("cut") or (
                len(rounds) > 1 and time.perf_counter() + longest[name] > deadline):
            rounds[-1]["cut"] = True
            return
        solutions.clear()
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        try:
            value, error = thunk(), None
        except Exception:  # one failed operation must not end the run
            value, error = None, traceback.format_exc(limit=3)
        wall = time.perf_counter() - start
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
        readings.append(calib.reading())
        before, after = readings[-2:]
        record = {"op": name, "error": error, "wall_s": wall, "cpu_s": cpu,
                  "wall_ref_s": calib.scaled(wall, before, after),
                  "cpu_ref_s": calib.scaled(cpu, before, after),
                  "residuals": [sol.residual for sol in solutions]}
        if error is None:
            try:
                record["observed"] = workloads.summarize(name, value, out)
            except Exception:  # unreadable output fails the operation, not the run
                record["error"] = traceback.format_exc(limit=3)
        rounds[-1]["ops"].append(record)
        longest[name] = max(longest.get(name, 0.0), time.perf_counter() - start)

    while not rounds or not rounds[-1].get("cut"):
        tracer.spans.clear()
        tracer.counters.clear()
        rounds.append({"ops": []})
        with warnings.catch_warnings(record=True) as caught:
            if traced:
                warnings.simplefilter("always", agres.ConditionWarning)
            workloads.run_pass(workload, inp, out, run_op)
        if traced and not rounds[-1].get("cut"):
            layers = layer_metrics(tracer, sum(op["wall_s"] for op in rounds[-1]["ops"]))
            layers["network.condition_warnings"] = sum(
                1 for w in caught if issubclass(w.category, agres.ConditionWarning))
            layers["cli.artifact_bytes"] = sum(p.stat().st_size for p in out.rglob("*")
                                               if p.is_file())
            rounds[-1]["layers"] = layers
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
    if not rounds[-1]["ops"]:
        rounds.pop()
    return {"rounds": rounds, "calib_s": readings,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def main(argv) -> int:
    workload, seed, traced, outdir, t0, seconds = argv
    out = Path(outdir)
    inp = workloads.inputs(workload, int(seed))
    setup_s = time.perf_counter() - float(t0)
    if not Path(agres.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"agres imported from {agres.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    reading = calib.reading()
    result = {"setup_s": setup_s, "setup_ref_s": calib.scaled(setup_s, reading, reading)}
    if float(seconds) > 0:
        work = out / "work"
        work.mkdir()
        result.update(execute(workload, inp, work, traced == "1", float(seconds), reading))
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
