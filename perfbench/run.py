"""Layered benchmark of agres: run one workload, check it, print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload converge_sqrt8 --seed 0 --seconds 38 --trace 0

A run starts a few set-up-only interpreters, which give ``setup_s``, and
then one worker interpreter that runs rounds of the workload's operations
for ``--seconds``.  The end-to-end times are, per operation, the median
over the rounds, summed over the operations of a round.  They are scaled
to the reference speed of ``calib.py``, whose job runs between
operations; the table also prints them as measured.  With ``--trace 1``
an untraced and a traced worker share the time, and the per-layer
metrics are medians over the traced rounds.  Every operation of every
round is checked against ``reference.json``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3          # set-up-only interpreters per run, after one warm-up
RUN_LIMIT_S = 170.0       # every run must end well within 180 s

# Times are scaled to the reference speed of calib.py; see NOTES.md.
END_TO_END = {"setup_s": "s", "wall_ref_s": "s", "cpu_ref_s": "s", "peak_rss_mb": "MB"}
# As measured, printed in the table only: too noisy on a shared host to gate on.
MEASURED = {"setup_raw_s": "s", "wall_s": "s", "cpu_s": "s", "calib_ms": "ms"}
COUNT_METRICS = {"renorm.eigen_solve.calls", "renorm.power_iters", "renorm.boundary_size_max",
                 "approx.level_vertices", "network.trace.calls", "network.sparse_solves",
                 "network.condition_warnings", "geometry.membership_tests", "converge.rows"}


class HarnessError(RuntimeError):
    """The benchmark could not run the program at all."""


def layer_unit(name: str) -> str:
    if name in COUNT_METRICS:
        return "count"
    if name == "cli.artifact_bytes":
        return "bytes"
    if name == "trace_overhead":
        return "ratio"
    return "s"


class Runner:
    def __init__(self, workload: str, seed: int, base: Path):
        self.workload, self.seed, self.base = workload, seed, base
        self.started = time.perf_counter()
        self.count = 0

    def worker(self, traced: bool, seconds: float = 0.0) -> dict:
        """One worker: set-up only when ``seconds`` is 0, else rounds for ``seconds``."""
        self.count += 1
        out = self.base / f"worker{self.count}"
        out.mkdir(parents=True)
        remaining = RUN_LIMIT_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise HarnessError(f"no time left for a worker within {RUN_LIMIT_S:.0f} s")
        t0 = time.perf_counter()
        argv = [sys.executable, str(HERE / "worker.py"), self.workload, str(self.seed),
                "1" if traced else "0", str(out), repr(t0), repr(seconds)]
        try:
            proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, timeout=remaining, cwd=ROOT)
        except subprocess.TimeoutExpired as exc:
            raise HarnessError(f"a worker ran past {RUN_LIMIT_S:.0f} s") from exc
        if proc.returncode != 0:
            raise HarnessError(f"worker exited with code {proc.returncode}:\n{proc.stderr[-2000:]}")
        result = json.loads((out / "result.json").read_text())
        shutil.rmtree(out)
        return result


def op_medians(rounds: list, key: str) -> float:
    """Sum over the operations of a round of each one's median ``key`` over the rounds."""
    samples: dict[str, list] = {}
    for rnd in rounds:
        for record in rnd["ops"]:
            samples.setdefault(record["op"], []).append(record[key])
    return sum(statistics.median(values) for values in samples.values())


def check_rounds(reference: dict, workload: str, inp: dict, rounds: list) -> tuple[int, list]:
    """Operations attempted in one worker's rounds, and why each failed one failed.

    Every round must hold every operation, except that the last round after
    the first may stop early; it then holds a prefix of them.
    """
    expected = workloads.operations(workload, inp)
    attempted, failures = 0, []
    for i, rnd in enumerate(rounds):
        cut = i > 0 and i == len(rounds) - 1
        records = {record["op"]: record for record in rnd["ops"]}
        for op in expected[:len(rnd["ops"])] if cut else expected:
            attempted += 1
            record = records.get(op)
            why = ["did not run"] if record is None else \
                check.problems(reference, workload, inp, record)
            if why:
                failures.append(f"{op}: {'; '.join(why[:3])}")
    return attempted, failures


def run(workload: str, seed: int, seconds: float, traced: bool, reference: dict) -> dict:
    inp = workloads.inputs(workload, seed)
    base = ROOT / ".perfbench_out" / f"{workload}-{seed}-{os.getpid()}"
    runner = Runner(workload, seed, base)
    try:
        runner.worker(False)  # warm-up: byte-compiles the sources
        setups = [runner.worker(False) for _ in range(SETUP_PROBES)]
        if traced:
            plain = runner.worker(False, seconds / 2)
            tracing = runner.worker(True, seconds / 2)
        else:
            plain, tracing = runner.worker(False, seconds), None
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            base.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    attempted = failed = 0
    failures = []
    for result in [plain] + ([tracing] if traced else []):
        n, bad = check_rounds(reference, workload, inp, result["rounds"])
        attempted, failed = attempted + n, failed + len(bad)
        failures += bad
    rounds = plain["rounds"]
    summary = {
        "inputs": inp,
        "rounds": len(rounds),
        "round_walls": [sum(op["wall_s"] for op in rnd["ops"]) for rnd in rounds],
        "samples": sum(len(rnd["ops"]) for rnd in rounds),
        "traced_rounds": len(tracing["rounds"]) if traced else 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "end_to_end": {
            "setup_s": statistics.median(p["setup_ref_s"] for p in setups + [plain]),
            "wall_ref_s": op_medians(rounds, "wall_ref_s"),
            "cpu_ref_s": op_medians(rounds, "cpu_ref_s"),
            "peak_rss_mb": plain["peak_rss_mb"],
        },
        "measured": {
            "setup_raw_s": statistics.median(p["setup_s"] for p in setups + [plain]),
            "wall_s": op_medians(rounds, "wall_s"),
            "cpu_s": op_medians(rounds, "cpu_s"),
            "calib_ms": 1000 * statistics.median(plain["calib_s"]),
        },
    }
    if traced:
        whole = [rnd["layers"] for rnd in tracing["rounds"] if "layers" in rnd]
        layers = {name: statistics.median(rnd[name] for rnd in whole) for name in whole[0]}
        layers["traced_wall_s"] = op_medians(tracing["rounds"], "wall_s")
        layers["trace_overhead"] = (op_medians(tracing["rounds"], "wall_ref_s")
                                    / summary["end_to_end"]["wall_ref_s"])
        summary["layers"] = layers
    return summary


def report(summary: dict, traced: bool) -> dict:
    """Print a readable table; return the final result object."""
    e2e = summary["end_to_end"]
    fail_ratio = summary["failed"] / summary["attempted"]
    print(f"inputs: {json.dumps(summary['inputs'])}")
    print(f"rounds: {summary['rounds']} untraced, {summary['traced_rounds']} traced; "
          f"{summary['samples']} untraced operations; "
          f"untraced round walls {', '.join(f'{w:.3f}' for w in summary['round_walls'])} s")
    for name, unit in END_TO_END.items():
        print(f"  {name:<40} {e2e[name]:>14.6f} {unit}")
    for name, unit in MEASURED.items():
        print(f"  {name:<40} {summary['measured'][name]:>14.6f} {unit} (as measured)")
    print(f"  {'fail_ratio':<40} {fail_ratio:>14.6f} ratio "
          f"({summary['failed']} of {summary['attempted']} operations)")
    for line in summary["failures"][:10]:
        print(f"  FAILED {line}")
    if traced:
        layers = summary["layers"]
        wall = layers["traced_wall_s"]
        for name in sorted(layers):
            unit = layer_unit(name)
            if unit in ("count", "bytes"):
                print(f"  {name:<40} {layers[name]:>14.0f} {unit}")
                continue
            share = f" ({100 * layers[name] / wall:5.1f} % of traced wall)" \
                if unit == "s" and name != "traced_wall_s" else ""
            print(f"  {name:<40} {layers[name]:>14.6f} {unit}{share}")
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layers.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {"correct": summary["failed"] == 0, "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "agres" / "__init__.py").is_file():
        print(f"no agres sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    try:
        summary = run(args.workload, args.seed, args.seconds, bool(args.trace), reference)
    except HarnessError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(summary, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
