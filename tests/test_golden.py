"""Golden artifacts: every subcommand at small sizes against recorded outputs.

The files under ``tests/golden/<case>/`` are the behaviour contract for
refactors of the numerical core.  Exact artifacts (boundary sets, graphs,
relations, coordinates and ids everywhere) must be byte-equal; float
fields must agree to the acceptance suite's relative tolerance of 1e-8;
error estimates are held to their bounds instead.  A successive difference
of a report column (``diff_*`` cells, ``diffs`` entries and the verdicts'
``final_gap``, the last of them) may move as much as its two inputs together,
and must equal the difference of the observed inputs exactly.  The manifest is compared without its ``out`` entry.

Re-record from the current tree (trusted commits only) with
``PYTHONPATH=src python tests/test_golden.py --record``.
"""

import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from agres.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
REL_TOL = 1e-8
ABS_TOL = 1e-12
# error estimates: checked against their bounds, not against the recorded value
BOUNDS = {"residual": 1e-8, "row_mass_error": 1e-10, "symmetry_error": 1e-12}
# compared byte for byte
EXACT_FILES = {"boundary.json", "edges.csv", "vertices.csv", "relations.json"}
# manifest keys that may be absent now although recorded: options since removed
RETIRED_KEYS = {"threads"}

CASES = {
    "solve": ["solve", "--lambda", "1/4", "--s", "0.5"],
    "boundary_fast": ["boundary", "--lambda", "1/7"],
    "boundary_oracle": ["boundary", "--lambda", "1/8", "--mode", "oracle", "--depth", "4"],
    "graph": ["graph", "--lambda", "1/4", "--level", "2"],
    "resistance": ["resistance", "--lambda", "1/4", "--s", "0.5", "--level", "2",
                   "--pairs", "(,1):(,2);(4,1):(4,2);(12,3):(41,2)"],
    "resolvent": ["resolvent", "--lambda", "1/4", "--s", "0.5", "--level", "2",
                  "--alpha", "1"],
    "relations": ["relations", "--lambda", "1/7"],
    "estimates": ["estimates", "--lambda", "1/4", "--s", "0.5"],
    "converge": ["converge", "--target", "1/sqrt8", "--s", "0.5", "--n", "4..6",
                 "--level", "2", "--alpha", "1", "--pairs", "(,1):(,2);(4,1):(4,2)"],
    "hausdorff": ["hausdorff", "--lambda", "1/8", "--lambda2", "3/8", "--depth", "6"],
}


def _float_column(name: str) -> bool:
    return name in ("r", "resistance", "u") or name.startswith(("R_", "u_", "diff_"))


def _close(expected: float, observed: float) -> bool:
    return math.isclose(expected, observed, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def diff_mismatches(expected: float, observed: float, i: int,
                    exp_col: list[float], obs_col: list[float]) -> list[str]:
    """Check the difference |col[i+1] - col[i]|.

    Each input may move by REL_TOL, so the difference is held to
    REL_TOL * (|a| + |b|) of the recorded inputs a, b; and it must be
    exactly the difference of the observed inputs.
    """
    a, b = exp_col[i], exp_col[i + 1]
    out = []
    if not math.isclose(expected, observed, rel_tol=REL_TOL,
                        abs_tol=REL_TOL * (abs(a) + abs(b))):
        out.append(f"{observed!r} != {expected!r}")
    if observed != abs(obs_col[i + 1] - obs_col[i]):
        out.append(f"{observed!r} is not the difference of its observed inputs")
    return out


def _json_column(rows: list[dict], name: str) -> list[float]:
    """Report column ``r``, ``R_k`` or ``u_k`` out of the JSON rows."""
    key, _, k = name.partition("_")
    return [row[key][int(k)] if k else row[key] for row in rows]


def json_diffs_mismatches(expected: dict, observed: dict, path: str) -> list[str]:
    """The ``diffs`` entry of a report, checked against the report's ``rows``."""
    exp, obs = expected["diffs"], observed["diffs"]
    if not isinstance(obs, dict) or set(exp) != set(obs):
        return [f"{path}: keys differ"]
    out = []
    for name in sorted(exp):
        e_col = _json_column(expected["rows"], name)
        o_col = _json_column(observed["rows"], name)
        if len(exp[name]) != len(obs[name]) or len(e_col) != len(o_col):
            out.append(f"{path}.{name}: lengths differ")
            continue
        for i, (e, o) in enumerate(zip(exp[name], obs[name])):
            out.extend(f"{path}.{name}[{i}]: {msg}"
                       for msg in diff_mismatches(e, o, i, e_col, o_col))
    return out


def json_verdicts_mismatches(expected: dict, observed: dict, path: str) -> list[str]:
    """The ``verdicts`` entry of a report.  Each ``final_gap`` is the last ``diffs``
    entry of its column, so it is checked as that difference is, and must equal
    the observed last entry exactly; the other fields are checked as usual."""
    exp, obs = expected["verdicts"], observed["verdicts"]
    if not isinstance(obs, dict) or set(exp) != set(obs):
        return [f"{path}: keys differ"]
    out = []
    for name in sorted(exp):
        e, o, sub = exp[name], obs[name], f"{path}.{name}"
        e_col = _json_column(expected["rows"], name)
        o_col = _json_column(observed["rows"], name)
        if (len(e_col) < 2 or len(o_col) != len(e_col) or not isinstance(o, dict)
                or "final_gap" not in e or set(e) != set(o)):
            out.extend(json_mismatches(e, o, sub))
            continue
        out.extend(json_mismatches({k: v for k, v in e.items() if k != "final_gap"},
                                   {k: v for k, v in o.items() if k != "final_gap"}, sub))
        out.extend(f"{sub}.final_gap: {msg}" for msg in diff_mismatches(
            e["final_gap"], o["final_gap"], len(e_col) - 2, e_col, o_col))
        if o["final_gap"] != observed["diffs"][name][-1]:
            out.append(f"{sub}.final_gap: {o['final_gap']!r} is not the last observed diff")
    return out


def json_mismatches(expected, observed, path="") -> list[str]:
    where = path or "<root>"
    if isinstance(expected, dict):
        if not isinstance(observed, dict) or set(expected) != set(observed):
            return [f"{where}: keys differ"]
        out = []
        for key in sorted(expected):
            sub = f"{path}.{key}" if path else key
            if key == "diffs" and "rows" in expected:
                out.extend(json_diffs_mismatches(expected, observed, sub))
                continue
            if key == "verdicts" and "rows" in expected:
                out.extend(json_verdicts_mismatches(expected, observed, sub))
                continue
            if key in BOUNDS:
                if not abs(observed[key]) <= BOUNDS[key]:
                    out.append(f"{sub}: {observed[key]!r} exceeds {BOUNDS[key]}")
                continue
            out.extend(json_mismatches(expected[key], observed[key], sub))
        return out
    if isinstance(expected, list):
        if not isinstance(observed, list) or len(expected) != len(observed):
            return [f"{where}: lengths differ"]
        out = []
        for i, (e, o) in enumerate(zip(expected, observed)):
            out.extend(json_mismatches(e, o, f"{path}[{i}]"))
        return out
    if isinstance(expected, float) and type(observed) in (int, float):
        return [] if _close(expected, observed) else [f"{where}: {observed!r} != {expected!r}"]
    if type(expected) is not type(observed) or expected != observed:
        return [f"{where}: {observed!r} != {expected!r}"]
    return []


def csv_mismatches(expected: str, observed: str) -> list[str]:
    """Float columns to tolerance, every other cell (ids, coordinates, flags) exactly."""
    exp_rows = list(csv.reader(io.StringIO(expected)))
    obs_rows = list(csv.reader(io.StringIO(observed)))
    if len(exp_rows) != len(obs_rows) or exp_rows[:1] != obs_rows[:1]:
        return ["header or row count differs"]
    header = exp_rows[0]
    if any(len(row) != len(header) for row in exp_rows + obs_rows):
        return ["cell count differs"]

    def column(rows, name):
        k = header.index(name)
        return [float(row[k]) for row in rows[1:]]

    out = []
    for lineno, (e_row, o_row) in enumerate(zip(exp_rows[1:], obs_rows[1:]), start=2):
        for name, e, o in zip(header, e_row, o_row):
            if name.startswith("diff_") and e and o:
                src = name[len("diff_"):]
                out.extend(f"line {lineno}, {name}: {msg}" for msg in diff_mismatches(
                    float(e), float(o), lineno - 3, column(exp_rows, src), column(obs_rows, src)))
                continue
            same = (_close(float(e), float(o)) if _float_column(name) and e and o else e == o)
            if not same:
                out.append(f"line {lineno}, {name}: {o!r} != {e!r}")
    return out


def artifact_mismatches(name: str, expected: str, observed: str) -> list[str]:
    if name in EXACT_FILES:
        return [] if expected == observed else ["not byte-equal"]
    if name == "manifest.json":
        exp = json.loads(expected)["config"]
        obs = json.loads(observed)["config"]
        for key in ("out", *RETIRED_KEYS):
            exp.pop(key, None)
        obs.pop("out", None)
        return json_mismatches(exp, obs)
    if name.endswith(".json"):
        return json_mismatches(json.loads(expected), json.loads(observed))
    return csv_mismatches(expected, observed)


def _run(argv, out: Path) -> None:
    code = main(list(argv) + ["--out", str(out)])
    assert code == 0, f"agres {' '.join(argv)} exited with {code}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case, tmp_path):
    _run(CASES[case], tmp_path)
    recorded = sorted(p.name for p in (GOLDEN / case).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == recorded
    problems = []
    for name in recorded:
        for msg in artifact_mismatches(name, (GOLDEN / case / name).read_text(),
                                       (tmp_path / name).read_text()):
            problems.append(f"{name}: {msg}")
    assert not problems, "\n".join(problems[:20])


def test_checker_catches_changes():
    assert csv_mismatches("id,u\n1,0.5\n", "id,u\n1,0.50000000001\n") == []
    assert csv_mismatches("id,u\n1,0.5\n", "id,u\n1,0.5001\n")
    assert csv_mismatches("id,u\n1,0.5\n", "id,u\n2,0.5\n")
    assert json_mismatches({"a": [1.0, "x"]}, {"a": [1.0 + 1e-12, "x"]}) == []
    assert json_mismatches({"a": [1.0, "x"]}, {"a": [1.0, "y"]})
    assert json_mismatches({"residual": 1e-12}, {"residual": 1e-6})
    assert artifact_mismatches("manifest.json", '{"config": {"out": "a", "threads": 1}}',
                               '{"config": {"out": "b"}}') == []


def test_checker_holds_diffs_to_their_inputs():
    a, b = 0.66666666666492114, 0.66666666665593854
    b_moved = b + 4e-9  # within rel 1e-8 of b
    template = "n,R_0,diff_R_0\n4,{a!r},\n5,{b!r},{d!r}\n"
    recorded = template.format(a=a, b=b, d=abs(b - a))
    assert csv_mismatches(recorded, template.format(a=a, b=b_moved, d=abs(b_moved - a))) == []
    # a diff that its own columns do not give, however close to the recording
    assert csv_mismatches(recorded, template.format(a=a, b=b, d=abs(b - a) * (1 + 1e-15)))
    assert csv_mismatches(recorded, template.format(a=a, b=b + 1e-7, d=abs(b + 1e-7 - a)))

    def report(b, d, gap=None):
        gap = d if gap is None else gap
        return {"rows": [{"r": 0.5, "R": [a]}, {"r": 0.5, "R": [b]}],
                "diffs": {"r": [0.0], "R_0": [d]},
                "verdicts": {"r": {"final_gap": 0.0, "final_gap_ok": True},
                             "R_0": {"final_gap": gap, "final_gap_ok": True}}}
    assert json_mismatches(report(b, abs(b - a)), report(b_moved, abs(b_moved - a))) == []
    assert json_mismatches(report(b, abs(b - a)), report(b, 0.0))
    assert json_mismatches(report(b, abs(b - a)), report(b + 1e-7, abs(b + 1e-7 - a)))
    # final_gap is the last diff: it may move with its inputs, beyond abs 1e-12 ...
    assert abs(abs(b_moved - a) - abs(b - a)) > ABS_TOL
    assert json_mismatches(report(b, abs(b - a)), report(b_moved, abs(b_moved - a))) == []
    # ... but it must be the observed last diff, and close to the recorded one
    assert json_mismatches(report(b, abs(b - a)),
                           report(b, abs(b - a), gap=abs(b - a) * (1 + 1e-15)))
    moved = report(b, abs(b - a))
    moved["verdicts"]["R_0"]["final_gap"] = abs(b - a) + 1e-7
    assert json_mismatches(report(b, abs(b - a)), moved)
    flipped = report(b, abs(b - a))
    flipped["verdicts"]["R_0"]["final_gap_ok"] = False
    assert json_mismatches(report(b, abs(b - a)), flipped)


def test_threaded_blas_run_agrees(tmp_path):
    """A run on the default one-thread BLAS pool agrees with a run whose
    OPENBLAS_NUM_THREADS=2 keeps the threaded pool (the oracle), each in a fresh
    interpreter: ``r`` at 27 boundary points to rel 1e-12, a level-3 schedule
    report within the golden tolerances."""
    script = ("import sys\n"
              "from agres import cli, make_ifs, solve_r\n"
              "assert cli.main(['converge', '--target', '1/sqrt8', '--s', '0.5', '--n', '4..10',\n"
              "                 '--level', '3', '--out', sys.argv[1]]) == 0\n"
              "print(repr(solve_r(make_ifs('181/512'), 0.5).r))\n")
    runs = {}
    for threads in ("2", None):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run([sys.executable, "-c", script, str(out)], capture_output=True,
                              text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs[threads] = out, float(proc.stdout.strip().splitlines()[-1])
    (oracle, r_oracle), (capped, r_capped) = runs["2"], runs[None]
    assert math.isclose(r_capped, r_oracle, rel_tol=1e-12, abs_tol=0)
    names = sorted(p.name for p in oracle.iterdir())
    assert names == sorted(p.name for p in capped.iterdir())
    problems = [f"{name}: {msg}" for name in names for msg in artifact_mismatches(
        name, (oracle / name).read_text(), (capped / name).read_text())]
    assert not problems, "\n".join(problems[:20])


def record() -> None:
    """Write every case's artifacts into its golden directory (run with ``--out .``)."""
    for case, argv in sorted(CASES.items()):
        target = GOLDEN / case
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        os.chdir(target)
        _run(argv, Path("."))
        print(f"recorded {case}: {sorted(p.name for p in target.iterdir())}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    record()
