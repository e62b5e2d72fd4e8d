"""Record reference.json: the outputs of every input any seed can choose.

Usage, from the root of a checkout: python3 perfbench/record_reference.py

Run this only on a commit whose outputs are trusted; the benchmark then
checks every later commit against the recorded values.
"""

from __future__ import annotations

import json
import shutil

import worker
import workloads
from workloads import (CONTACT_DYADIC, CONTACT_FIXED, CONTACT_NON_DYADIC, CONVERGE_PAIRS,
                       RESISTANCE_LAMBDAS, RESOLVENT_LAMBDAS)

OUT = worker.ROOT / ".perfbench_out" / "reference"


def _ops(workload: str, inp: dict) -> dict:
    """Observed summary of every operation of one in-process round."""
    out = OUT / workload
    out.mkdir(parents=True)
    try:
        result = worker.execute(workload, inp, out, traced=False)
    finally:
        shutil.rmtree(out)
    observed = {}
    for record in result["rounds"][0]["ops"]:
        if record["error"]:
            raise RuntimeError(f"{record['op']} failed:\n{record['error']}")
        observed[record["op"]] = record["observed"]
    return observed


def record() -> dict:
    converge = workloads.inputs("converge_sqrt8", workloads.DEFAULT_SEED)
    converge["pairs"] = list(CONVERGE_PAIRS)
    rows = [row for observed in _ops("converge_sqrt8", converge).values()
            for row in observed["rows"]]
    reference = {"converge_sqrt8": {
        "rows": [{"n": row["n"], "lambda": row["lambda"], "r": row["r"]} for row in rows],
        "pairs": {pair: {"R": [row["R"][k] for row in rows], "u": [row["u"][k] for row in rows]}
                  for k, pair in enumerate(CONVERGE_PAIRS)},
    }}

    level = {"resistance": {}, "resolvent": {}}
    for lam, res in zip(RESISTANCE_LAMBDAS, RESOLVENT_LAMBDAS):
        for op, observed in _ops("level_realize", {"resistance": lam, "resolvent": res}).items():
            job, lam = op.split(" ", 1)
            level[job][lam] = observed
    reference["level_realize"] = level

    contact = {"boundary": {}, "graph": {}, "relations": {}}
    lambdas = list(CONTACT_FIXED + CONTACT_NON_DYADIC + CONTACT_DYADIC)
    for op, observed in _ops("contact_oracle", {"lambdas": lambdas}).items():
        job, lam = op.split(" ", 1)
        contact[job][lam] = observed
    reference["contact_oracle"] = contact
    return reference


if __name__ == "__main__":
    ref = record()
    (worker.ROOT / "perfbench" / "reference.json").write_text(
        json.dumps(ref, indent=1, sort_keys=True) + "\n")
