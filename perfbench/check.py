"""Correctness check of one operation against the recorded reference outputs.

Floats must agree to the acceptance suite's relative tolerance of 1e-8, so
a different root finder may move the last digits but not the answer.
Strings, integers, booleans, exact coordinates (by hash), counts and
relation blocks must be equal.  Error estimates are checked against the
suite's bounds instead of the reference, and every solve's fixed-point
residual must stay within 1e-8.
"""

from __future__ import annotations

import math

REL_TOL = 1e-8
ABS_TOL = 1e-12
RESIDUAL_MAX = 1e-8
BOUNDS = {"row_mass_error": 1e-10, "symmetry_error": 1e-12}


def mismatches(expected, observed, path: str = "") -> list[str]:
    """Differences between a reference value and an observed one."""
    where = path or "<root>"
    if isinstance(expected, dict):
        if not isinstance(observed, dict) or set(expected) != set(observed):
            return [f"{where}: keys differ"]
        out = []
        for key in sorted(expected):
            sub = f"{path}.{key}" if path else key
            if key in BOUNDS:
                if not (isinstance(observed[key], (int, float))
                        and abs(observed[key]) <= BOUNDS[key]):
                    out.append(f"{sub}: {observed[key]!r} exceeds {BOUNDS[key]}")
                continue
            out.extend(mismatches(expected[key], observed[key], sub))
        return out
    if isinstance(expected, list):
        if not isinstance(observed, list) or len(expected) != len(observed):
            return [f"{where}: lengths differ"]
        out = []
        for i, (e, o) in enumerate(zip(expected, observed)):
            out.extend(mismatches(e, o, f"{path}[{i}]"))
        return out
    if isinstance(expected, float) and type(observed) in (int, float):
        if not math.isclose(expected, observed, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return [f"{where}: {observed!r} differs from reference {expected!r}"]
        return []
    if type(expected) is not type(observed) or expected != observed:
        return [f"{where}: {observed!r} differs from reference {expected!r}"]
    return []


def expected_output(reference: dict, workload: str, inp: dict, op: str) -> dict:
    """The reference summary of one operation of one workload."""
    ref = reference[workload]
    job, arg = op.split(" ", 1)
    if workload == "converge_sqrt8":
        pairs = [ref["pairs"][p] for p in inp["pairs"]]
        return {"rows": [dict(row, R=[p["R"][i] for p in pairs], u=[p["u"][i] for p in pairs])
                         for i, row in enumerate(ref["rows"]) if row["n"] == int(arg)]}
    return ref[job][arg]


def problems(reference: dict, workload: str, inp: dict, record: dict) -> list[str]:
    """Why one operation failed; empty when it passed."""
    if record.get("error"):
        return [record["error"].strip().splitlines()[-1]]
    out = [f"solve residual {r!r} exceeds {RESIDUAL_MAX}" for r in record["residuals"]
           if not r <= RESIDUAL_MAX]
    out += mismatches(expected_output(reference, workload, inp, record["op"]),
                      record["observed"])
    return out
