"""Self-tests of the benchmark harness: python3 -m pytest perfbench -q"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import calib
import check
import run
import spans
import worker
import workloads

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_self_time_subtracts_union_of_children():
    synthetic = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 3.0, 0],
        ["b", 2.0, 5.0, 0],        # overlaps a: the covered time counts once
        ["c", 8.0, 12.0, 0],       # runs past its parent: clipped at 10
        ["a", 2.5, 2.75, 2],       # grandchild: charged to b only
    ]
    selfs = spans.self_times(synthetic)
    assert selfs["root"] == (pytest.approx(10.0 - 4.0 - 2.0), 1)
    assert selfs["b"] == (pytest.approx(3.0 - 0.25), 1)
    assert selfs["c"] == (pytest.approx(4.0), 1)
    assert selfs["a"] == (pytest.approx(2.0 + 0.25), 2)


def test_spans_catch_calls_through_imported_names():
    code = (
        "import sys; sys.path.insert(0, 'perfbench'); import worker, spans, agres\n"
        "t = spans.Tracer(); spans.install(t, {})\n"
        "agres.solve_r(agres.make_ifs('1/4'), 0.5)\n"
        "names = {s[0] for s in t.spans}\n"
        "kids = {t.spans[s[3]][0] + '>' + s[0] for s in t.spans if s[3] is not None}\n"
        "print(sorted(names)); print(sorted(kids))\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE.parent, check=True,
                         capture_output=True, text=True).stdout
    names, kids = out.splitlines()
    assert "renorm.solve_r" in names and "renorm.eigen_solve" in names
    assert "renorm.solve_r>renorm.eigen_solve" in kids
    assert "renorm.solve_r>geometry.boundary_set" in kids


@pytest.fixture(scope="module")
def reference():
    return json.loads((HERE / "reference.json").read_text())


def _records(reference, workload, seed):
    inp = workloads.inputs(workload, seed)
    return inp, [{"op": op, "error": None, "residuals": [1e-12],
                  "observed": copy.deepcopy(check.expected_output(reference, workload, inp, op))}
                 for op in workloads.operations(workload, inp)]


def _corrupt_first_float(obj, factor):
    if isinstance(obj, dict):
        items = sorted(obj.items())
    elif isinstance(obj, list):
        items = list(enumerate(obj))
    else:
        return False
    for key, value in items:
        if isinstance(value, float) and key not in check.BOUNDS and value != 0.0:
            obj[key] = value * factor
            return True
        if _corrupt_first_float(value, factor):
            return True
    return False


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 3, workloads.HELD_OUT_SEED])
def test_reference_outputs_pass_and_corrupted_ones_fail(reference, workload, seed):
    inp, records = _records(reference, workload, seed)
    for record in records:
        assert check.problems(reference, workload, inp, record) == []
        close = copy.deepcopy(record)
        if _corrupt_first_float(close["observed"], 1 + 1e-11):
            assert check.problems(reference, workload, inp, close) == []
        bad = copy.deepcopy(record)
        if _corrupt_first_float(bad["observed"], 1 + 1e-6):
            assert check.problems(reference, workload, inp, bad)


def test_exact_fields_bounds_residuals_and_errors_fail(reference):
    inp, records = _records(reference, "contact_oracle", 0)
    graph = next(r for r in records if r["op"].startswith("graph"))
    graph["observed"]["edges"] += 1
    assert check.problems(reference, "contact_oracle", inp, graph)
    boundary = next(r for r in records if r["op"].startswith("boundary"))
    boundary["observed"]["oracle_equals_fast"] = False
    assert check.problems(reference, "contact_oracle", inp, boundary)

    inp, records = _records(reference, "level_realize", 0)
    resolvent = next(r for r in records if r["op"].startswith("resolvent"))
    resolvent["observed"]["row_mass_error"] = 1e-9
    assert check.problems(reference, "level_realize", inp, resolvent)
    resistance = next(r for r in records if r["op"].startswith("resistance"))
    resistance["residuals"] = [2e-8]
    assert check.problems(reference, "level_realize", inp, resistance)
    resistance["residuals"], resistance["error"] = [], "Traceback\nRuntimeError: exit code 3"
    assert check.problems(reference, "level_realize", inp, resistance) == [
        "RuntimeError: exit code 3"]


def test_inputs_are_seeded_and_stay_in_their_work_class():
    assert workloads.inputs("contact_oracle", workloads.DEFAULT_SEED) == {
        "lambdas": ["1/4", "1/8", "1/7", "3/16"]}
    for workload in workloads.WORKLOADS:
        for seed in range(20):
            inp = workloads.inputs(workload, seed)
            assert inp == workloads.inputs(workload, seed)
            if workload == "converge_sqrt8":
                assert len(set(inp["pairs"])) == 2
                assert set(inp["pairs"]) <= set(workloads.CONVERGE_PAIRS)
            elif workload == "level_realize":
                assert inp["resistance"] in workloads.RESISTANCE_LAMBDAS
                assert inp["resolvent"] in workloads.RESOLVENT_LAMBDAS
            else:
                fixed, extra = inp["lambdas"][:2], inp["lambdas"][2:]
                assert tuple(fixed) == workloads.CONTACT_FIXED
                assert extra[0] in workloads.CONTACT_NON_DYADIC
                assert extra[1] in workloads.CONTACT_DYADIC


def test_benchmark_json_names_and_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in bench["end_to_end"] + bench["per_layer"])
    assert tuple(w["name"] for w in bench["workloads"]) == workloads.WORKLOADS
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    reported = set(worker.layer_metrics(spans.Tracer(), 0.0))
    reported |= {"network.condition_warnings", "cli.artifact_bytes", "traced_wall_s",
                 "trace_overhead"}
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: run.layer_unit(name) for name in reported}


def test_times_scale_by_the_reference_speed():
    slow = 2 * calib.REFERENCE_S
    assert calib.scaled(3.0, slow, slow) == pytest.approx(1.5)
    assert calib.scaled(3.0, calib.REFERENCE_S, slow) == pytest.approx(2.0)
    assert calib.reading() > 0


def test_only_a_later_last_round_may_stop_early(reference):
    inp, records = _records(reference, "contact_oracle", 0)
    whole, prefix = {"ops": records}, {"ops": records[:4]}
    assert run.check_rounds(reference, "contact_oracle", inp, [whole, prefix]) == (16, [])
    attempted, failures = run.check_rounds(reference, "contact_oracle", inp, [prefix])
    assert attempted == 12 and len(failures) == 8
    attempted, failures = run.check_rounds(reference, "contact_oracle", inp,
                                           [whole, prefix, whole])
    assert attempted == 36 and len(failures) == 8
