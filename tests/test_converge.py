"""Dyadic schedules, convergence reports, distance checks, variational diagnostics."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import agres
from agres import cli, converge
from agres.converge import (Target, convergence_report, dyadic_round, dyadic_schedule,
                            gamma_diagnostic, hausdorff_check)
from agres.errors import DomainError, UnknownVertex
from agres.geometry import _level_geometry, point_of_address
from agres.renorm import solve_r


class TestTarget:
    def test_parse_forms(self):
        assert Target.parse("1/4").kind == "rational"
        assert Target.parse("0.353553390593").kind == "rational"
        assert Target.parse("1/sqrt8").kind == "inv_sqrt"
        assert Target.parse("1/sqrt4").value == Fraction(1, 2)  # exact square collapses
        with pytest.raises(DomainError):
            Target.parse("1/sqrt-2")
        with pytest.raises(DomainError):
            Target.parse(0.25)

    @pytest.mark.parametrize("text,message", [("1/sqrtx", "malformed inverse square root"),
                                              ("abc", "cannot parse target")])
    def test_unparsable_targets(self, text, message):
        with pytest.raises(DomainError, match=message):
            Target.parse(text)

    def test_exact_comparison(self):
        t = Target.parse("1/sqrt8")
        # 1/sqrt(8) = 0.35355339...
        assert t.compare(Fraction(35, 100)) > 0
        assert t.compare(Fraction(36, 100)) < 0


class TestSchedule:
    def test_flagship_roundings(self):
        sched = dyadic_schedule("1/sqrt8", range(4, 11))
        by_n = dict(sched.entries)
        assert by_n[4] == Fraction(3, 8)      # round(16 t) = 6
        assert by_n[6] == Fraction(23, 64)    # round(64 t) = 23
        assert by_n[9] == Fraction(181, 512)
        assert by_n[10] == Fraction(181, 512)  # the next bit is zero

    def test_rounding_error_bound(self):
        t = Target.parse("1/sqrt8")
        for n in range(2, 16):
            lam = dyadic_round(t, n)
            assert abs(float(lam) - 8 ** -0.5) <= 2.0 ** -(n + 1) + 1e-15

    def test_rounding_is_the_exact_nearest_dyadic(self):
        # computed in a child process, so a rounding that walks one step at a time
        # from a float guess times out instead of hanging the suite
        targets = ["1/sqrt8", "1/sqrt5", "1/sqrt11", "1/3", "2/7", "11/32", "0.3"]
        ns = list(range(0, 80, 3)) + [100, 1100, 2048]
        code = ("import json, sys; from agres.converge import Target, dyadic_round; "
                "print(json.dumps([[str(dyadic_round(Target.parse(t), n)) for n in "
                f"{ns}] for t in {targets}]))")
        env = {**os.environ, "PYTHONPATH": str(Path(agres.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        for text, row in zip(targets, json.loads(proc.stdout)):
            t = Target.parse(text)
            for n, lam in zip(ns, map(Fraction, row)):
                k = lam * 2 ** n
                assert k.denominator == 1
                # half rounds up: (2k - 1)/2^(n+1) <= t < (2k + 1)/2^(n+1)
                assert t.compare(Fraction(2 * k - 1, 2 ** (n + 1))) >= 0
                assert t.compare(Fraction(2 * k + 1, 2 ** (n + 1))) < 0

    def test_negative_scale(self):
        with pytest.raises(DomainError):
            dyadic_round(Target.parse("1/sqrt8"), -3)

    def test_dyadic_target_is_fixed(self):
        sched = dyadic_schedule("1/4", range(2, 8))
        assert all(lam == Fraction(1, 4) for _, lam in sched.entries)

    def test_strictly_increasing_n(self):
        sched = dyadic_schedule("1/sqrt8", [7, 4, 6, 5, 4])
        ns = [n for n, _ in sched.entries]
        assert ns == sorted(set(ns))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            dyadic_schedule("3/4", range(4, 6))
        with pytest.raises(DomainError):
            dyadic_schedule("1/4", [])
        with pytest.raises(DomainError):
            dyadic_schedule("1/4", [1])  # rounds to 1/2, outside the domain


class TestConvergenceReport:
    def test_constant_schedule_all_zero_diffs(self):
        rep = convergence_report("1/4", 0.5, range(3, 7), [(((), 1), ((), 2))], m=2)
        for col in rep.diffs().values():
            assert max(col) <= 1e-9
        assert all(v["final_gap_ok"] for v in rep.verdicts.values())

    def test_normalization_row(self):
        rep = convergence_report("1/sqrt8", 0.5, range(4, 8),
                                 [(((), 1), ((), 2))], m=2)
        for row in rep.rows:
            assert row.resistances[0] == pytest.approx(2 / 3, abs=1e-8)
            assert 0.6 <= row.r < 1.0

    def test_tracked_word_longer_than_level(self):
        with pytest.raises(UnknownVertex, match="word longer than level 2"):
            convergence_report("1/4", 0.5, [3, 4], [(((1, 2, 3), 1), ((), 2))], m=2)

    def test_csv_and_json_shapes(self):
        rep = convergence_report("1/sqrt8", 0.5, range(4, 7),
                                 [(((4,), 1), ((4,), 2))], alpha=1.0, m=2)
        csv = rep.to_csv()
        lines = csv.strip().splitlines()
        assert lines[0].startswith("n,lambda_num,lambda_den,r,R_0,u_0")
        assert len(lines) == 1 + 3
        obj = rep.to_json_obj()
        assert len(obj["rows"]) == 3
        assert set(obj["verdicts"]) == {"r", "R_0", "u_0"}

    def test_each_distinct_lambda_is_solved_once(self, monkeypatch):
        solved = []

        def counted(ifs, s, **kwargs):
            solved.append(ifs.lam)
            return solve_r(ifs, s, **kwargs)

        monkeypatch.setattr(converge, "solve_r", counted)
        rep = convergence_report("1/sqrt8", 0.5, range(4, 11),
                                 [(((4,), 1), ((4,), 2))], alpha=1.0, m=2)
        assert len(rep.rows) == 7
        assert len(solved) == len(set(solved)) == 6
        row9, row10 = rep.rows[-2:]
        assert (row9.n, row10.n) == (9, 10) and row9.lam == row10.lam == Fraction(181, 512)
        assert replace(row10, n=9) == row9
        assert row10.resistances is not row9.resistances


@pytest.mark.parametrize("word, corner, message", [
    ((4, 5), 1, "bad letter in word (4, 5)"),
    ((4,), 4, "corner index must be 1, 2 or 3"),
    ((1, 2, 3), 1, "word longer than level 2"),
])
def test_a_bad_address_is_one_error_at_every_entry_point(tmp_path, capsys, monkeypatch,
                                                         word, corner, message):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started before the address check")

    monkeypatch.setattr(converge, "solve_r", no_solve)
    ifs = agres.make_ifs("1/4")
    calls = [lambda: convergence_report("1/4", 0.5, [3, 4], [((word, corner), ((), 2))], m=2),
             lambda: _level_geometry(ifs, 2).vid_of_address(word, corner)]
    if len(word) <= 2:  # any word names a point; only a level caps its length
        calls.append(lambda: point_of_address(ifs, word, corner))
    for call in calls:
        with pytest.raises(UnknownVertex) as info:
            call()
        assert str(info.value) == message
    pairs = f"({''.join(map(str, word))},{corner}):(,2)"
    code = cli.main(["converge", "--target", "1/sqrt8", "--s", "0.5", "--n", "4..5",
                     "--level", "2", "--pairs", pairs, "--out", str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
    assert err == {"type": "ValidationError", "message": f"pairs: {message}"}


class TestHausdorffCheck:
    def test_equal_parameters(self):
        est, bound, ok = hausdorff_check("1/4", "1/4", 6)
        assert est == 0.0 and ok

    def test_example_pair(self):
        est, bound, ok = hausdorff_check("1/8", "3/8", 8)
        assert bound == pytest.approx(0.5)
        assert ok and est <= 0.5 + 2 ** -7

    def test_negative_depth_is_a_domain_error(self):
        with pytest.raises(DomainError):
            hausdorff_check("1/8", "3/8", depth=-3)

    def test_random_dyadic_pairs(self):
        rng = np.random.default_rng(19)
        for _ in range(8):
            a = Fraction(int(rng.integers(1, 16)), 32)
            b = Fraction(int(rng.integers(1, 16)), 32)
            est, bound, ok = hausdorff_check(a, b, 7)
            assert ok


class TestGammaDiagnostic:
    def test_constant_data_zero_energy(self):
        table = gamma_diagnostic("1/sqrt8", 0.5, range(4, 6), (2.0, 2.0, 2.0), m=2)
        for row in table.rows:
            assert row.harmonic_energy == pytest.approx(0.0, abs=1e-12)
            assert row.transplant_energy == pytest.approx(0.0, abs=1e-10)
            assert row.minimality_ok

    def test_constant_schedule_constant_column(self):
        table = gamma_diagnostic("1/4", 0.5, range(3, 6), (1.0, 0.0, 0.0), m=2)
        h = [row.harmonic_energy for row in table.rows]
        assert max(h) - min(h) <= 1e-9
        t = [row.transplant_energy for row in table.rows]
        assert max(t) - min(t) <= 1e-9

    def test_minimality_and_convergence(self):
        table = gamma_diagnostic("1/sqrt8", 0.5, range(4, 8), (1.0, 0.0, 0.0), m=2)
        assert all(row.minimality_ok for row in table.rows)
        # the transplanted competitor's energy approaches the harmonic one
        gaps = [row.transplant_energy - row.harmonic_energy for row in table.rows]
        assert all(g >= -1e-12 for g in gaps)
        assert gaps[-1] == pytest.approx(0.0, abs=1e-9)  # last row transplants itself

    def test_each_distinct_lambda_is_solved_once(self, monkeypatch):
        solved = []

        def counted(ifs, s, **kwargs):
            solved.append(ifs.lam)
            return solve_r(ifs, s, **kwargs)

        monkeypatch.setattr(converge, "solve_r", counted)
        table = gamma_diagnostic("1/sqrt8", 0.5, range(8, 11), (1.0, 0.0, 0.0))
        assert solved == [Fraction(91, 256), Fraction(181, 512)]
        # n = 9 and 10 both round to 181/512: the table is the one that solving
        # every entry gives, its last row a copy of the row before under n = 10
        shorter = gamma_diagnostic("1/sqrt8", 0.5, range(8, 10), (1.0, 0.0, 0.0))
        assert table.rows == shorter.rows + [replace(shorter.rows[-1], n=10)]

    def test_csv(self):
        table = gamma_diagnostic("1/4", 0.5, [3, 4], (1.0, 0.0, 0.0), m=2)
        lines = table.to_csv().strip().splitlines()
        assert lines[0].startswith("n,lambda_num")
        assert len(lines) == 3


def test_second_irrational_target_schedule_and_solve():
    sched = dyadic_schedule("1/sqrt5", range(4, 9))
    assert dict(sched.entries)[6] == Fraction(29, 64)
    sol = agres.solve_r(agres.make_ifs(dict(sched.entries)[8]), 0.5)
    assert 0.6 <= sol.r < 1.0 and sol.residual <= 1e-8
