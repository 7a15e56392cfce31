import math
import random
import runpy
from pathlib import Path

import pytest

from bipack.conditions import (
    APPLIES,
    ConditionReport,
    DOES_NOT_APPLY,
    PRECONDITION_UNMET,
    busch,
    compare_theorems,
    degree_cap,
    diemunsch_bigraphic,
    diemunsch_graphic,
    lemma5_conditions,
    sauer_spencer,
    theorem1_conditions,
)
from bipack.graphs import BigraphicSequence, BipartiteGraph


def biclique(m, n):
    return BipartiteGraph(m, n, {(a, b) for a in range(m) for b in range(n)})


class TestSauerSpencer:
    def test_applies(self):
        assert sauer_spencer(2, 2, 10).verdict == APPLIES

    def test_boundary_is_strict(self):
        assert sauer_spencer(2, 2, 8).verdict == DOES_NOT_APPLY

    def test_empty_graph_packs(self):
        assert sauer_spencer(0, 5, 1).verdict == APPLIES


class TestBusch:
    def test_applies_delta_one(self):
        # Delta=3, delta=1, n=8: 3 < sqrt(16) = 4
        seq = [3, 1, 1, 1, 1, 1, 1, 1]
        assert busch(seq).verdict == APPLIES

    def test_strict_at_delta_one(self):
        # Delta=4, delta=1, n=8: 4 < 4 fails
        seq = [4, 1, 1, 1, 1, 1, 1, 1]
        assert busch(seq).verdict == DOES_NOT_APPLY

    def test_delta_two(self):
        # Delta=4, delta=2, n=5: 4 <= sqrt(20) - 1 ~ 3.47 fails
        seq = [4, 2, 2, 2, 2]
        assert busch(seq).verdict == DOES_NOT_APPLY

    def test_non_strict_above_delta_one(self):
        # Delta=3, delta=2, n=4: (3+1)^2 = 16 = 2*2*4 exactly -> applies
        seq = [3, 2, 2, 2]
        assert busch(seq).verdict == APPLIES

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            busch([])


class TestDiemunschGraphic:
    def test_case1_applies(self):
        r = diemunsch_graphic(2, 4, 1, 20)
        assert r.verdict == APPLIES and r.terms["case"] == 1

    def test_case1_fails(self):
        assert diemunsch_graphic(2, 4, 1, 10).verdict == DOES_NOT_APPLY

    def test_precondition_unmet(self):
        assert diemunsch_graphic(4, 3, 2, 10).verdict == PRECONDITION_UNMET

    def test_delta_min_zero_unmet(self):
        assert diemunsch_graphic(1, 2, 0, 10).verdict == PRECONDITION_UNMET

    def test_case2_branch(self):
        # Delta2+2 < Delta1+delta1: Delta1=6, delta1=5, Delta2=7
        r = diemunsch_graphic(6, 7, 5, 30)
        assert r.terms["case"] == 2
        # (7+1+6+5)^2 = 324 <= 4*(5*30+1) = 604
        assert r.verdict == APPLIES


class TestDiemunschBigraphic:
    def test_boundary_applies(self):
        assert diemunsch_bigraphic(1, 2, 1, 4, 4).verdict == APPLIES

    def test_fails(self):
        assert diemunsch_bigraphic(2, 2, 1, 4, 4).verdict == DOES_NOT_APPLY

    def test_precondition_unmet(self):
        assert diemunsch_bigraphic(0, 0, 0, 4, 4).verdict == PRECONDITION_UNMET

    def test_exact_boundary_integer(self):
        # 4 * 3 * 2 = 24 = r + s exactly -> applies
        assert diemunsch_bigraphic(3, 2, 1, 12, 12).verdict == PRECONDITION_UNMET
        assert diemunsch_bigraphic(2, 3, 1, 12, 12).verdict == APPLIES


class TestTheorem1Conditions:
    def test_k88_matching_fails_on_degree_cap(self):
        host = biclique(8, 8)
        target = BipartiteGraph(8, 8, {(i, i) for i in range(8)})
        r = theorem1_conditions(host, target, 0.4)
        assert r.terms["condition1"] is True
        assert r.terms["condition3"] is True
        assert r.terms["condition2"] is False
        assert r.terms["condition2Threshold"] == pytest.approx(
            0.4**4 * 8 / (100 * math.log(8))
        )
        assert r.verdict == DOES_NOT_APPLY

    def test_low_degree_host_fails_condition1(self):
        host = BipartiteGraph(
            4, 4,
            {(a, b) for a in range(4) for b in range(4) if not (a == 0 and b > 1)},
        )
        target = BipartiteGraph(4, 4, {(i, i) for i in range(4)})
        assert not theorem1_conditions(host, target, 0.1).terms["condition1"]

    def test_t_degree_two_fails_condition3(self):
        host = biclique(4, 4)
        target = BipartiteGraph(4, 4, {(0, 0), (1, 0)})
        assert not theorem1_conditions(host, target, 0.1).terms["condition3"]

    def test_eps_out_of_range(self):
        host = biclique(2, 2)
        with pytest.raises(ValueError):
            theorem1_conditions(host, host, 0.5)
        with pytest.raises(ValueError):
            theorem1_conditions(host, host, 0.0)

    def test_sub_verdict_monotonicity(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(2, 8)
            host = BipartiteGraph(
                n, n,
                frozenset(
                    (a, b) for a in range(n) for b in range(n) if rng.random() < 0.8
                ),
            )
            target = BipartiteGraph(n, n, {(i, i) for i in range(n)})
            eps_hi, eps_lo = 0.4, 0.1
            hi = theorem1_conditions(host, target, eps_hi).terms
            lo = theorem1_conditions(host, target, eps_lo).terms
            # condition 1 can only get easier as eps shrinks
            if hi["condition1"]:
                assert lo["condition1"]
            # condition 2's threshold grows with eps
            if lo["condition2"]:
                assert hi["condition2"]


class TestLemma5Conditions:
    def test_all_premises_hold(self):
        # complete host on 8 x 16 classes, 2-regular hub side
        host = biclique(8, 16)
        target = BipartiteGraph(
            8, 16, {(i, 2 * i) for i in range(8)} | {(i, 2 * i + 1) for i in range(8)}
        )
        # eps = 0.3 keeps z = 8 above the 2/eps size floor
        r = lemma5_conditions(host, target, 0.3, 2, 0.0)
        assert r.verdict == APPLIES

    def test_single_hub_notes_special_case(self):
        host = biclique(1, 4)
        target = BipartiteGraph(1, 4, {(0, b) for b in range(4)})
        r = lemma5_conditions(host, target, 0.25, 4, 0.0)
        assert r.verdict == DOES_NOT_APPLY  # z = 1 fails the size condition
        assert "single-vertex" in r.notes

    def test_delta_side_condition(self):
        host = biclique(8, 16)
        target = BipartiteGraph(8, 16, {(i, 2 * i) for i in range(8)})
        r = lemma5_conditions(host, target, 0.25, 1, 0.2)
        assert r.terms["deltaSideCondition"] is False


class TestCompareTheorems:
    def test_trivial_matching_pair(self):
        ones = BigraphicSequence((1,) * 5, (1,) * 5)
        reports = {r.theorem: r for r in compare_theorems(ones, ones)}
        assert reports["sauer-spencer"].verdict == APPLIES  # 1 < 10/2

    def test_delta_min_zero_gives_unmet(self):
        s1 = BigraphicSequence((1, 0), (1, 0))
        s2 = BigraphicSequence((1, 1), (1, 1))
        reports = {r.theorem: r for r in compare_theorems(s1, s2)}
        assert reports["diemunsch-graphic"].verdict == PRECONDITION_UNMET
        assert reports["diemunsch-bigraphic"].verdict == PRECONDITION_UNMET

    def test_remark_regime(self):
        # sparse star-forest-style pi1 against a dense complement pi2
        n = 2**14
        d1 = int(n / (100 * math.log(n)))
        s1 = BigraphicSequence((d1,) + (1,) * (n - 1), (1,) * n)
        d2 = n // 2
        s2 = BigraphicSequence((d2,) * n, (d2,) * n)
        reports = {r.theorem: r for r in compare_theorems(s1, s2)}
        assert reports["sauer-spencer"].verdict == DOES_NOT_APPLY
        assert reports["diemunsch-graphic"].verdict == DOES_NOT_APPLY
        assert reports["diemunsch-bigraphic"].verdict == DOES_NOT_APPLY

    def test_reports_serialize(self):
        ones = BigraphicSequence((1,), (1,))
        for r in compare_theorems(ones, ones):
            d = r.to_json_dict()
            assert set(d) == {"theorem", "verdict", "terms", "notes"}

    def test_compare_script_prints_notes_verbatim(self, capsys):
        script = Path(__file__).resolve().parents[1] / "scripts" / "compare_conditions.py"
        module = runpy.run_path(str(script), run_name="compare_conditions")
        note = "requires Delta2 >= Delta1"
        module["main"].__globals__["compare_theorems"] = lambda *args: [
            ConditionReport("busch", PRECONDITION_UNMET, notes=note)
        ]
        assert module["main"](["--powers", "4"]) == 0
        assert capsys.readouterr().out.rstrip().endswith(note)


class TestDegreeCap:
    def test_log_base_override(self):
        assert degree_cap(0.4, 64, log_base=2.0) == pytest.approx(
            0.4**4 * 64 / (100 * 6.0)
        )

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            degree_cap(0.4, 1)
