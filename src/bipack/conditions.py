"""Decision predicates for the packing theorems and their comparison report.

Verdicts use exact integer arithmetic wherever the governing inequality is
polynomial in the inputs (square-root comparisons are squared first). The
only transcendental is log n; the thresholds that use it are evaluated in
float.

Verdict values:
  "applies"            the theorem's inequality holds,
  "does-not-apply"     it does not,
  "precondition-unmet" the instance is outside the theorem's hypotheses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .graphs import BigraphicSequence, BipartiteGraph

APPLIES = "applies"
DOES_NOT_APPLY = "does-not-apply"
PRECONDITION_UNMET = "precondition-unmet"


@dataclass(frozen=True)
class ConditionReport:
    theorem: str
    verdict: str
    terms: dict = field(default_factory=dict)
    notes: str = ""

    @property
    def applies(self) -> bool:
        return self.verdict == APPLIES

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "verdict": self.verdict,
            "terms": dict(self.terms),
            "notes": self.notes,
        }


def _verdict(flag: bool) -> str:
    return APPLIES if flag else DOES_NOT_APPLY


def sauer_spencer(delta1: int, delta2: int, n: int) -> ConditionReport:
    """Packing by max degrees: applies iff 2 * D1 * D2 < n (exact)."""
    if delta1 < 0 or delta2 < 0 or n < 0:
        raise ValueError("inputs must be non-negative")
    holds = 2 * delta1 * delta2 < n
    return ConditionReport(
        "sauer-spencer",
        _verdict(holds),
        {"delta1": delta1, "delta2": delta2, "n": n, "lhs": delta1 * delta2, "rhs_times2": n},
    )


def busch(sum_sequence: Sequence[int]) -> ConditionReport:
    """Fixed-order packing from the positional sum sequence.

    Applies iff Delta <= sqrt(2 * delta * n) - (delta - 1), with strict
    inequality required when delta = 1. Decided by squaring with integers:
    (Delta + delta - 1)^2 <= 2 * delta * n.
    """
    if not sum_sequence:
        raise ValueError("sum sequence must be non-empty")
    n = len(sum_sequence)
    dmax = max(sum_sequence)
    dmin = min(sum_sequence)
    lhs = dmax + dmin - 1
    rhs = 2 * dmin * n
    if lhs < 0:
        holds = True
    elif dmin == 1:
        holds = lhs * lhs < rhs
    else:
        holds = lhs * lhs <= rhs
    return ConditionReport(
        "busch",
        _verdict(holds),
        {"Delta": dmax, "delta": dmin, "n": n, "lhs_squared": lhs * lhs, "rhs": rhs},
        notes="strict inequality enforced (delta = 1)" if dmin == 1 else "",
    )


def diemunsch_graphic(
    delta1_max: int, delta2_max: int, delta1_min: int, n: int
) -> ConditionReport:
    """Unordered graphic-sequence packing (two-case inequality)."""
    terms = {
        "Delta1": delta1_max,
        "Delta2": delta2_max,
        "delta1": delta1_min,
        "n": n,
    }
    if delta2_max < delta1_max or delta1_min < 1:
        return ConditionReport(
            "diemunsch-graphic",
            PRECONDITION_UNMET,
            terms,
            notes="requires Delta2 >= Delta1 and delta1 >= 1",
        )
    bound = delta1_min * n + 1
    if delta2_max + 2 >= delta1_max + delta1_min:
        lhs = (delta2_max + 1) * (delta1_max + delta1_min)
        holds = lhs <= bound
        terms.update({"case": 1, "lhs": lhs, "rhs": bound})
    else:
        # squared form multiplied through by 4 to stay in integers
        lhs = (delta2_max + 1 + delta1_max + delta1_min) ** 2
        holds = lhs <= 4 * bound
        terms.update({"case": 2, "lhs": lhs, "rhs_times4": 4 * bound})
    return ConditionReport("diemunsch-graphic", _verdict(holds), terms)


def diemunsch_bigraphic(
    delta1_max: int, delta2_max: int, delta1_min: int, r: int, s: int
) -> ConditionReport:
    """Bigraphic-sequence packing: applies iff 4 * D1 * D2 <= r + s."""
    terms = {
        "Delta1": delta1_max,
        "Delta2": delta2_max,
        "delta1": delta1_min,
        "r": r,
        "s": s,
    }
    if delta1_max > delta2_max or delta1_min < 1:
        return ConditionReport(
            "diemunsch-bigraphic",
            PRECONDITION_UNMET,
            terms,
            notes="requires Delta1 <= Delta2 and delta1 >= 1",
        )
    lhs = 4 * delta1_max * delta2_max
    terms.update({"lhs_times4": lhs, "rhs": r + s})
    return ConditionReport("diemunsch-bigraphic", _verdict(lhs <= r + s), terms)


def degree_cap(eps: float, n: int, log_base: float = math.e) -> float:
    """The sparse-side degree threshold eps^4 * n / (100 * log n)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if not math.isfinite(log_base) or log_base <= 1:
        raise ValueError("log base must be finite and exceed 1")
    return eps**4 * n / (100.0 * (math.log(n) / math.log(log_base)))


def theorem1_conditions(
    host: BipartiteGraph,
    target: BipartiteGraph,
    eps: float,
    log_base: float = math.e,
) -> ConditionReport:
    """The three hypotheses of the dense-host star-forest embedding theorem.

    1. every host degree on both sides exceeds (1/2 + eps) * n,
    2. every target S-degree is below eps^4 * n / (100 * log n),
    3. every target T-degree equals 1.
    """
    if not 0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    if host.m != host.n or target.m != target.n or host.n != target.n:
        raise ValueError("host and target must be n x n with the same n")
    n = host.n
    if n < 2:
        raise ValueError("n must be at least 2")
    min_host = host.min_degree()
    cond1 = min_host > (0.5 + eps) * n
    cap = degree_cap(eps, n, log_base)
    max_s = max(target.a_degrees) if target.m else 0
    cond2 = max_s < cap
    cond3 = all(d == 1 for d in target.b_degrees)
    return ConditionReport(
        "theorem1",
        _verdict(cond1 and cond2 and cond3),
        {
            "n": n,
            "eps": eps,
            "minHostDegree": min_host,
            "hostThreshold": (0.5 + eps) * n,
            "maxTargetSDegree": max_s,
            "condition2Threshold": cap,
            "condition1": cond1,
            "condition2": cond2,
            "condition3": cond3,
        },
    )


def lemma5_conditions(
    host: BipartiteGraph,
    target: BipartiteGraph,
    eps: float,
    m_level: int,
    delta: float,
) -> ConditionReport:
    """Premises of the per-pair embedding lemma on classes Z (size z) and W.

    Degree premises: d_G > (1/2+eps)n on Z, d_G > (1/2+eps/2)z on W,
    M <= d_H <= M(1+delta) on Z, d_H = 1 on W; side conditions
    z > max(2/eps, 3) and delta <= eps/10.
    """
    if host.m != target.m or host.n != target.n:
        raise ValueError("host and target must share classes")
    z, n = host.m, host.n
    cond_gz = all(d > (0.5 + eps) * n for d in host.a_degrees)
    cond_gw = all(d > (0.5 + eps / 2) * z for d in host.b_degrees)
    cond_hz = all(
        m_level <= d <= m_level * (1 + delta) for d in target.a_degrees
    )
    cond_hw = all(d == 1 for d in target.b_degrees)
    side_z = z > max(2.0 / eps, 3.0)
    side_delta = delta <= eps / 10
    notes = ""
    if z == 1:
        notes = (
            "single-vertex Z: a hub adjacent to all of W embeds trivially; "
            "the size side condition does not cover this case"
        )
    return ConditionReport(
        "lemma5",
        _verdict(cond_gz and cond_gw and cond_hz and cond_hw and side_z and side_delta),
        {
            "z": z,
            "n": n,
            "eps": eps,
            "M": m_level,
            "delta": delta,
            "hostDegreeOnZ": cond_gz,
            "hostDegreeOnW": cond_gw,
            "targetBandOnZ": cond_hz,
            "targetLeavesOnW": cond_hw,
            "sizeSideCondition": side_z,
            "deltaSideCondition": side_delta,
        },
        notes=notes,
    )


def compare_theorems(seq1: BigraphicSequence, seq2: BigraphicSequence) -> list:
    """Run every sequence-level checker on the parameters derived from two
    bigraphic sequences, for side-by-side comparison.

    Degree extremes are taken over both sides of each sequence; the graphic
    checkers see the sequences as length m+n degree lists. The graph-level
    hypotheses checker needs actual graphs and is not included.
    """
    if (seq1.m, seq1.n) != (seq2.m, seq2.n):
        raise ValueError("sequence shapes must match")
    all1 = seq1.a_degrees + seq1.b_degrees
    all2 = seq2.a_degrees + seq2.b_degrees
    d1_max, d1_min = max(all1), min(all1)
    d2_max = max(all2)
    order = seq1.m + seq1.n
    reports = [
        sauer_spencer(d1_max, d2_max, order),
        busch([x + y for x, y in zip(all1, all2)]),
        diemunsch_graphic(d1_max, d2_max, d1_min, order),
        diemunsch_bigraphic(d1_max, d2_max, d1_min, seq1.m, seq1.n),
    ]
    return reports
