"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import math
import time
from contextlib import contextmanager
from itertools import product

import numpy as np
import pytest

from qnswitch.channels import DepolarizingChannel, random_density
from qnswitch.holevo import (
    holevo_information,
    min_output_entropy,
    min_output_entropy_n2,
)
from qnswitch.switch import (
    ControlSpec,
    assemble_blocks,
    closed_form_n2,
    closed_form_n3,
    completeness_defect,
    contract_pair,
    kraus_sum_output,
    realize,
)
from qnswitch.symgroup import ZeroSubset
from qnswitch.verify import CONTRACTION_TABLE_N2, CONTRACTION_TABLE_N3

# chi for 2 and 3 fully depolarizing channels, uniform control, d = 2..10,
# as published (4 rounded decimals).
PUBLISHED_CHI = {
    2: (0.0487, 0.0980),
    3: (0.0183, 0.0339),
    4: (0.0085, 0.0159),
    5: (0.0046, 0.0087),
    6: (0.0027, 0.0053),
    7: (0.0018, 0.0034),
    8: (0.0012, 0.0023),
    9: (0.0008, 0.0016),
    10: (0.0006, 0.0012),
}


@contextmanager
def criterion(name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE FAIL  {name}")
        raise
    print(f"ACCEPTANCE PASS  {name}")


def entropy_of(values):
    return -sum(v * math.log2(v) for v in values if v > 0)


def xlog2x(v):
    return v * math.log2(v) if v > 0 else 0.0


def test_criterion_1_published_chi_table():
    with criterion("1: chi table for d=2..10 and the ratio mean"):
        start = time.monotonic()
        ratios = []
        for d, (chi2_ref, chi3_ref) in PUBLISHED_CHI.items():
            chi2 = holevo_information(2, d, (0.0, 0.0), (0.5, 0.5)).chi
            chi3 = holevo_information(3, d, (0.0,) * 3, (1.0 / 6,) * 6).chi
            assert chi2 == pytest.approx(chi2_ref, abs=1e-3), f"chi_q2s at d={d}"
            assert chi3 == pytest.approx(chi3_ref, abs=1e-3), f"chi_q3s at d={d}"
            ratios.append(chi3 / chi2)
        mean = float(np.mean(ratios))
        assert 1.86 <= mean <= 2.00, f"ratio mean {mean}"
        assert time.monotonic() - start < 10.0


def test_criterion_2_spot_value_decomposition():
    with criterion("2: chi = log2(2) + 0.9544 - 1.9056 at d=2, q=0, p=1/2"):
        rep = holevo_information(2, 2, (0.0, 0.0), (0.5, 0.5))
        assert rep.chi == pytest.approx(0.0487, abs=5e-4)
        control_eigs = [0.625, 0.375]
        output_eigs = [0.25, 0.25, 0.375, 0.125]
        assert rep.h_control == pytest.approx(entropy_of(control_eigs), abs=1e-12)
        assert rep.h_min == pytest.approx(entropy_of(output_eigs), abs=1e-12)
        assert rep.h_control == pytest.approx(0.9544, abs=1e-3)
        assert rep.h_min == pytest.approx(1.9056, abs=1e-3)
        assert rep.chi == pytest.approx(1.0 + 0.9544 - 1.9056, abs=1e-3)


def test_criterion_3_closed_form_consistency():
    with criterion("3: corner closed forms vs the eigensolver path"):
        for d in (2, 3, 10, 100):
            corner = (
                math.log2(2 * d)
                - math.log2((d + 1) / (d - 1)) / (2 * d**2)
                - math.log2(1 - 1 / d**2) / (2 * d)
            )
            ctrl = ControlSpec(2, (0.5, 0.5))
            generic = min_output_entropy(closed_form_n2(0.0, 0.0, ctrl, d))
            assert abs(corner - generic) < 1e-10
            assert abs(min_output_entropy_n2(0.0, 0.0, 0.5, d) - generic) < 1e-10
            for q2 in np.linspace(0.0, 1.0, 5):
                p2 = 1.0 - q2
                two_term = -((d - 1) * xlog2x(p2 / d) + xlog2x(p2 / d + q2))
                for p in (0.25, 0.5):
                    ctrl_p = ControlSpec(2, (p, 1.0 - p))
                    generic = min_output_entropy(closed_form_n2(1.0, q2, ctrl_p, d))
                    assert abs(two_term - generic) < 1e-10
                    assert abs(min_output_entropy_n2(1.0, q2, p, d) - generic) < 1e-10


def test_criterion_4_brute_force_equivalence():
    with criterion("4: assembled blocks match the brute-force Kraus sum"):
        start = time.monotonic()
        rng = np.random.default_rng(42)
        for n, d in product((2, 3), (2, 3)):
            for _ in range(20):
                chans = [DepolarizingChannel(q, d) for q in rng.uniform(size=n)]
                ctrl = ControlSpec(n, tuple(rng.dirichlet(np.ones(math.factorial(n)))))
                rho = random_density(d, rng)
                dense = realize(assemble_blocks(chans, ctrl), rho)
                reference = kraus_sum_output(chans, ctrl, rho)
                assert np.abs(dense - reference).max() < 1e-10, (n, d)
        assert time.monotonic() - start < 60.0


def test_criterion_5_generalized_kraus_completeness():
    with criterion("5: generalized Kraus operators resolve the identity"):
        rng = np.random.default_rng(7)
        cases = [
            (2, (0.3, 0.7)),
            (2, (0.0, 0.0)),
            (2, (1.0, 1.0)),
            (2, (0.0, 0.5, 1.0)),
            (3, tuple(rng.uniform(size=2))),
            (3, tuple(rng.uniform(size=3))),
        ]
        for d, qs in cases:
            chans = [DepolarizingChannel(q, d) for q in qs]
            assert completeness_defect(chans) <= 1e-12, (d, qs)


def test_criterion_6_contraction_table_regression():
    with criterion("6: symbolic contractions match every tabulated pair"):
        for n, table in ((2, CONTRACTION_TABLE_N2), (3, CONTRACTION_TABLE_N3)):
            for members, pairs in table.items():
                zeros = ZeroSubset(n, members)
                for (k, kp), expected in pairs.items():
                    term = contract_pair(k, kp, zeros)
                    assert term == expected, (n, members, (k, kp), term)


def test_criterion_7_structural_properties():
    with criterion("7: symmetry, trace, positivity, chi bounds, order comparison"):
        rng = np.random.default_rng(11)
        for n, d in product((2, 3), (2, 3)):
            nf = math.factorial(n)
            chans = [DepolarizingChannel(q, d) for q in rng.uniform(size=n)]
            ctrl = ControlSpec(n, tuple(rng.dirichlet(np.ones(nf))))
            sbm = assemble_blocks(chans, ctrl)
            assert np.array_equal(sbm.a, sbm.a.T) and np.array_equal(sbm.b, sbm.b.T)
            assert abs(d * np.trace(sbm.a) + np.trace(sbm.b) - 1.0) < 1e-12
            dense = realize(sbm, random_density(d, rng))
            assert abs(np.trace(dense) - 1.0) < 1e-12
            assert np.linalg.eigvalsh(dense).min() >= -1e-10
            uniform = ControlSpec.uniform(n).probs
            definite = ControlSpec.definite(n, 1).probs
            for q in np.linspace(0.0, 1.0, 11):
                chi_sup = holevo_information(n, d, (q,) * n, uniform).chi
                chi_def = holevo_information(n, d, (q,) * n, definite).chi
                assert -1e-12 <= chi_sup <= math.log2(d) + 1e-12
                assert chi_sup >= chi_def - 1e-12


def test_criterion_8_equal_noise_curve_shape():
    with criterion("8: equal-noise chi curves dip to an interior minimum"):
        grid = np.linspace(0.0, 1.0, 101)
        for n in (2, 3):
            nf = math.factorial(n)
            uniform = (1.0 / nf,) * nf
            chis = [holevo_information(n, 2, (q,) * n, uniform).chi for q in grid]
            lowest = min(range(len(chis)), key=chis.__getitem__)
            assert 0 < lowest < len(grid) - 1, "minimum must be interior"
            assert chis[lowest] < chis[0] and chis[lowest] < chis[-1]
            assert chis[-1] == pytest.approx(math.log2(2), abs=1e-12)
