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
from qnswitch.holevo import holevo_batch, min_output_entropy_n2
from qnswitch.switch import (
    ControlSpec,
    assemble_blocks,
    completeness_defect,
    contraction_table,
    kraus_sum_output,
    realize,
)
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
        dims = list(PUBLISHED_CHI)
        chis2 = holevo_batch(2, dims, [(0.0, 0.0)], [(0.5, 0.5)])[2][:, 0, 0]
        chis3 = holevo_batch(3, dims, [(0.0,) * 3], [(1.0 / 6,) * 6])[2][:, 0, 0]
        for (d, (chi2_ref, chi3_ref)), chi2, chi3 in zip(PUBLISHED_CHI.items(), chis2, chis3):
            assert chi2 == pytest.approx(chi2_ref, abs=1e-3), f"chi_q2s at d={d}"
            assert chi3 == pytest.approx(chi3_ref, abs=1e-3), f"chi_q3s at d={d}"
            ratios.append(chi3 / chi2)
        mean = float(np.mean(ratios))
        assert 1.86 <= mean <= 2.00, f"ratio mean {mean}"
        assert time.monotonic() - start < 10.0


def test_criterion_2_spot_value_decomposition():
    with criterion("2: chi = log2(2) + 0.9544 - 1.9056 at d=2, q=0, p=1/2"):
        h_min, h_control, chi = (
            float(v[0, 0, 0]) for v in holevo_batch(2, [2], [(0.0, 0.0)], [(0.5, 0.5)])
        )
        assert chi == pytest.approx(0.0487, abs=5e-4)
        control_eigs = [0.625, 0.375]
        output_eigs = [0.25, 0.25, 0.375, 0.125]
        assert h_control == pytest.approx(entropy_of(control_eigs), abs=1e-12)
        assert h_min == pytest.approx(entropy_of(output_eigs), abs=1e-12)
        assert h_control == pytest.approx(0.9544, abs=1e-3)
        assert h_min == pytest.approx(1.9056, abs=1e-3)
        assert chi == pytest.approx(1.0 + 0.9544 - 1.9056, abs=1e-3)


def test_criterion_3_closed_form_consistency():
    with criterion("3: corner closed forms vs the eigensolver path"):
        for d in (2, 3, 10, 100):
            corner = (
                math.log2(2 * d)
                - math.log2((d + 1) / (d - 1)) / (2 * d**2)
                - math.log2(1 - 1 / d**2) / (2 * d)
            )
            generic = holevo_batch(2, [d], [(0.0, 0.0)], [(0.5, 0.5)])[0][0, 0, 0]
            assert abs(corner - generic) < 1e-10
            closed = min_output_entropy_n2([d], [(0.0, 0.0)], [(0.5, 0.5)])[0, 0, 0]
            assert abs(closed - generic) < 1e-10
            q2s = np.linspace(0.0, 1.0, 5)
            q, probs = [(1.0, q2) for q2 in q2s], [(p, 1.0 - p) for p in (0.25, 0.5)]
            h_min = holevo_batch(2, [d], q, probs)[0][0]
            closed = min_output_entropy_n2([d], q, probs)[0]
            for i, q2 in enumerate(q2s):
                p2 = 1.0 - q2
                two_term = -((d - 1) * xlog2x(p2 / d) + xlog2x(p2 / d + q2))
                assert np.abs(two_term - h_min[i]).max() < 1e-10
                assert np.abs(closed[i] - h_min[i]).max() < 1e-10


def test_criterion_4_brute_force_equivalence():
    with criterion("4: assembled blocks match the brute-force Kraus sum"):
        start = time.monotonic()
        rng = np.random.default_rng(42)
        for n, d in product((2, 3), (2, 3)):
            for _ in range(20):
                q = rng.uniform(size=n)
                probs = rng.dirichlet(np.ones(math.factorial(n)))
                rho = random_density(d, rng)
                dense = realize(assemble_blocks(n, [d], [q], [probs])[0, 0, 0], rho)
                chans = [DepolarizingChannel(x, d) for x in q]
                reference = kraus_sum_output(chans, ControlSpec(n, tuple(probs)), rho)
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
        for n, frozen in ((2, CONTRACTION_TABLE_N2), (3, CONTRACTION_TABLE_N3)):
            table = contraction_table(n)
            for members, pairs in frozen.items():
                s = table.subsets.index(members)
                for (k, kp), expected in pairs.items():
                    u = table.column[k - 1, kp - 1]
                    term = (bool(table.identity[s, u]), int(table.power[s, u]))
                    assert term == expected, (n, members, (k, kp), term)


def test_criterion_7_structural_properties():
    with criterion("7: symmetry, trace, positivity, chi bounds, order comparison"):
        rng = np.random.default_rng(11)
        for n, d in product((2, 3), (2, 3)):
            nf = math.factorial(n)
            q, probs = rng.uniform(size=n), rng.dirichlet(np.ones(nf))
            a, b = assemble_blocks(n, [d], [q], [probs])[0, 0, 0]
            assert np.array_equal(a, a.T) and np.array_equal(b, b.T)
            assert abs(d * np.trace(a) + np.trace(b) - 1.0) < 1e-12
            dense = realize([a, b], random_density(d, rng))
            assert abs(np.trace(dense) - 1.0) < 1e-12
            assert np.linalg.eigvalsh(dense).min() >= -1e-10
            probs = [ControlSpec.uniform(n).probs, ControlSpec.definite(n, 1).probs]
            q = np.repeat(np.linspace(0.0, 1.0, 11)[:, None], n, axis=1)
            chi_sup, chi_def = holevo_batch(n, [d], q, probs)[2][0].T
            assert (-1e-12 <= chi_sup).all() and (chi_sup <= math.log2(d) + 1e-12).all()
            assert (chi_sup >= chi_def - 1e-12).all()


def test_criterion_8_equal_noise_curve_shape():
    with criterion("8: equal-noise chi curves dip to an interior minimum"):
        grid = np.linspace(0.0, 1.0, 101)
        for n in (2, 3):
            nf = math.factorial(n)
            uniform = (1.0 / nf,) * nf
            q = np.repeat(grid[:, None], n, axis=1)
            chis = holevo_batch(n, [2], q, [uniform])[2][0, :, 0].tolist()
            lowest = min(range(len(chis)), key=chis.__getitem__)
            assert 0 < lowest < len(grid) - 1, "minimum must be interior"
            assert chis[lowest] < chis[0] and chis[lowest] < chis[-1]
            assert chis[-1] == pytest.approx(math.log2(2), abs=1e-12)
