"""A 40-digit oracle for the spectral stage at N = 3 and 4.

The oracle shares only the integer arrays of ``contraction_table(n)`` with the
code under test; those have their own gates (the frozen N = 2, 3 tables and the
loop rule). From them it builds the blocks a and b in mpmath, with every float
input taken exactly, solves a + b, a and d*a + b with ``mp.eigsy`` and sums the
entropies with 0 log 0 = 0. Every field of ``holevo_batch`` must lie within 1e-12
of the exact value, and where that value is at least 1e-6 in magnitude, both must
print the same 6 significant digits.
"""

import math

import numpy as np
import pytest
from mpmath import mp, mpf

from qnswitch import holevo_batch
from qnswitch.switch import contraction_table

DIGITS = 40


def _points():
    """20 (n, d, q, probs): interior q, q in {0, 1}, and Dirichlet controls with zeros."""
    rng = np.random.default_rng(2026)
    points = []
    for n, d in ((3, 2), (3, 3), (4, 2), (4, 3)):
        nf = math.factorial(n)
        support = rng.random(nf) < 0.4
        support[0] = True
        sparse = rng.dirichlet(np.ones(nf)) * support
        edges = rng.integers(0, 2, size=n).astype(float)
        points += [
            (n, d, rng.uniform(size=n), rng.dirichlet(np.ones(nf))),
            (n, d, rng.uniform(size=n), sparse / sparse.sum()),
            (n, d, edges, np.full(nf, 1.0 / nf)),
            (n, d, edges, sparse / sparse.sum()),
            (n, d, np.zeros(n) if d == 2 else np.ones(n), np.eye(nf)[nf - 1]),
        ]
    return points


POINTS = _points()


def _entropy(matrix) -> mpf:
    return sum((-x * mp.log(x, 2) for x in mp.eigsy(matrix, eigvals_only=True) if x > 0), mpf(0))


def _exact(n: int, d: int, q, probs) -> tuple[mpf, mpf, mpf]:
    """(h_min, h_control, chi) of one point at DIGITS digits from the table's integer arrays."""
    table = contraction_table(n)
    qs = [mpf(float(v)) for v in q]
    sums = np.zeros((2, table.identity.shape[1]), dtype=object)  # [I or rho, column]
    for s, members in enumerate(table.subsets):
        weight = mpf(d) ** (2 * (len(members) - n))
        for j in range(1, n + 1):
            weight *= qs[j - 1] if j in members else 1 - qs[j - 1]
        for u in range(table.identity.shape[1]):
            sums[0 if table.identity[s, u] else 1, u] += weight * mpf(d) ** int(table.power[s, u])
    # Orders with P_k = 0 give zero rows and columns, whose zero eigenvalues add no entropy.
    live = [k for k in range(len(probs)) if probs[k] > 0.0]
    amps = [mp.sqrt(mpf(float(probs[k]))) for k in live]
    a, b = (
        mp.matrix([[amps[i] * amps[j] * part[table.column[k, kp]] for j, kp in enumerate(live)]
                   for i, k in enumerate(live)])
        for part in sums
    )
    h_min = _entropy(a + b) + (d - 1) * _entropy(a)
    h_control = _entropy(d * a + b)
    return h_min, h_control, mp.log(d, 2) + h_control - h_min


@pytest.mark.parametrize(
    "n,d,q,probs", POINTS, ids=[f"n{p[0]}-d{p[1]}-{i % 5}" for i, p in enumerate(POINTS)]
)
def test_every_field_matches_the_exact_value(n, d, q, probs):
    got = [float(v[0, 0, 0]) for v in holevo_batch(n, [d], [q], [probs])]
    with mp.workdps(DIGITS):
        exact = _exact(n, d, q, probs)
        errors = [abs(mpf(value) - ref) for value, ref in zip(got, exact)]
    for name, value, ref, error in zip(("h_min", "h_control", "chi"), got, exact, errors):
        assert error <= 1e-12, (name, value, str(ref))
        if abs(ref) >= 1e-6:
            assert f"{value:.6g}" == f"{float(ref):.6g}", (name, value, str(ref))
