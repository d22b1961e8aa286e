"""Self-check suites behind the ``verify`` CLI subcommand.

Each suite exercises one exact identity or cross-check at small sizes and
reports pass/fail with a short detail string. The expected contraction
tables for two and three channels are frozen here; they double as
regression data for the test suite. Each (n, d)'s oracle points are one checked
stack; the N = 2 entropy points and each N's chi bounds are one block and one
spectral call over every d. Only the brute-force sum runs per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import channels as ch
from . import holevo as hv
from . import switch as sw
from .symgroup import ZeroSubset, _ranks, apply_order, enumerate_orders, zero_subsets

# ---------------------------------------------------------------------------
# Frozen contraction tables: zero-subset members -> {(k, k'): (word is I, power)}.
# ---------------------------------------------------------------------------

_I, _R = True, False

# Two channels: diagonal pairs contract to d^3 I, the swapped pair to
# d^2 rho; one pinned slot gives d I everywhere, both pinned give rho.
CONTRACTION_TABLE_N2 = {
    (): {
        (1, 1): (_I, 3),
        (2, 2): (_I, 3),
        (1, 2): (_R, 2),
        (2, 1): (_R, 2),
    },
    (1,): {(k, kp): (_I, 1) for k in (1, 2) for kp in (1, 2)},
    (2,): {(k, kp): (_I, 1) for k in (1, 2) for kp in (1, 2)},
    (1, 2): {(k, kp): (_R, 0) for k in (1, 2) for kp in (1, 2)},
}

# Three channels, no pinned slot: 18 pairs contract to d^3 I, 12 pairs to
# d^4 rho and the 6 diagonal pairs to d^5 I.
_N3_EMPTY_I3 = {
    (1, 6), (2, 4), (3, 5), (4, 2), (1, 2), (2, 1), (3, 4), (4, 3), (5, 6),
    (6, 5), (5, 3), (6, 1), (1, 3), (2, 5), (3, 1), (4, 6), (5, 2), (6, 4),
}
_N3_EMPTY_R4 = {
    (1, 4), (2, 6), (3, 2), (4, 5), (5, 1), (6, 3), (1, 5), (2, 3), (3, 6),
    (4, 1), (5, 4), (6, 2),
}

# Three channels, one pinned slot: per slot, 18 pairs give d^2 rho and the
# other 18 give d^3 I.
_N3_SINGLE_R2 = {
    1: {
        (2, 3), (3, 2), (2, 4), (4, 2), (3, 5), (5, 3), (3, 6), (6, 3), (4, 5),
        (5, 4), (4, 6), (6, 4), (5, 1), (1, 5), (1, 2), (2, 1), (1, 6), (6, 1),
    },
    2: {
        (1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6),
        (4, 1), (4, 2), (4, 3), (5, 1), (5, 2), (5, 3), (6, 1), (6, 2), (6, 3),
    },
    3: {
        (1, 3), (1, 4), (1, 6), (2, 3), (2, 4), (2, 6), (3, 1), (3, 2), (3, 5),
        (4, 1), (4, 2), (4, 5), (5, 3), (5, 4), (5, 6), (6, 1), (6, 2), (6, 5),
    },
}


def _n3_table() -> dict:
    all_pairs = [(k, kp) for k in range(1, 7) for kp in range(1, 7)]
    table: dict[tuple, dict] = {}
    empty = {}
    for pair in all_pairs:
        if pair[0] == pair[1]:
            empty[pair] = (_I, 5)
        elif pair in _N3_EMPTY_R4:
            empty[pair] = (_R, 4)
        else:
            assert pair in _N3_EMPTY_I3
            empty[pair] = (_I, 3)
    table[()] = empty
    for slot in (1, 2, 3):
        table[(slot,)] = {
            pair: ((_R, 2) if pair in _N3_SINGLE_R2[slot] else (_I, 3))
            for pair in all_pairs
        }
    for members in ((1, 2), (1, 3), (2, 3)):
        table[members] = {pair: (_I, 1) for pair in all_pairs}
    table[(1, 2, 3)] = {pair: (_R, 0) for pair in all_pairs}
    return table


CONTRACTION_TABLE_N3 = _n3_table()


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name, dev, tol) -> CheckResult:
    return CheckResult(name, dev <= tol, f"max deviation {dev:.3e} (tol {tol:.0e})")


def check_causal_orders(rng: np.random.Generator) -> CheckResult:
    enumerated = {n: enumerate_orders(n) for n in range(1, 7)}
    for n, orders in enumerated.items():
        ranks = _ranks(np.array([p.image for p in orders]))  # the labels less 1
        if not np.array_equal(ranks, np.arange(math.factorial(n))):  # so n! distinct orders
            return CheckResult("causal orders", False, f"n={n}: orders not ranked 0..n!-1")
        if sum(len(zero_subsets(n, z)) for z in range(n + 1)) != 2**n:
            return CheckResult("causal orders", False, f"n={n}: subset count != 2^n")
    for _ in range(50):
        n = int(rng.integers(1, 7))
        perm = enumerated[n][rng.integers(math.factorial(n))]
        seq = list(rng.integers(0, 100, size=n))
        if apply_order(perm, apply_order(perm.inverse(), seq)) != seq:
            return CheckResult("causal orders", False, "inverse round-trip failed")
    return CheckResult("causal orders", True, "enumeration, labels, subsets, round-trips")


def check_weyl_identities(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for d in (2, 3, 4):
        basis = ch.weyl_basis(d)
        stack = np.stack(basis.elements)
        gram = np.einsum("aij,bij->ab", stack.conj(), stack)
        worst = max(worst, np.abs(gram - d * np.eye(d * d)).max())
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        conj = sum(u @ x @ u.conj().T for u in basis.elements)
        worst = max(worst, np.abs(conj - d * np.trace(x) * np.eye(d)).max())
        expand = sum(np.trace(u.conj().T @ x) * u for u in basis.elements)
        worst = max(worst, np.abs(expand - d * x).max())
    return _result("weyl basis identities", worst, 1e-10)


def check_kraus_completeness(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for d in (2, 3, 4):
        for q in (0.0, 0.3, 1.0):
            ops = ch.kraus_set(q, d)
            total = sum(k.conj().T @ k for k in ops)
            worst = max(worst, np.abs(total - np.eye(d)).max())
    return _result("kraus completeness", worst, 1e-12)


def check_switch_completeness(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    cases = [
        (2, 2, (0.3, 0.7)),
        (3, 2, (0.0, 0.5, 1.0)),
        (2, 3, tuple(rng.uniform(size=2))),
    ]
    for n, d, qs in cases:
        chans = [ch.DepolarizingChannel(q, d) for q in qs]
        worst = max(worst, sw.completeness_defect(chans))
    return _result("switch kraus completeness", worst, 1e-12)


def check_oracle_equivalence(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for n, d in product((2, 3), (2, 3)):
        points = []
        for _ in range(3):
            chans = [ch.DepolarizingChannel(q, d) for q in rng.uniform(size=n)]
            ctrl = sw.ControlSpec(n, tuple(rng.dirichlet(np.ones(math.factorial(n)))))
            points.append((chans, ctrl, ch.random_density(d, rng)))
        chan_sets, ctrls, rhos = zip(*points)  # the blocks: the 3 x 3 q-by-P grid's diagonal
        q = np.array([[c.q for c in chans] for chans in chan_sets])
        blocks = sw._switch_blocks(n, (d,), q, np.array([c.probs for c in ctrls]))[::4]
        sw._check_blocks([d], blocks)
        for out, point in zip(sw._realize(blocks, np.array([r.entries for r in rhos])), points):
            worst = max(worst, np.abs(out - sw.kraus_sum_output(*point)).max())
    return _result("assembled blocks vs brute-force sum", worst, 1e-10)


def check_contraction_tables(rng: np.random.Generator) -> CheckResult:
    for n, table in ((2, CONTRACTION_TABLE_N2), (3, CONTRACTION_TABLE_N3)):
        for members, pairs in table.items():
            zeros = ZeroSubset(n, members)
            for (k, kp), expected in pairs.items():
                term = sw.contract_pair(k, kp, zeros)
                if term != expected:
                    return CheckResult(
                        "contraction tables",
                        False,
                        f"n={n} A={members} pair {(k, kp)}: got {term}",
                    )
    return CheckResult("contraction tables", True, "all tabulated pairs match")


def check_closed_forms(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for d in (2, 3):
        for n, closed_form in ((2, sw.closed_form_n2), (3, sw.closed_form_n3)):
            qs = rng.uniform(size=n)
            ctrl = sw.ControlSpec(n, tuple(rng.dirichlet(np.ones(math.factorial(n)))))
            closed = closed_form(*qs, ctrl, d)
            built = sw.assemble_blocks([ch.DepolarizingChannel(q, d) for q in qs], ctrl)
            worst = max(worst, np.abs(closed.a - built.a).max(), np.abs(closed.b - built.b).max())
    return _result("closed forms vs assembly", worst, 1e-14)


def check_min_entropy_consistency(rng: np.random.Generator) -> CheckResult:
    grid = np.linspace(0.0, 1.0, 5)
    q1, q2, p = np.array(list(product(grid, grid, (0.2, 0.5, 0.9)))).T
    ch._check_transparencies((q1, q2))
    sw._check_probabilities(np.stack([p, 1.0 - p], axis=1), 2)
    ds = [2, 3]
    d = np.repeat(ds, len(p))  # d slowest, as _block_entropies reads it
    q1, q2, p = np.tile([q1, q2, p], len(ds))
    blocks = sw._closed_form_n2_blocks(q1, q2, p, 1.0 - p, d)
    sw._check_blocks(ds, blocks)
    h_min, _ = hv._block_entropies(ds, blocks)
    worst = np.abs(h_min - hv._min_output_entropy_n2(q1, q2, p, d)).max()
    return _result("closed-form vs eigensolver entropy", worst, 1e-10)


def check_chi_bounds(rng: np.random.Generator) -> CheckResult:
    worst_bound = worst_gap = 0.0
    for n in (2, 3):
        nf = math.factorial(n)
        # 11 linked q values, each under uniform and under a definite order, at d = 2 and 3.
        q = np.repeat(np.linspace(0.0, 1.0, 11)[:, None], n, axis=1)
        probs = [[1.0 / nf] * nf, [1.0] + [0.0] * (nf - 1)]
        for d, chi in zip((2, 3), hv.holevo_batch(n, (2, 3), q, probs)[2]):
            uniform, definite = chi.T
            worst_bound = max(worst_bound, -uniform.min(), uniform.max() - math.log2(d))
            worst_gap = max(worst_gap, (definite - uniform).max())
    passed = worst_bound <= 1e-12 and worst_gap <= 1e-12
    return CheckResult(
        "chi bounds and definite-order comparison",
        passed,
        f"bound excess {worst_bound:.3e}, definite excess {worst_gap:.3e} (tol 1e-12)",
    )


def run_verification(seed: int = 42) -> list[CheckResult]:
    """Run every suite; deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    return [
        check_causal_orders(rng),
        check_weyl_identities(rng),
        check_kraus_completeness(rng),
        check_switch_completeness(rng),
        check_oracle_equivalence(rng),
        check_contraction_tables(rng),
        check_closed_forms(rng),
        check_min_entropy_consistency(rng),
        check_chi_bounds(rng),
    ]
