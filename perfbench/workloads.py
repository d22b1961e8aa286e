"""Seeded inputs for the four benchmark workloads.

Stdlib only: the worker that times the cold workload must not import numpy
itself, or its own memory would mix with that of the processes it times.

An op is one closed-loop iteration. It is a list of CLI commands (argv
lists without the program name) plus the grid points whose rows the op
must print, so the checker can rebuild every expected row from the seed.
Op ``WARMUP`` is the untimed warm-up op of the in-process workloads.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import product

WARMUP = -1

# Per-channel q axis lengths at N = 4: 3*3*2*1 = 18 q tuples, times two
# control vectors, gives 36 points per sweep op.
N4_AXES = (3, 3, 2, 1)
N2_SIDE = 41
N2_DIMS = (2, 3)


@dataclass(frozen=True)
class Point:
    """One Holevo point: n, d, transparencies and unnormalized probabilities.

    ``p`` is None for the CLI's 'uniform' keyword.
    """

    n: int
    d: int
    q: tuple[float, ...]
    p: tuple[float, ...] | None

    def probs(self) -> tuple[float, ...]:
        """Probabilities as the CLI normalizes them."""
        nf = math.factorial(self.n)
        if self.p is None:
            return (1.0 / nf,) * nf
        total = math.fsum(self.p)
        return tuple(v / total for v in self.p)


@dataclass(frozen=True)
class Op:
    commands: tuple[tuple[str, ...], ...]
    points: tuple[Point, ...]
    csv_path: str | None = None  # where a sweep writes its rows


# Workload name -> whether its ops run in-process through qnswitch.cli.main
# (True) or as a fresh ``python -m qnswitch.cli`` interpreter each (False).
WORKLOADS = {
    "sweep-n4-warm": True,
    "sweep-n2-plane": True,
    "cold-holevo-n4": False,
    "verify": True,
}


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _axis(rng: random.Random, count: int, lo: float = 0.05, hi: float = 0.95) -> list[float]:
    """Distinct sorted transparencies in [lo, hi] with 4 decimals."""
    values: set[float] = set()
    while len(values) < count:
        values.add(round(rng.uniform(lo, hi), 4))
    return sorted(values)


def _dirichlet(rng: random.Random, size: int) -> tuple[float, ...]:
    draws = [rng.gammavariate(1.0, 1.0) for _ in range(size)]
    total = math.fsum(draws)
    return tuple(v / total for v in draws)


def _join(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _sweep_n4(rng: random.Random, csv_path: str, tiny: bool) -> Op:
    axes = [_axis(rng, size) for size in ((1, 1, 1, 1) if tiny else N4_AXES)]
    control = _dirichlet(rng, 24)
    argv = ["sweep", "--n", "4", "--d", "2"]
    for axis in axes:
        argv += ["--q", _join(axis)]
    argv += ["--p", "uniform;" + _join(control), "--out", csv_path]
    points = tuple(
        Point(4, 2, qs, p) for qs in product(*axes) for p in (None, control)
    )
    return Op((tuple(argv),), points, csv_path)


def _sweep_n2(rng: random.Random, csv_path: str, tiny: bool) -> Op:
    side = 3 if tiny else N2_SIDE
    dims = N2_DIMS[:1] if tiny else N2_DIMS
    q1 = _axis(rng, side, 0.0, 1.0)
    q2 = _axis(rng, side, 0.0, 1.0)
    controls = [None]
    for _ in range(2):
        p = round(rng.uniform(0.05, 0.95), 4)
        controls.append((p, round(1.0 - p, 4)))
    p_arg = ";".join(["uniform"] + [_join(c) for c in controls[1:]])
    argv = ["sweep", "--n", "2", "--d", ",".join(map(str, dims))]
    argv += ["--q", _join(q1), "--q", _join(q2), "--p", p_arg, "--out", csv_path]
    points = tuple(
        Point(2, d, (a, b), c) for d in dims for a in q1 for b in q2 for c in controls
    )
    return Op((tuple(argv),), points, csv_path)


def _cold_holevo(rng: random.Random) -> Op:
    q = tuple(round(rng.uniform(0.05, 0.95), 4) for _ in range(4))
    argv = ("holevo", "--n", "4", "--d", "2", "--q", _join(q))
    return Op((argv,), (Point(4, 2, q, None),))


# table1 evaluates chi at q = 0 with uniform control for two and three
# channels at each d = 2..10 (its default --d-max).
TABLE1_POINTS = tuple(
    Point(n, d, (0.0,) * n, None) for d in range(2, 11) for n in (2, 3)
)


def _verify(rng: random.Random) -> Op:
    verify_seed = rng.randrange(2**31)
    return Op((("verify", "--seed", str(verify_seed)), ("table1",)), TABLE1_POINTS)


def make_op(workload: str, seed: int, index: int, out_dir: str, tiny: bool = False) -> Op:
    """The op number ``index`` of a run; WARMUP gives the warm-up op."""
    rng = _rng(workload, seed, index)
    tag = "warmup" if index == WARMUP else f"{index:05d}"
    csv_path = f"{out_dir}/op-{tag}.csv"
    if workload == "sweep-n4-warm":
        return _sweep_n4(rng, csv_path, tiny)
    if workload == "sweep-n2-plane":
        return _sweep_n2(rng, csv_path, tiny)
    if workload == "cold-holevo-n4":
        return _cold_holevo(rng)
    if workload == "verify":
        return _verify(rng)
    raise ValueError(f"unknown workload {workload!r}")
