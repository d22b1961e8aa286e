"""Wrappers that attribute time and counts to qnswitch's layers.

The tracer replaces public functions in the module namespaces where their
callers look them up (``qnswitch.switch.contract_pair`` for the lookup in
``assemble_blocks``, ``qnswitch.holevo.assemble_blocks`` for the one in
``holevo_information``, and so on) and restores the originals on
``uninstall``. Nothing inside the package changes.

Every wrapped call is a frame on one stack, so a layer's self time is its
own time minus the time of the wrapped calls it made. Functions called once
per op or per point also record a span (name, start, end, parent, op id);
the ones called thousands of times per point (``contract_pair``,
``enumerate_orders`` and the like) keep only counts and times, because a
span per call would swamp what it measures.

A function that is missing from the package (renamed or removed by a later
change) is skipped; its metrics then read 0.
"""

from __future__ import annotations

import importlib
import json
from math import prod
from statistics import median
from time import perf_counter

import numpy as np

# Metric prefix -> (modules whose attribute is replaced, attribute name,
# record a span per call).
TARGETS = {
    "symgroup.enumerate_orders": (
        ("qnswitch.symgroup", "qnswitch.switch", "qnswitch.verify"), "enumerate_orders", False),
    "symgroup.zero_subsets": (
        ("qnswitch.symgroup", "qnswitch.switch", "qnswitch.verify"), "zero_subsets", False),
    "switch.contract_pair": (("qnswitch.switch",), "contract_pair", False),
    "switch.assemble_blocks": (("qnswitch.switch", "qnswitch.holevo"), "assemble_blocks", True),
    "switch.closed_form_n2": (("qnswitch.switch", "qnswitch.holevo"), "closed_form_n2", False),
    "switch.kraus_sum_output": (("qnswitch.switch",), "kraus_sum_output", True),
    "switch.completeness_defect": (("qnswitch.switch",), "completeness_defect", True),
    "channels.kraus_set": (("qnswitch.channels", "qnswitch.switch"), "kraus_set", False),
    "channels.weyl_basis": (("qnswitch.channels", "qnswitch.switch"), "weyl_basis", False),
    "holevo.holevo_information": (
        ("qnswitch.holevo", "qnswitch.cli"), "holevo_information", False),
    "holevo.min_output_entropy": (("qnswitch.holevo",), "min_output_entropy", False),
    "holevo.min_output_entropy_n2": (("qnswitch.holevo",), "min_output_entropy_n2", False),
    "holevo.von_neumann_entropy": (("qnswitch.holevo",), "von_neumann_entropy", False),
    "cli.main": (("qnswitch.cli",), "main", True),
}

VERIFY_CHECKS = (
    "check_causal_orders",
    "check_weyl_identities",
    "check_kraus_completeness",
    "check_switch_completeness",
    "check_oracle_equivalence",
    "check_contraction_tables",
    "check_closed_forms",
    "check_min_entropy_consistency",
    "check_chi_bounds",
)
for _check in VERIFY_CHECKS:
    TARGETS[f"verify.{_check}"] = (("qnswitch.verify",), _check, True)

EIGVALSH = "holevo.eigvalsh"
CONTRACT_PAIR = "switch.contract_pair"


class Tracer:
    """Per-op layer counters and spans for one process."""

    def __init__(self) -> None:
        self._names: list[str] = ["op"]
        self._child: list[float] = [0.0]
        self._patches: list[tuple[object, str, object, object]] = []
        self._seen_keys: set = set()
        self._acc: dict[str, list] = {name: [0, 0.0] for name in list(TARGETS) + [EIGVALSH]}
        self.counts = {"switch.contract_pair.distinct_keys": 0, "holevo.eigvalsh.rows": 0}
        self.spans: list[tuple[str, float, float, str, int]] = []
        self.op_id = -1

    # -- wrapping -----------------------------------------------------------
    #
    # The caller's child time is charged from the wrapper's entry to just
    # before it returns, plus ``_outer_leak``, the calibrated cost of calling
    # the wrapper and returning from it. The callee's self time covers only
    # the call itself, less ``_inner_leak``, the calibrated clock cost inside
    # it. The wrapper's own cost thus lands in no layer's self time; it shows
    # up as tracing overhead instead.

    _outer_leak = 0.0
    _inner_leak = 0.0

    def _frame(self, name: str, fn, span: bool, before=None, acc=None):
        names, child, spans = self._names, self._child, self.spans
        acc = self._acc[name] if acc is None else acc
        outer_leak, inner_leak = self._outer_leak, self._inner_leak

        def wrapper(*args, **kwargs):
            enter = perf_counter()
            if before is not None and before(args, kwargs):
                return fn(*args, **kwargs)
            names.append(name)
            child.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                names.pop()
                acc[0] += 1
                acc[1] += end - start - child.pop() - inner_leak
                if span:
                    spans.append((name, start, end, names[-1], self.op_id))
                child[-1] += perf_counter() - enter + outer_leak

        wrapper.__wrapped__ = fn
        return wrapper

    def _calibrate(self, calls: int = 5000, reps: int = 5) -> None:
        """Measure the wrapper's per-call cost outside and inside the callee."""

        def noop():
            return None

        self._outer_leak = self._inner_leak = 0.0
        probe = [0, 0.0]
        wrapped = self._frame("calibrate", noop, False, acc=probe)
        outer, inner = [], []
        for _ in range(reps):
            start = perf_counter()
            for _ in range(calls):
                pass
            empty = perf_counter() - start
            start = perf_counter()
            for _ in range(calls):
                noop()
            plain = perf_counter() - start
            probe[1] = self._child[-1] = 0.0
            start = perf_counter()
            for _ in range(calls):
                wrapped()
            total = perf_counter() - start
            outer.append((total - self._child[-1] - empty) / calls)
            inner.append((probe[1] - (plain - empty)) / calls)
        self._child[-1] = 0.0
        self._outer_leak = max(0.0, median(outer))
        self._inner_leak = max(0.0, median(inner))

    def _count_key(self, args, kwargs) -> bool:
        """Count contract_pair's (k, k', subset) keys first seen in this process."""
        if len(args) == 3 and not kwargs:
            k, kp, zeros = args
            key = (k, kp, getattr(zeros, "n", None), getattr(zeros, "members", zeros))
        else:
            key = (args, tuple(sorted(kwargs.items())))
        if key not in self._seen_keys:
            self._seen_keys.add(key)
            self.counts["switch.contract_pair.distinct_keys"] += 1
        return False

    def _count_rows(self, args, kwargs) -> bool:
        """Count eigenvalues asked of numpy by holevo functions; skip other callers."""
        if not self._names[-1].startswith("holevo."):
            return True
        matrix = args[0] if args else kwargs["a"]
        self.counts["holevo.eigvalsh.rows"] += prod(np.shape(matrix)[:-1])
        return False

    def install(self) -> None:
        """Put the wrappers in place, building them on first use.

        Targets missing from the imported package are skipped.
        """
        if not self._patches:
            self._calibrate()  # before any wrapper exists: they read the leaks
            for name, (modules, attr, span) in TARGETS.items():
                wrappers: dict[int, object] = {}  # one wrapper per original function
                for module_name in modules:
                    module = importlib.import_module(module_name)
                    fn = getattr(module, attr, None)
                    if fn is None:
                        continue
                    if id(fn) not in wrappers:
                        before = self._count_key if name == CONTRACT_PAIR else None
                        wrappers[id(fn)] = self._frame(name, fn, span, before)
                    self._patches.append((module, attr, fn, wrappers[id(fn)]))
            eigvalsh = np.linalg.eigvalsh
            self._patches.append((np.linalg, "eigvalsh", eigvalsh,
                                  self._frame(EIGVALSH, eigvalsh, False, self._count_rows)))
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore the original functions."""
        for module, attr, original, _ in reversed(self._patches):
            setattr(module, attr, original)

    # -- per-op accounting ----------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        for acc in self._acc.values():
            acc[:] = [0, 0.0]
        for name in self.counts:
            self.counts[name] = 0

    def end_op(self) -> dict:
        """Layer figures of the op just run, as plain JSON-able values."""
        return {
            "calls": {name: acc[0] for name, acc in self._acc.items()},
            "self_ms": {name: acc[1] * 1e3 for name, acc in self._acc.items()},
            "counts": dict(self.counts),
        }

    def dump_spans(self, path: str) -> None:
        with open(path, "a", encoding="utf-8") as handle:
            for name, start, end, parent, op_id in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "op": op_id}
                    )
                    + "\n"
                )
        self.spans.clear()
