import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnswitch.channels import (
    MAX_DIMENSION,
    DensityMatrix,
    DepolarizingChannel,
    kraus_set,
    random_density,
    weyl_basis,
)
import qnswitch.switch as sw
from qnswitch.errors import NumericalError, SizeLimitError
from qnswitch.holevo import (
    EIGENVALUE_SLACK,
    _entropy_rows,
    _min_output_entropy_n2,
    holevo_batch,
    min_output_entropy_n2,
)
from qnswitch.switch import (
    ControlSpec,
    SwitchBlockMatrix,
    assemble_blocks,
    closed_form_n2,
    closed_form_n3,
    realize,
)
from qnswitch.symgroup import enumerate_orders
from reference import apply_depolarizing


def entropy_of(probabilities):
    return -sum(p * math.log2(p) for p in probabilities if p > 0)


def two_channel_blocks(q1, q2, p, d):
    return closed_form_n2(q1, q2, ControlSpec(2, (p, 1.0 - p)), d)


def control_marginal(sbm):
    """The reduced control state: tracing a block a*I + b*rho over the target gives d*a + b."""
    return sbm.d * sbm.a + sbm.b


def holevo_point(n, d, q, probs):
    """(h_min, h_control, chi) of one point: the 1 x 1 x 1 grid of ``holevo_batch``."""
    return [float(v[0, 0, 0]) for v in holevo_batch(n, [d], [q], [probs])]


def _reference_entropy(spectrum):
    """Entropy in bits of one spectrum, summed over its positive values alone."""
    v = spectrum[spectrum > 0]
    return (-(v * np.log2(v))).sum() + 0.0


def reference_min_entropy(sbm):
    """H_min of one block matrix from numpy's spectra of its pencil alone.

    At a one-hot target the output is a + b once and a d - 1 times, each n! x n!.
    """
    top, rest = np.linalg.eigvalsh(sbm.a + sbm.b), np.linalg.eigvalsh(sbm.a)
    return _reference_entropy(np.concatenate([top, np.tile(rest, sbm.d - 1)]))


class TestVonNeumannEntropy:
    # The entropy sum itself: _entropy_rows over spectra, with 0*log(0) = 0.
    def test_maximally_mixed(self):
        for n in (2, 3, 6):
            assert _entropy_rows(np.full((1, n), 1.0 / n))[0] == pytest.approx(
                math.log2(n), abs=1e-12
            )

    def test_pure_state(self):
        # Exact zeros and values in the slack band below 0 add nothing.
        spectra = np.array([[0.0, -0.0, 1.0], [1.0, -EIGENVALUE_SLACK, 0.0]])
        assert _entropy_rows(spectra).tolist() == [0.0, 0.0]

    def test_control_marginal_of_erased_qubit_pair(self):
        marginal = control_marginal(two_channel_blocks(0.0, 0.0, 0.5, 2))
        np.testing.assert_allclose(marginal, [[0.5, 0.125], [0.125, 0.5]], atol=1e-15)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(marginal), [0.375, 0.625], atol=1e-15
        )
        expected = entropy_of([0.625, 0.375])
        _, value, _ = holevo_point(2, 2, (0.0, 0.0), (0.5, 0.5))
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.9544, abs=1e-4)

    def test_rejects_indefinite(self):
        with pytest.raises(NumericalError, match="negative eigenvalue"):
            _entropy_rows(np.array([[0.5, 0.5], [1.5, -0.5]]))
        with pytest.raises(NumericalError, match="negative eigenvalue"):
            _entropy_rows(np.array([[1.0 + 2 * EIGENVALUE_SLACK, -2 * EIGENVALUE_SLACK]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]))

    @pytest.mark.parametrize(
        "matrix,message",
        [
            (np.array([[0.5, 0.1 + 1e-11], [0.1, 0.5]]), "Hermitian"),
            (np.diag([0.5 + 1e-11, 0.5]), "trace"),
            (np.diag([1.0 + 5e-10, -5e-10]), "negative eigenvalue"),
            # NaN fails every comparison, so only a finiteness test catches it.
            (np.diag([math.nan, 1.0]), "finite"),
            (np.array([[0.5, math.nan], [math.nan, 0.5]]), "finite"),
            (np.diag([math.inf, 1.0]), "finite"),
            (np.diag([complex(0.0, math.nan), 1.0]), "finite"),
        ],
    )
    def test_density_matrix_rule(self, matrix, message):
        # One density-matrix rule: finite entries, 1e-12 on Hermiticity and
        # trace, -1e-10 on eigenvalues.
        with pytest.raises(ValueError, match=message):
            DensityMatrix(matrix)


class TestControlMarginal:
    def test_diagonal_equals_probs(self, rng):
        for n, d in ((2, 2), (3, 2), (3, 3)):
            probs = tuple(rng.dirichlet(np.ones(math.factorial(n))))
            chans = [DepolarizingChannel(q, d) for q in rng.uniform(size=n)]
            marginal = control_marginal(assemble_blocks(chans, ControlSpec(n, probs)))
            np.testing.assert_allclose(np.diag(marginal), probs, atol=1e-12)
            assert abs(np.trace(marginal) - 1.0) < 1e-12

    def test_two_channel_off_diagonal(self, rng):
        q1, q2, p, d = 0.2, 0.7, 0.3, 3
        r0 = (1 - q1) * (1 - q2)
        r1 = q1 * (1 - q2) + q2 * (1 - q1)
        r2 = q1 * q2
        marginal = control_marginal(two_channel_blocks(q1, q2, p, d))
        expected = math.sqrt(p * (1 - p)) * (r0 / d**2 + r1 + r2)
        assert marginal[0, 1] == pytest.approx(expected, abs=1e-15)

    def test_transparent_channels_leave_control_untouched(self, rng):
        ctrl = ControlSpec(2, (0.3, 0.7))
        marginal = control_marginal(closed_form_n2(1.0, 1.0, ctrl, 2))
        np.testing.assert_allclose(marginal, ctrl.density(), atol=1e-15)

    def test_matches_partial_trace_of_realization(self, rng):
        n, d = 3, 2
        chans = [DepolarizingChannel(q, d) for q in rng.uniform(size=n)]
        ctrl = ControlSpec(n, tuple(rng.dirichlet(np.ones(6))))
        sbm = assemble_blocks(chans, ctrl)
        dense = realize(sbm, random_density(d, rng))
        nf = math.factorial(n)
        traced = np.zeros((nf, nf))
        for k in range(nf):
            for kp in range(nf):
                traced[k, kp] = np.trace(
                    dense[k * d : (k + 1) * d, kp * d : (kp + 1) * d]
                ).real
        np.testing.assert_allclose(control_marginal(sbm), traced, atol=1e-12)


class TestMinOutputEntropy:
    def test_erased_qubit_pair_spectrum(self):
        value, _, _ = holevo_point(2, 2, (0.0, 0.0), (0.5, 0.5))
        expected = entropy_of([0.25, 0.25, 0.375, 0.125])
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(1.9056, abs=1e-4)

    def test_transparent_channels_give_pure_output(self):
        # q = 1 leaves rho tensor rho_c intact; both factors are pure, so the
        # minimum output entropy vanishes and chi reaches log2(d).
        for n in (2, 3):
            value, _, _ = holevo_point(n, 2, (1.0,) * n, ControlSpec.uniform(n).probs)
            assert value == pytest.approx(0.0, abs=1e-12)

    def test_one_transparent_channel_matches_two_term_form(self):
        d, q2, p = 2, 0.35, 0.4
        value, _, _ = holevo_point(2, d, (1.0, q2), (p, 1.0 - p))
        p2 = 1.0 - q2
        expected = -(
            (d - 1) * (p2 / d) * math.log2(p2 / d)
            + (p2 / d + q2) * math.log2(p2 / d + q2)
        )
        assert value == pytest.approx(expected, abs=1e-12)

    def test_one_hot_position_symmetry(self, rng):
        d, q, probs = 3, tuple(rng.uniform(size=2)), (0.4, 0.6)
        sbm = assemble_blocks([DepolarizingChannel(x, d) for x in q], ControlSpec(2, probs))
        entropies = []
        for index in range(d):
            dense = realize(sbm, DensityMatrix.basis_state(d, index))
            entropies.append(_reference_entropy(np.linalg.eigvalsh(dense)))
        assert max(entropies) - min(entropies) < 1e-12
        h_min, _, _ = holevo_point(2, d, q, probs)
        assert entropies[0] == pytest.approx(h_min, abs=1e-12)


class TestMinOutputEntropyClosedForm:
    def test_fully_depolarizing_corner(self):
        for d in (2, 3, 10):
            value = min_output_entropy_n2(0.0, 0.0, 0.5, d)
            expected = (
                math.log2(2 * d)
                - math.log2((d + 1) / (d - 1)) / (2 * d**2)
                - math.log2(1 - 1 / d**2) / (2 * d)
            )
            assert value == pytest.approx(expected, abs=1e-12)

    def test_both_transparent(self):
        assert min_output_entropy_n2(1.0, 1.0, 0.5, 2) == pytest.approx(0.0, abs=1e-12)

    def test_one_transparent_depends_only_on_other_channel(self):
        d, q2 = 2, 0.5
        p2 = 1.0 - q2
        expected = -(
            (d - 1) * (p2 / d) * math.log2(p2 / d)
            + (p2 / d + q2) * math.log2(p2 / d + q2)
        )
        for p in (0.1, 0.5, 0.9):
            assert min_output_entropy_n2(1.0, q2, p, d) == pytest.approx(
                expected, abs=1e-12
            )

    @pytest.mark.parametrize("d", [2, 3])
    def test_agrees_with_eigensolver_on_grid(self, d):
        grid = np.linspace(0.0, 1.0, 5)
        qs = list(product(grid, grid))
        generic = holevo_batch(2, [d], qs, [(p, 1.0 - p) for p in grid])[0][0]
        for ((i, (q1, q2)), (j, p)) in product(enumerate(qs), enumerate(grid)):
            closed = min_output_entropy_n2(q1, q2, p, d)
            assert abs(closed - generic[i, j]) < 1e-10

    def test_parameter_guards(self):
        with pytest.raises(ValueError):
            min_output_entropy_n2(1.2, 0.5, 0.5, 2)
        with pytest.raises(ValueError):
            min_output_entropy_n2(0.5, 0.5, 0.5, 1)


def scalar_min_output_entropy_n2(q1, q2, p, d):
    """The scalar expansion of ``min_output_entropy_n2``, with math.sqrt and math.log2."""
    p1, p2 = 1.0 - q1, 1.0 - q2
    acc = 0.0
    for k in (0, 1):
        alpha = (1.0 - q1 * q2) / d + k * q1 * q2
        beta = (p1 * q2 + q1 * p2) / d + k * (p1 * p2 / d**2 + q1 * q2)
        disc = math.sqrt(p * (1.0 - p) * beta**2 + alpha**2 * (p - 0.5) ** 2)
        for s in (1.0, -1.0):
            lam = alpha / 2.0 + s * disc
            if lam > 0.0:
                acc -= (d - 1) ** (1 - k) * lam * math.log2(lam)
    return acc


_UNIT = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=25, deadline=None)
@given(points=st.lists(st.tuples(_UNIT, _UNIT, _UNIT), min_size=1, max_size=8),
       d=st.integers(2, 6))
def test_two_channel_entropy_kernel_is_the_per_point_call(points, d):
    # np.log2 and math.log2 differ by an ulp on a few inputs, so the scalar
    # expansion is matched within 1e-14 and the per-point call bitwise.
    stack = _min_output_entropy_n2(*np.array(points).T, [d])[0]
    single = np.array([min_output_entropy_n2(*point, d) for point in points])
    assert stack.tobytes() == single.tobytes()
    for value, point in zip(stack.tolist(), points):
        assert abs(value - scalar_min_output_entropy_n2(*point, d)) <= 1e-14


class TestHolevoInformation:
    def test_two_erased_qubit_channels(self):
        h_min, h_control, chi = holevo_point(2, 2, (0.0, 0.0), (0.5, 0.5))
        assert chi == pytest.approx(0.0487, abs=5e-4)
        assert h_min == pytest.approx(1.9056, abs=1e-3)
        assert h_control == pytest.approx(0.9544, abs=1e-3)

    def test_three_erased_qutrit_channels(self):
        _, _, chi = holevo_point(3, 3, (0.0, 0.0, 0.0), (1.0 / 6,) * 6)
        assert chi == pytest.approx(0.0339, abs=1e-3)

    def test_transparent_channels_reach_log_d(self):
        chi = holevo_batch(2, [2, 5], [(1.0, 1.0)], [(0.25, 0.75)])[2][:, 0, 0]
        np.testing.assert_allclose(chi, np.log2([2, 5]), rtol=0, atol=1e-12)

    def test_report_identity(self, rng):
        # chi = log2(d) + h_control - h_min at every point of a grid.
        for n in (2, 3):
            probs = rng.dirichlet(np.ones(math.factorial(n)), size=2)
            h_min, h_control, chi = holevo_batch(n, [2, 3], rng.uniform(size=(2, n)), probs)
            log_d = np.log2([2, 3])[:, None, None]
            np.testing.assert_allclose(chi, log_d + h_control - h_min, rtol=0, atol=1e-12)

    def test_bounds(self):
        for n in (2, 3):
            q = np.repeat(np.linspace(0.0, 1.0, 11)[:, None], n, axis=1)
            chi = holevo_batch(n, [2, 3], q, [ControlSpec.uniform(n).probs])[2]
            log_d = np.log2([2, 3])[:, None, None]
            assert (chi >= -1e-12).all() and (chi <= log_d + 1e-12).all()

    def test_indefinite_at_least_definite(self):
        for n in (2, 3):
            q = np.repeat(np.linspace(0.0, 1.0, 11)[:, None], n, axis=1)
            probs = [ControlSpec.uniform(n).probs, ControlSpec.definite(n, 1).probs]
            chi_sup, chi_def = holevo_batch(n, [2, 3], q, probs)[2].transpose(2, 0, 1)
            assert (chi_sup >= chi_def - 1e-12).all()

    def test_one_hot_spectra_are_optimal(self, rng):
        # No pure target has less output entropy than holevo_batch's one-hot H_min.
        for _ in range(200):
            n = int(rng.integers(2, 4))
            d = int(rng.integers(2, 4))
            q = tuple(rng.uniform(size=n))
            probs = tuple(rng.dirichlet(np.ones(math.factorial(n))))
            sbm = assemble_blocks([DepolarizingChannel(x, d) for x in q], ControlSpec(n, probs))
            pure = DensityMatrix.pure(rng.normal(size=d) + 1j * rng.normal(size=d))
            dense = realize(sbm, pure)
            h_min, _, _ = holevo_point(n, d, q, probs)
            assert _reference_entropy(np.linalg.eigvalsh(dense)) >= h_min - 1e-9

    @pytest.mark.parametrize("q,d", [(0.5, 2), (0.0, 2), (1.0, 3), (0.3, 5)])
    def test_single_channel(self, q, d):
        # One channel has one order: chi = log2 d - S(q |0><0| + (1-q) I/d).
        _, h_control, chi = holevo_point(1, d, (q,), (1.0,))
        spectrum = [q + (1.0 - q) / d] + [(1.0 - q) / d] * (d - 1)
        assert h_control == pytest.approx(0.0, abs=1e-12)
        assert chi == pytest.approx(math.log2(d) - entropy_of(spectrum), abs=1e-12)

    def test_single_channel_published_row(self):
        assert holevo_point(1, 2, (0.5,), (1.0,))[2] == pytest.approx(0.188722, abs=5e-7)

    def test_negative_spectrum_is_a_numerical_error(self, monkeypatch):
        import qnswitch.holevo as hv

        monkeypatch.setattr(hv.np.linalg, "eigvalsh", lambda m: np.full(m.shape[:-1], -1.0))
        with pytest.raises(NumericalError) as info:
            holevo_batch(3, [2], [(0.1, 0.2, 0.3)], [ControlSpec.uniform(3).probs])
        assert not isinstance(info.value, ValueError)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            holevo_batch(2, [2], [(0.5,)], [(0.5, 0.5)])
        with pytest.raises(ValueError):
            holevo_batch(2, [2], [(0.5, 1.5)], [(0.5, 0.5)])
        with pytest.raises(ValueError):
            holevo_batch(2, [1], [(0.5, 0.5)], [(0.5, 0.5)])


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 3),
    d=st.integers(2, 4),
    data=st.data(),
)
def test_chi_identity_and_bounds_property(n, d, data):
    q = data.draw(
        st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n), label="q"
    )
    raw = data.draw(
        st.lists(st.floats(0.01, 1.0), min_size=math.factorial(n), max_size=math.factorial(n)),
        label="p",
    )
    total = sum(raw)
    probs = tuple(v / total for v in raw)
    h_min, h_control, chi = holevo_point(n, d, q, probs)
    assert chi == pytest.approx(math.log2(d) + h_control - h_min, abs=1e-12)
    assert -1e-12 <= chi <= math.log2(d) + 1e-9
    assert h_min >= -1e-12 and h_control >= -1e-12


def _relabeled(n, q, probs, sigma):
    """Inputs with new channel j = old channel sigma[j-1]; orders follow."""
    new_label = {old: new for new, old in enumerate(sigma, start=1)}
    images = [p.image for p in enumerate_orders(n)]
    index = {image: k for k, image in enumerate(images)}
    moved = [0.0] * len(images)
    for k, image in enumerate(images):
        moved[index[tuple(new_label[c] for c in image)]] = probs[k]
    return [q[old - 1] for old in sigma], tuple(moved)


@settings(max_examples=20, deadline=None)
@given(n=st.sampled_from([4, 5]), d=st.integers(2, 4), data=st.data())
def test_channel_relabeling_invariance(n, d, data):
    # Brute force is out of reach at N = 4, 5; relabeling the channels
    # permutes the block matrix, so chi and every spectrum must stay put.
    nf = math.factorial(n)
    q = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n), label="q")
    raw = data.draw(st.lists(st.floats(0.01, 1.0), min_size=nf, max_size=nf), label="p")
    sigma = data.draw(st.permutations(range(1, n + 1)), label="sigma")
    total = math.fsum(raw)
    probs = tuple(v / total for v in raw)
    q_new, probs_new = _relabeled(n, q, probs, sigma)
    chi = holevo_batch(n, [d], [q, q_new], [probs, probs_new])[2][0]
    assert chi[1, 1] == pytest.approx(chi[0, 0], abs=1e-12)
    blocks = [
        assemble_blocks([DepolarizingChannel(x, d) for x in qs], ControlSpec(n, ps))
        for qs, ps in ((q, probs), (q_new, probs_new))
    ]
    for view in (lambda m: m.a + m.b, lambda m: m.a, control_marginal):
        before, after = (np.linalg.eigvalsh(view(m)) for m in blocks)
        assert np.abs(before - after).max() <= 1e-12


def _per_point_blocks(n, d, q, probs):
    """The block matrix of one point, summed subset by subset in table order.

    Each subset's row of the table is gathered to every (k, k') through
    ``column`` before it is weighted and added, so the per-column sums the
    batch gathers from are not used, and d is raised to each power here.
    """
    table = sw.contraction_table(n)
    coeff = np.zeros((2,) + table.column.shape)
    for members, identity, power in zip(table.subsets, table.identity, table.power):
        weight = 1.0
        for j, x in enumerate(q, start=1):
            weight *= x if j in members else (1.0 - x)
        if weight == 0.0:
            continue
        weight *= float(d) ** (2 * (len(members) - n))
        word_is_identity = identity[table.column]
        # The other plane gains weight * 0.0 = +0.0, as in the batch, which
        # leaves its bits as they are.
        term = weight * float(d) ** power[table.column].astype(float)
        coeff += np.stack([word_is_identity, ~word_is_identity]) * term
    density = ControlSpec(n, probs).density()
    return SwitchBlockMatrix(n=n, d=d, a=coeff[0] * density, b=coeff[1] * density)


def _control(n, kind, raw):
    nf = math.factorial(n)
    if kind == "uniform":
        return (1.0 / nf,) * nf
    if kind == "definite":
        return tuple(float(k == int(raw[0] * nf) % nf) for k in range(nf))
    # Partly zero: every other order switched off.
    kept = [v if k % 2 == 0 else 0.0 for k, v in enumerate(raw)]
    total = math.fsum(kept)
    return tuple(v / total for v in kept)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 5), d=st.integers(2, 4), data=st.data())
def test_batch_is_bitwise_the_per_point_path(n, d, data):
    # The batch is a grid: every q row with every control row, q slowest.
    nf = math.factorial(n)
    value = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    qs = [
        tuple(data.draw(st.lists(value, min_size=n, max_size=n), label="q"))
        for _ in range(data.draw(st.integers(1, 3), label="Gq"))
    ]
    controls = []
    for _ in range(data.draw(st.integers(1, 3), label="Gp")):
        kind = data.draw(st.sampled_from(["uniform", "definite", "partly zero"]), label="P")
        raw = data.draw(st.lists(st.floats(0.01, 1.0), min_size=nf, max_size=nf), label="raw")
        controls.append(_control(n, kind, raw))
    h_min, h_control, chi = holevo_batch(n, [d], qs, controls)
    assert h_min.shape == h_control.shape == chi.shape == (1, len(qs), len(controls))
    for (i, q), (j, probs) in product(enumerate(qs), enumerate(controls)):
        sbm = _per_point_blocks(n, d, q, probs)
        built = assemble_blocks([DepolarizingChannel(x, d) for x in q], ControlSpec(n, probs))
        assert built.a.tobytes() == sbm.a.tobytes() and built.b.tobytes() == sbm.b.tobytes()
        ref_min = reference_min_entropy(sbm)
        ref_control = _reference_entropy(np.linalg.eigvalsh(control_marginal(sbm)))
        ref_chi = math.log2(d) + ref_control - ref_min
        got = (h_min[0, i, j], h_control[0, i, j], chi[0, i, j])
        assert np.array(got).tobytes() == np.array([ref_min, ref_control, ref_chi]).tobytes()


# 1.0 on its own, since -(1 * log2(1)) is -0.0: no entropy may keep that sign.
_POSITIVE = st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True))
_NOT_POSITIVE = {
    "zeros": st.sampled_from([0.0, -0.0]),
    "slack": st.floats(-EIGENVALUE_SLACK, 0.0, exclude_max=True),
}


# numpy sums a row pairwise in blocks of 8, so lengths on both sides of 8.
@pytest.mark.parametrize("length", [1, 3, 7, 8, 9, 16, 21])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_entropy_rows_is_bitwise_the_row_by_row_sum(length, data):
    # Rows that are all positive, and rows with at least one exact zero or
    # one negative inside the slack, which count as zeros.
    kinds = st.lists(st.sampled_from(["positive", *_NOT_POSITIVE]), min_size=1, max_size=6)
    rows = []
    for kind in data.draw(kinds):
        if kind == "positive":
            rows.append(data.draw(st.lists(_POSITIVE, min_size=length, max_size=length)))
            continue
        value = st.one_of(_POSITIVE, _NOT_POSITIVE[kind])
        row = data.draw(st.lists(value, min_size=length - 1, max_size=length - 1))
        row.insert(data.draw(st.integers(0, length - 1)), data.draw(_NOT_POSITIVE[kind]))
        rows.append(row)
    spectra = np.array(rows)
    # The whole stack, then its all-positive rows alone, which take one reduction.
    for stack in (spectra, spectra[(spectra > 0).all(axis=1)]):
        want = np.array([_reference_entropy(row) for row in stack])
        assert _entropy_rows(stack).tobytes() == want.tobytes()


# Repeated and unsorted, with 55, where numpy's vectorized power and Python's can differ.
D_AXIS = [3, 55, 2, 3]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_d_axis_is_bitwise_the_stack_of_per_d_calls(n):
    nf = math.factorial(n)
    qs = [(0.0,) * n, (1.0,) * n, tuple(np.linspace(0.1, 0.9, n)), (1.0,) + (0.4,) * (n - 1)]
    controls = [_control(n, kind, np.linspace(0.2, 1.0, nf)) for kind in ("uniform", "partly zero")]
    controls += [_control(n, "definite", [0.0]), _control(n, "definite", [0.99])]
    batch = holevo_batch(n, D_AXIS, qs, controls)
    for got, per_d in zip(batch, zip(*(holevo_batch(n, [d], qs, controls) for d in D_AXIS))):
        assert got.shape == (len(D_AXIS), len(qs), len(controls))
        assert got.tobytes() == np.concatenate(per_d).tobytes()
    assert batch[2].tobytes() == holevo_batch(n, np.array(D_AXIS), qs, controls)[2].tobytes()


@pytest.mark.parametrize("n", [2, 4])
def test_powers_of_d_are_pythons(n):
    # At N = 2 and 4 a subset is weighed by d^-2, which numpy's vectorized power
    # can round differently from Python's (55.0 ** -2 does on some machines): the
    # blocks at d = 55 must be the per-point sum's, which takes Python's.
    q = tuple(np.linspace(0.2, 0.7, n))
    probs = ControlSpec.uniform(n).probs
    sbm = _per_point_blocks(n, 55, q, probs)
    built = sw._switch_blocks(n, [2, 55], np.array([q]), np.array([probs]))[1, 0]
    assert built.tobytes() == np.stack([sbm.a, sbm.b]).tobytes()
    h_min = holevo_batch(n, [2, 55], [q], [probs])[0][1, 0, 0]
    assert h_min.tobytes() == np.float64(reference_min_entropy(sbm)).tobytes()


@pytest.mark.parametrize("bad", [1, 2.5, math.nan, "3", None])
@pytest.mark.parametrize("at", [0, 2])
def test_a_bad_d_anywhere_in_the_sequence_is_rejected(bad, at):
    ds = [2, 3, 4]
    ds[at] = bad
    with pytest.raises(ValueError, match="dimension must be an integer"):
        holevo_batch(2, ds, [(0.5, 0.5)], [(0.5, 0.5)])


@pytest.mark.parametrize("ds", [[], (), range(2, 2), np.array([], dtype=int)])
def test_an_empty_d_sequence_is_rejected(ds):
    with pytest.raises(ValueError, match="at least one dimension"):
        holevo_batch(2, ds, [(0.5, 0.5)], [(0.5, 0.5)])


@pytest.mark.parametrize(
    "gq,gp", [(0, 1), (1, 0), (0, 0)], ids=["no q rows", "no controls", "neither"]
)
def test_an_empty_q_or_control_grid_gives_empty_results(gq, gp):
    # A grid with no rows on an axis has no points; the d axis keeps its length.
    q, probs = np.full((gq, 2), 0.5), np.full((gp, 2), 0.5)
    for result in holevo_batch(2, [2, 3], q, probs):
        assert result.shape == (2, gq, gp)


@pytest.mark.parametrize(
    "ds,message",
    [
        (2, "a sequence of at least one dimension"),
        (np.int64(3), "a sequence of at least one dimension"),
        (np.array(3), "a sequence of at least one dimension"),
        ("23", "a sequence of at least one dimension"),
        ([[2, 3]], "dimension must be an integer"),
        (np.array([[2], [3]]), "dimension must be an integer"),
    ],
    ids=["int", "numpy int", "0-d array", "str", "2-D list", "2-D array"],
)
def test_d_is_a_one_dimensional_sequence(ds, message):
    # holevo_batch has one call form: a scalar d is refused, not read as a one-d axis,
    # and a 2-D d fails the dimension rule on its rows.
    with pytest.raises(ValueError, match=message):
        holevo_batch(2, ds, [(0.5, 0.5)], [(0.5, 0.5)])


@pytest.mark.parametrize("d", [2, 3, 5])
def test_two_channel_batch_matches_closed_forms(d):
    grid = np.linspace(0.0, 1.0, 6)
    qs = list(product(grid, grid))
    ps = (0.0, 0.2, 0.5, 0.9, 1.0)
    h_min, h_control, chi = (v[0] for v in holevo_batch(2, [d], qs, [(p, 1.0 - p) for p in ps]))
    assert chi.shape == (len(qs), len(ps))
    for (i, (q1, q2)), (j, p) in product(enumerate(qs), enumerate(ps)):
        closed = closed_form_n2(q1, q2, ControlSpec(2, (p, 1.0 - p)), d)
        ref_min = min_output_entropy_n2(q1, q2, p, d)
        ref_control = _reference_entropy(np.linalg.eigvalsh(control_marginal(closed)))
        assert abs(h_min[i, j] - ref_min) <= 1e-12
        assert abs(h_control[i, j] - ref_control) <= 1e-12
        assert abs(chi[i, j] - (math.log2(d) + ref_control - ref_min)) <= 1e-12


class TestHolevoBatchArguments:
    def test_rejects_bad_points(self):
        ok_q, ok_p = [(0.5, 0.5)], [(0.5, 0.5)]
        for q, probs, message in (
            ([(0.5,)], ok_p, "shape"),
            ([(0.5, 1.5)], ok_p, "transparency"),
            ([(0.5, float("nan"))], ok_p, "transparency"),
            (ok_q, [(0.5, 0.5, 0.0)], "expected 2 probabilities"),
            (ok_q, 0.5, "expected 2 probabilities"),
            (ok_q, [(1.5, -0.5)], "nonnegative"),
            (ok_q, [(float("nan"), 1.0)], "nonnegative"),
            (ok_q, [(0.7, 0.7)], "sum to 1"),
        ):
            with pytest.raises(ValueError, match=message):
                holevo_batch(2, [2], q, probs)

    @pytest.mark.parametrize("q", [(0.5, 0.5), [[(0.5, 0.5)]], 0.5])
    def test_rejects_q_that_is_not_a_table(self, q):
        with pytest.raises(ValueError, match="shape"):
            holevo_batch(2, [2], q, [(0.5, 0.5)])

    @pytest.mark.parametrize(
        "bad,message",
        [((0.7, 0.7), "sum to 1"), ((1.5, -0.5), "nonnegative"), ((math.nan, 1.0), "nonnegative")],
    )
    def test_rejects_the_one_bad_control_row(self, bad, message):
        # Every control row is checked, not only the first: the bad one is last.
        qs = [(0.5, 0.5), (0.1, 0.9)]
        with pytest.raises(ValueError, match=message):
            holevo_batch(2, [2], qs, [(0.5, 0.5), (0.2, 0.8), bad])

    # Every entry point that takes d applies the one dimension rule.
    TAKES_D = (
        lambda d: holevo_batch(2, [d], [(0.5, 0.5)], [(0.5, 0.5)]),  # d as a one-entry d axis
        lambda d: DepolarizingChannel(0.5, d),
        weyl_basis,
        lambda d: kraus_set(0.5, d),
        lambda d: min_output_entropy_n2(0.5, 0.5, 0.5, d),
        lambda d: closed_form_n2(0.5, 0.5, ControlSpec.uniform(2), d),
        lambda d: closed_form_n3(0.5, 0.5, 0.5, ControlSpec.uniform(3), d),
        # a = 0 and a unit-trace b pass every block test at any d.
        lambda d: SwitchBlockMatrix(n=2, d=d, a=np.zeros((2, 2)), b=np.eye(2) / 2),
    )

    def test_rejects_bad_sizes(self):
        with pytest.raises(SizeLimitError):
            holevo_batch(6, [2], [(0.5,) * 6], [(1.0 / 720,) * 720])
        with pytest.raises(ValueError):
            holevo_batch(0, [2], [()], [(1.0,)])
        for make in self.TAKES_D:
            for d in (1, 1.5, 2.5, math.nan, math.inf):
                with pytest.raises(ValueError, match="dimension"):
                    make(d)
            for d in (10**400, MAX_DIMENSION + 1):
                with pytest.raises(SizeLimitError, match="dimension"):
                    make(d)

    @pytest.mark.parametrize(
        "d", ["2", None, 2 + 0j, [2]], ids=["str", "None", "complex", "list"]
    )
    def test_non_number_dimension_is_a_value_error(self, d):
        # A d that cannot be compared with the cap is a ValueError, not a TypeError,
        # and the rule runs before weyl_basis's cache hashes d.
        for make in self.TAKES_D:
            with pytest.raises(ValueError, match="dimension must be an integer"):
                make(d)

    def test_float_dimension_with_an_integer_value_is_accepted(self):
        assert DepolarizingChannel(0.5, 2.0).d == 2
        assert type(DepolarizingChannel(0.5, 2.0).d) is int
        for make in self.TAKES_D:
            make(2.0)
        assert len(kraus_set(0.5, 3.0)) == 10 and weyl_basis(3.0).shape[-1] == 3
        assert weyl_basis(2.0) is weyl_basis(2)

    @pytest.mark.parametrize("q", [1.2, -0.1, math.nan])
    def test_rejects_bad_transparency(self, q):
        # Every entry point that takes q applies the one transparency rule.
        for make in (
            lambda q: DepolarizingChannel(q, 2),
            lambda q: kraus_set(q, 2),
            lambda q: apply_depolarizing(DensityMatrix.maximally_mixed(2), q),
            lambda q: min_output_entropy_n2(q, 0.5, 0.5, 2),
            lambda q: holevo_batch(2, [2], [(0.5, q)], [(0.5, 0.5)]),
            lambda q: closed_form_n2(q, 0.5, ControlSpec.uniform(2), 2),
            lambda q: closed_form_n3(0.5, 0.5, q, ControlSpec.uniform(3), 2),
        ):
            with pytest.raises(ValueError, match="transparency"):
                make(q)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: holevo_batch(2, [2], [(0.5, 0.5j)], [(0.5, 0.5)]),
            lambda: holevo_batch(2, [2], np.full((1, 2), 0.5 + 0j), [(0.5, 0.5)]),
            lambda: holevo_batch(2, [2], [(0.5, 0.5)], [(0.5, 0.5 + 0j)]),
            lambda: DepolarizingChannel(0.5 + 0.1j, 2),
            lambda: kraus_set(0.5j, 2),
            lambda: ControlSpec(2, (0.5, 0.5 + 0j)),
            lambda: closed_form_n2(0.5, 0.5j, ControlSpec.uniform(2), 2),
            lambda: min_output_entropy_n2(0.5j, 0.5, 0.5, 2),
            lambda: min_output_entropy_n2(0.5, 0.5, 0.5 + 0j, 2),
            lambda: holevo_batch(2, [2], [[Fraction(1, 2), 0.5j]], [(0.5, 0.5)]),
            lambda: DepolarizingChannel([0.5, 0.5], 2),
            lambda: DepolarizingChannel(np.array([0.5]), 2),
            lambda: kraus_set([0.5, 0.5], 2),
            lambda: holevo_batch(2, [2], [(0.5, 0.5)], [[Fraction(1, 2), 0.5j]]),
            lambda: DepolarizingChannel("0.5", 2),
            lambda: holevo_batch(2, [2], [(0.5, 0.5)], [("0.5", "0.5")]),
        ],
        ids=[
            "holevo_batch-q", "holevo_batch-q-array", "holevo_batch-probs", "DepolarizingChannel",
            "kraus_set", "ControlSpec", "closed_form_n2", "min_output_entropy_n2-q",
            "min_output_entropy_n2-p", "holevo_batch-q-object-array", "DepolarizingChannel-list",
            "DepolarizingChannel-array", "kraus_set-list", "holevo_batch-probs-object-array",
            "DepolarizingChannel-str", "holevo_batch-probs-str",
        ],
    )
    def test_complex_inputs_are_value_errors(self, make):
        # Not a float conversion's TypeError, nor a complex array's cast that drops
        # the imaginary part, nor a numeric string's parse: a complex or text q or
        # control entry, a complex entry among Python numbers, or a channel's q that
        # is not one number breaks a rule.
        with pytest.raises(ValueError, match="must be real"):
            make()

    @pytest.mark.parametrize(
        "entries,factor,message",
        [
            ([(0, 1, 0, 0, 1)], 2.0, "symmetric"),
            ([(0, 1, 1, 0, 1), (0, 1, 1, 1, 0)], -1.0, "nonnegative"),
            ([(0, 2, 0, 0, 0)], 2.0, "trace"),
        ],
    )
    def test_block_checks_cover_every_row(self, monkeypatch, entries, factor, message):
        import qnswitch.holevo as hv

        real = hv._switch_blocks

        def corrupted(*args):
            coeff = real(*args)
            for index in entries:  # (d, point, I or rho, k, k')
                coeff[index] *= factor
            return coeff

        monkeypatch.setattr(hv, "_switch_blocks", corrupted)
        with pytest.raises(ValueError, match=message):
            holevo_batch(3, [2], [(0.1, 0.2, 0.3)] * 3, [ControlSpec.uniform(3).probs] * 3)

    def test_negative_eigenvalue_in_one_row_raises(self, monkeypatch):
        import qnswitch.holevo as hv

        real = np.linalg.eigvalsh

        def second_row_negative(m):
            vals = real(m)
            vals[1, 0, 0] = -1e-3
            return vals

        monkeypatch.setattr(hv.np.linalg, "eigvalsh", second_row_negative)
        with pytest.raises(NumericalError, match="negative eigenvalue"):
            holevo_batch(3, [2], [(0.1, 0.2, 0.3)] * 3, [ControlSpec.uniform(3).probs] * 3)
