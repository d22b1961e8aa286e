import hashlib
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qnswitch.switch as sw
from qnswitch.channels import (
    DensityMatrix,
    DepolarizingChannel,
    compose_definite,
    random_density,
)
from qnswitch.errors import SizeLimitError
from qnswitch.switch import (
    ControlSpec,
    SwitchBlockMatrix,
    assemble_blocks,
    closed_form_n2,
    closed_form_n3,
    completeness_defect,
    contract_pair,
    contraction_table,
    kraus_sum_output,
    realize,
    _loop_rule,
)
from qnswitch.holevo import holevo_batch, holevo_information, min_output_entropy
from qnswitch.symgroup import Permutation, ZeroSubset, enumerate_orders, zero_subsets
from qnswitch.verify import CONTRACTION_TABLE_N2, CONTRACTION_TABLE_N3


def _restrict(order: tuple[int, ...], pinned: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(slot for slot in order if slot not in pinned)


def channels_for(qs, d):
    return [DepolarizingChannel(q, d) for q in qs]


def random_ctrl(n, rng):
    return ControlSpec(n, tuple(rng.dirichlet(np.ones(math.factorial(n)))))


class TestControlSpec:
    def test_uniform(self):
        ctrl = ControlSpec.uniform(3)
        assert len(ctrl.probs) == 6
        assert abs(sum(ctrl.probs) - 1.0) < 1e-12

    def test_definite(self):
        ctrl = ControlSpec.definite(2, 2)
        assert ctrl.probs == (0.0, 1.0)
        assert ControlSpec.definite(3, np.int64(1)).probs == (1.0,) + (0.0,) * 5

    @pytest.mark.parametrize("k", [0, 3, 1.0, 2.5])
    def test_definite_rejects_bad_label(self, k):
        # Order labels follow contract_pair's rule: integers in 1..n!.
        with pytest.raises(ValueError, match="integers in 1..2"):
            ControlSpec.definite(2, k)

    @pytest.mark.parametrize("n", [0, 9, 30])
    def test_channel_count_checked_before_any_entry(self, n):
        # The count is checked first: building 30! entries would overflow.
        for make in (ControlSpec.uniform, lambda n: ControlSpec.definite(n, 1)):
            with pytest.raises(SizeLimitError, match="1..8 channels"):
                make(n)
        with pytest.raises(SizeLimitError):
            ControlSpec(n, (1.0,))

    @pytest.mark.parametrize("n", [2.0, 2.5, "2"])
    def test_channel_count_must_be_an_integer(self, n):
        for make in (
            ControlSpec.uniform,
            lambda n: ControlSpec.definite(n, 1),
            lambda n: ControlSpec(n, (0.5, 0.5)),
            enumerate_orders,
            lambda n: zero_subsets(n, 1),
            lambda n: ZeroSubset(n, ()),
            lambda n: SwitchBlockMatrix(n=n, d=2, a=np.zeros((2, 2)), b=np.eye(2) / 2),
            lambda n: contract_pair(1, 1, ZeroSubset(n, ())),
            lambda n: holevo_batch(n, 2, [(0.5, 0.5)], [(0.5, 0.5)]),
            lambda n: holevo_information(n, 2, (0.5, 0.5), (0.5, 0.5)),
        ):
            with pytest.raises(ValueError, match="must be an integer"):
                make(n)
        assert ControlSpec.uniform(np.int64(2)).probs == (0.5, 0.5)

    def test_uniform_beyond_assembly(self):
        assert len(ControlSpec.uniform(6).probs) == 720

    def test_density(self):
        ctrl = ControlSpec(2, (0.25, 0.75))
        expected = np.outer(np.sqrt([0.25, 0.75]), np.sqrt([0.25, 0.75]))
        np.testing.assert_allclose(ctrl.density(), expected, atol=1e-15)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            ControlSpec(3, (0.5, 0.5))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ControlSpec(2, (1.5, -0.5))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            ControlSpec(2, (0.6, 0.6))


RHO2 = DensityMatrix.maximally_mixed(2)


class TestChannelCountRule:
    """One channel-count rule: an integer n in 1..cap, else SizeLimitError.

    The cap is 5 where a contraction table is built and 8 elsewhere. Where
    an entry point takes a channel list, n is the list's length.
    """

    @pytest.mark.parametrize(
        "make,cap",
        [
            pytest.param(enumerate_orders, 8, id="enumerate_orders"),
            pytest.param(lambda n: zero_subsets(n, 0), 8, id="zero_subsets"),
            pytest.param(lambda n: ZeroSubset(n, ()), 8, id="ZeroSubset"),
            pytest.param(lambda n: ControlSpec(n, (1.0,)), 8, id="ControlSpec"),
            pytest.param(ControlSpec.uniform, 8, id="ControlSpec.uniform"),
            pytest.param(lambda n: ControlSpec.definite(n, 1), 8, id="ControlSpec.definite"),
            pytest.param(
                lambda n: SwitchBlockMatrix(n=n, d=2, a=[[0.0]], b=[[1.0]]), 8,
                id="SwitchBlockMatrix",
            ),
            pytest.param(lambda n: contract_pair(1, 1, ZeroSubset(n, ())), 5, id="contract_pair"),
            pytest.param(
                lambda n: holevo_batch(n, 2, [(0.5, 0.5)], [(0.5, 0.5)]), 5, id="holevo_batch"
            ),
            pytest.param(
                lambda n: holevo_information(n, 2, (0.5, 0.5), (0.5, 0.5)), 5,
                id="holevo_information",
            ),
        ],
    )
    def test_count_outside_the_cap(self, make, cap):
        # contract_pair's ZeroSubset(0, ()) already fails at its own cap of 8.
        with pytest.raises(SizeLimitError, match="channels, got n=0"):
            make(0)
        with pytest.raises(SizeLimitError, match=f"1..{cap} channels, got n={cap + 1}"):
            make(cap + 1)

    @pytest.mark.parametrize(
        "make,cap",
        [
            pytest.param(
                lambda chans: assemble_blocks(chans, ControlSpec.uniform(2)), 5,
                id="assemble_blocks",
            ),
            pytest.param(
                lambda chans: kraus_sum_output(chans, ControlSpec.uniform(2), RHO2), 8,
                id="kraus_sum_output",
            ),
            pytest.param(completeness_defect, 8, id="completeness_defect"),
            pytest.param(
                lambda chans: compose_definite(
                    chans, Permutation(tuple(range(1, len(chans) + 1))), RHO2
                ),
                8,
                id="compose_definite",
            ),
        ],
    )
    def test_channel_list_outside_the_cap(self, make, cap):
        for n in (0, cap + 1):
            with pytest.raises(SizeLimitError, match=f"1..{cap} channels, got n={n}"):
                make(channels_for([0.5] * n, 2))


class TestBlockTypes:
    # Sums to 1 + 9.9987e-13, within the control rule's 1e-12; its realized
    # trace is 1.000000000001, 1e-12 from 1 after rounding.
    EDGE_CONTROL = (0.0433333333335,) * 3 + (0.2900000000001666,) * 3

    def test_every_control_the_rule_accepts_passes_the_block_rule(self):
        ctrl = ControlSpec(3, self.EDGE_CONTROL)
        low = ControlSpec(3, tuple(2.0 / 6 - p for p in self.EDGE_CONTROL))  # 1 - 1e-12
        for probs in (ctrl.probs, low.probs):
            chi = holevo_batch(3, [2, 3], [(0.5,) * 3], [probs, ctrl.probs])[2]
            assert np.isfinite(chi).all()
        sbm = assemble_blocks(channels_for([0.5] * 3, 2), ctrl)
        assert min_output_entropy(sbm) == holevo_batch(3, 2, [(0.5,) * 3], [ctrl.probs])[0][0, 0]

    @pytest.mark.parametrize("n", [4, 5])
    def test_rounding_stays_far_inside_the_trace_margin(self, n):
        # The block rule's 1e-12 past the control rule's is for rounding, which
        # stays below (2^n + n! + 2n) * 2^-53, 2e-14 at n = 5, at any d.
        rng = np.random.default_rng(n)
        probs = rng.dirichlet(np.ones(math.factorial(n)), size=4) * (1.0 + 9e-13)
        for d in (2, 55, 1 << 15):
            blocks = sw._switch_blocks(n, [d], rng.uniform(size=(4, n)), probs)
            traces = blocks.trace(axis1=2, axis2=3)
            realized = (d * traces[:, 0] + traces[:, 1]).reshape(4, 4)
            assert np.abs(realized - [math.fsum(p) for p in probs]).max() < 2e-14

    def test_trace_bound(self):
        # The block rule allows the control rule's 1e-12 plus 1e-12 of rounding.
        for excess, ok in ((1.9e-12, True), (-1.9e-12, True), (2.1e-12, False), (-2.1e-12, False)):
            b = np.eye(2) * (0.5 + excess / 2)
            if ok:
                SwitchBlockMatrix(n=2, d=2, a=np.zeros((2, 2)), b=b)
            else:
                with pytest.raises(ValueError, match="realized trace"):
                    SwitchBlockMatrix(n=2, d=2, a=np.zeros((2, 2)), b=b)

    @pytest.mark.parametrize(
        "value,message",
        [(-1e-3, "nonnegative"), (float("nan"), "finite"), (math.inf, "finite"),
         (-math.inf, "finite")],
    )
    def test_matrix_rejects_bad_off_diagonal(self, value, message):
        a = np.array([[0.25, value], [value, 0.25]])
        with pytest.raises(ValueError, match=message):
            SwitchBlockMatrix(n=2, d=2, a=a, b=np.zeros((2, 2)))

    def test_matrix_rejects_asymmetric(self):
        a = np.array([[0.25, 0.1], [0.0, 0.25]])
        with pytest.raises(ValueError):
            SwitchBlockMatrix(n=2, d=2, a=a, b=np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "n,error", [(0, SizeLimitError), (9, SizeLimitError), (1.0, ValueError)]
    )
    def test_matrix_applies_order_count_rule(self, n, error):
        # a = 0, b = 1 is a valid one-channel block matrix at any d.
        with pytest.raises(error, match="1..8 channels|integer"):
            SwitchBlockMatrix(n=n, d=2, a=[[0.0]], b=[[1.0]])

    def test_matrix_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            SwitchBlockMatrix(n=2, d=2, a=np.eye(2), b=np.zeros((2, 2)))


class TestContractPair:
    # A contraction is (word is I, power of d).
    def test_two_channel_diagonal(self):
        assert contract_pair(1, 1, ZeroSubset(2, ())) == (True, 3)

    def test_two_channel_swapped(self):
        assert contract_pair(1, 2, ZeroSubset(2, ())) == (False, 2)

    def test_three_channel_rotation(self):
        assert contract_pair(1, 4, ZeroSubset(3, ())) == (False, 4)

    def test_all_slots_pinned(self):
        for k, kp in product(range(1, 7), repeat=2):
            assert contract_pair(k, kp, ZeroSubset(3, (1, 2, 3))) == (False, 0)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            contract_pair(0, 1, ZeroSubset(2, ()))
        with pytest.raises(ValueError):
            contract_pair(1, 7, ZeroSubset(3, ()))
        # A float label is rejected, not used as an index.
        with pytest.raises(ValueError, match="integers"):
            contract_pair(1.0, 2, ZeroSubset(2, ()))
        with pytest.raises(ValueError, match="integers"):
            contract_pair(1, 2.5, ZeroSubset(2, ()))
        assert contract_pair(np.int64(1), np.int8(2), ZeroSubset(2, ())) == (False, 2)
        # n is checked before the table is built: at n = 6 it would hold
        # 2^6 * 720^2 entries, and at n = 7 about 6.5 GB.
        with pytest.raises(SizeLimitError):
            contract_pair(1, 1, ZeroSubset(6, ()))

    @pytest.mark.parametrize("n", [2, 3])
    def test_symmetric_in_order_pair(self, n):
        nf = math.factorial(n)
        for z in range(n + 1):
            for zeros in zero_subsets(n, z):
                for k in range(1, nf + 1):
                    for kp in range(k, nf + 1):
                        assert contract_pair(k, kp, zeros) == contract_pair(
                            kp, k, zeros
                        )

    @pytest.mark.parametrize(
        "n,table", [(2, CONTRACTION_TABLE_N2), (3, CONTRACTION_TABLE_N3)]
    )
    def test_full_regression_tables(self, n, table):
        for members, pairs in table.items():
            zeros = ZeroSubset(n, members)
            for (k, kp), expected in pairs.items():
                term = contract_pair(k, kp, zeros)
                assert term == expected, (n, members, (k, kp), term)


class TestAssembleBlocks:
    def test_two_channel_coefficients(self, rng):
        q1, q2, d = 0.3, 0.8, 3
        p1, p2 = 1 - q1, 1 - q2
        r0, r1, r2 = p1 * p2, q1 * p2 + q2 * p1, q1 * q2
        probs = (0.35, 0.65)
        sbm = assemble_blocks(channels_for((q1, q2), d), ControlSpec(2, probs))
        for k in (0, 1):
            assert sbm.a[k, k] == pytest.approx(probs[k] * (r0 + r1) / d, abs=1e-15)
            assert sbm.b[k, k] == pytest.approx(probs[k] * r2, abs=1e-15)
        cross = math.sqrt(probs[0] * probs[1])
        assert sbm.a[0, 1] == pytest.approx(cross * r1 / d, abs=1e-15)
        assert sbm.b[0, 1] == pytest.approx(cross * (r0 + d * d * r2) / d**2, abs=1e-15)

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_two_channel_closed_form(self, d, rng):
        for _ in range(10):
            q1, q2 = rng.uniform(size=2)
            ctrl = random_ctrl(2, rng)
            built = assemble_blocks(channels_for((q1, q2), d), ctrl)
            closed = closed_form_n2(q1, q2, ctrl, d)
            assert np.abs(built.a - closed.a).max() < 1e-14
            assert np.abs(built.b - closed.b).max() < 1e-14

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_three_channel_closed_form(self, d, rng):
        for _ in range(10):
            q1, q2, q3 = rng.uniform(size=3)
            ctrl = random_ctrl(3, rng)
            built = assemble_blocks(channels_for((q1, q2, q3), d), ctrl)
            closed = closed_form_n3(q1, q2, q3, ctrl, d)
            assert np.abs(built.a - closed.a).max() < 1e-14
            assert np.abs(built.b - closed.b).max() < 1e-14

    def test_transparent_corner(self):
        ctrl = ControlSpec.uniform(3)
        sbm = closed_form_n3(1.0, 1.0, 1.0, ctrl, 2)
        amps = ctrl.amplitudes
        np.testing.assert_allclose(sbm.a, np.zeros((6, 6)), atol=1e-15)
        np.testing.assert_allclose(sbm.b, np.outer(amps, amps), atol=1e-15)

    def test_fully_depolarizing_corner_n3(self):
        d = 2
        ctrl = ControlSpec.uniform(3)
        sbm = closed_form_n3(0.0, 0.0, 0.0, ctrl, d)
        rho_pairs = CONTRACTION_TABLE_N3[()]
        for k in range(1, 7):
            for kp in range(1, 7):
                a, b = sbm.a[k - 1, kp - 1], sbm.b[k - 1, kp - 1]
                w = 1.0 / 6.0
                identity, _ = rho_pairs[(k, kp)]
                if k == kp:
                    assert a == pytest.approx(w / d, abs=1e-15)
                    assert b == pytest.approx(0.0, abs=1e-15)
                elif not identity:
                    assert a == pytest.approx(0.0, abs=1e-15)
                    assert b == pytest.approx(w / d**2, abs=1e-15)
                else:
                    assert a == pytest.approx(w / d**3, abs=1e-15)
                    assert b == pytest.approx(0.0, abs=1e-15)

    def test_block_entry_1_6(self, rng):
        q1, q2, q3 = rng.uniform(size=3)
        p1, p2, p3 = 1 - q1, 1 - q2, 1 - q3
        d = 3
        s0 = p1 * p2 * p3
        t1, t2, t3 = q1 * p2 * p3, q2 * p1 * p3, q3 * p1 * p2
        s2 = q1 * q2 * p3 + q1 * q3 * p2 + q2 * q3 * p1
        s3 = q1 * q2 * q3
        ctrl = random_ctrl(3, rng)
        sbm = assemble_blocks(channels_for((q1, q2, q3), d), ctrl)
        w = math.sqrt(ctrl.probs[0] * ctrl.probs[5])
        assert sbm.a[0, 5] == pytest.approx(w * (d * d * s2 + s0) / d**3, abs=1e-14)
        assert sbm.b[0, 5] == pytest.approx(
            w * (d * d * s3 + t1 + t2 + t3) / d**2, abs=1e-14
        )

    def test_too_many_channels(self):
        with pytest.raises(SizeLimitError):
            assemble_blocks(channels_for([0.5] * 6, 2), ControlSpec.uniform(6))

    def test_mixed_dimensions_rejected(self):
        chans = [DepolarizingChannel(0.5, 2), DepolarizingChannel(0.5, 3)]
        with pytest.raises(ValueError):
            assemble_blocks(chans, ControlSpec.uniform(2))


def scalar_closed_form_n2(q1, q2, probs, d):
    """The two-channel expansion point by point in Python floats: the reference."""
    p1, p2 = 1.0 - q1, 1.0 - q2
    r0, r1, r2 = p1 * p2, q1 * p2 + q2 * p1, q1 * q2
    cross = math.sqrt(probs[0] * probs[1])
    a = [[probs[0] * (r0 + r1) / d, cross * r1 / d], [cross * r1 / d, probs[1] * (r0 + r1) / d]]
    off_b = cross * (r0 + d * d * r2) / d**2
    return np.array([a, [[probs[0] * r2, off_b], [off_b, probs[1] * r2]]])


unit_interval = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(
    points=st.lists(st.tuples(*[unit_interval] * 3), min_size=1, max_size=6),
    d=st.integers(2, 6),
)
def test_two_channel_kernel_is_bitwise_the_scalar_expansion(points, d):
    q1, q2, p = np.array(points).T
    stack = sw._closed_form_n2_blocks(q1, q2, p, 1.0 - p, d)
    assert stack.shape == (len(points), 2, 2, 2)
    for blocks, (x1, x2, y) in zip(stack, points):
        ctrl = ControlSpec(2, (y, 1.0 - y))
        reference = scalar_closed_form_n2(x1, x2, ctrl.probs, d)
        single = closed_form_n2(x1, x2, ctrl, d)
        assert blocks.tobytes() == reference.tobytes()
        assert np.stack([single.a, single.b]).tobytes() == reference.tobytes()


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(1, 3), d=st.integers(2, 4), g=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_realize_is_bitwise_kron(n, d, g, seed):
    rng = np.random.default_rng(seed)
    nf = math.factorial(n)
    blocks = rng.uniform(size=(g, 2, nf, nf))
    blocks[rng.uniform(size=blocks.shape) < 0.3] = 0.0  # exact zeros meet rho's zeros
    rhos = np.stack([random_density(d, rng).entries for _ in range(g)])
    dense = sw._realize(blocks, rhos)
    assert dense.shape == (g, nf * d, nf * d)
    for out, (a, b), rho in zip(dense, blocks, rhos):
        want = np.kron(a, np.eye(d, dtype=complex)) + np.kron(b, rho)
        assert out.dtype == want.dtype and out.tobytes() == want.tobytes()


class TestRealize:
    def test_maximally_mixed_target(self, rng):
        d = 3
        sbm = assemble_blocks(channels_for(rng.uniform(size=2), d), random_ctrl(2, rng))
        dense = realize(sbm, DensityMatrix.maximally_mixed(d))
        expected = np.kron(sbm.a + sbm.b / d, np.eye(d))
        np.testing.assert_allclose(dense, expected, atol=1e-15)

    def test_unit_trace_and_hermitian(self, rng):
        d = 2
        sbm = assemble_blocks(channels_for(rng.uniform(size=3), d), random_ctrl(3, rng))
        dense = realize(sbm, random_density(d, rng))
        assert abs(np.trace(dense) - 1.0) < 1e-12
        assert np.abs(dense - dense.conj().T).max() < 1e-12

    def test_positive_semidefinite(self, rng):
        for n, d in ((2, 2), (2, 3), (3, 2), (3, 3)):
            sbm = assemble_blocks(
                channels_for(rng.uniform(size=n), d), random_ctrl(n, rng)
            )
            dense = realize(sbm, random_density(d, rng))
            assert np.linalg.eigvalsh(dense).min() > -1e-10

    def test_dimension_mismatch(self, rng):
        sbm = assemble_blocks(channels_for((0.5, 0.5), 2), ControlSpec.uniform(2))
        with pytest.raises(ValueError):
            realize(sbm, random_density(3, rng))


class TestKrausSumOutput:
    def test_transparent_channels_pass_input_through(self, rng):
        d = 2
        ctrl = random_ctrl(2, rng)
        rho = random_density(d, rng)
        out = kraus_sum_output(channels_for((1.0, 1.0), d), ctrl, rho)
        expected = np.kron(ctrl.density(), rho.entries)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_definite_order_reduces_to_composition(self, rng):
        from qnswitch.channels import compose_definite

        d = 2
        qs = rng.uniform(size=2)
        chans = channels_for(qs, d)
        rho = random_density(d, rng)
        out = kraus_sum_output(chans, ControlSpec.definite(2, 1), rho)
        top = out[:d, :d]
        composed = compose_definite(chans, enumerate_orders(2)[0], rho)
        np.testing.assert_allclose(top, composed.entries, atol=1e-12)
        rest = out.copy()
        rest[:d, :d] = 0.0
        assert np.abs(rest).max() < 1e-14

    def test_fully_depolarizing_qubit_blocks(self):
        d = 2
        rho = DensityMatrix.basis_state(d)
        out = kraus_sum_output(channels_for((0.0, 0.0), d), ControlSpec.uniform(2), rho)
        np.testing.assert_allclose(out[:d, :d], np.eye(d) / 4, atol=1e-12)
        np.testing.assert_allclose(out[d:, d:], np.eye(d) / 4, atol=1e-12)
        np.testing.assert_allclose(out[:d, d:], rho.entries / 8, atol=1e-12)

    @pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_matches_assembled_blocks(self, n, d, rng):
        for _ in range(5):
            chans = channels_for(rng.uniform(size=n), d)
            ctrl = random_ctrl(n, rng)
            rho = random_density(d, rng)
            dense = realize(assemble_blocks(chans, ctrl), rho)
            reference = kraus_sum_output(chans, ctrl, rho)
            assert np.abs(dense - reference).max() < 1e-10

    def test_rejects_state_of_another_dimension(self):
        with pytest.raises(ValueError, match="state dimension 3 != channel dimension 2"):
            kraus_sum_output(
                channels_for((0.5, 0.5), 2), ControlSpec.uniform(2),
                DensityMatrix.maximally_mixed(3),
            )

    def test_budget_guard(self, rng, monkeypatch):
        # N = 5, d = 4 needs 17^5 = 1,419,857 index tuples, over the budget;
        # the guard fires before any Kraus stack or product is built.
        monkeypatch.setattr(sw, "kraus_set", None)
        with pytest.raises(SizeLimitError, match="1419857 index tuples"):
            kraus_sum_output(
                channels_for([0.5] * 5, 4), ControlSpec.uniform(5), random_density(4, rng)
            )

    def test_budget_counts_every_order(self, rng, monkeypatch):
        # N = 7, d = 2 has only 5^7 = 78,125 index tuples, but each is multiplied
        # out for all 5,040 orders into a (5040 d)^2 output: 393,750,000 pairs.
        monkeypatch.setattr(sw, "kraus_set", None)
        with pytest.raises(SizeLimitError, match="5040 orders x 78125 index tuples"):
            kraus_sum_output(
                channels_for([0.5] * 7, 2), ControlSpec.uniform(7), random_density(2, rng)
            )

    @pytest.mark.parametrize("n,d", [(4, 2), (4, 3), (5, 2)])
    def test_matches_assembled_blocks_beyond_frozen_tables(self, n, d):
        # The frozen contraction tables stop at three channels; beyond them
        # the brute-force sum is the only independent check.
        rng = np.random.default_rng(100 * n + d)
        for _ in range(2):
            chans = channels_for(rng.uniform(size=n), d)
            ctrl = random_ctrl(n, rng)
            rho = random_density(d, rng)
            dense = realize(assemble_blocks(chans, ctrl), rho)
            reference = kraus_sum_output(chans, ctrl, rho)
            assert np.abs(dense - reference).max() < 1e-10


class TestChunkedKrausSum:
    # 54 complex entries per tuple at n = 3, d = 3 (6 orders of 3x3): the
    # sizes give chunks of 3 values of slot 1, of 4 joint values of slots
    # 1 and 2, and of 7 joint values of all three slots.
    @pytest.mark.parametrize("entries", [3 * 100 * 54, 4 * 10 * 54, 7 * 54])
    def test_chunks_match_one_chunk(self, entries, rng, monkeypatch):
        chans = channels_for(rng.uniform(size=3), 3)
        ctrl = random_ctrl(3, rng)
        rho = random_density(3, rng)

        def chunk_tuples():
            chunks = sw._order_products(chans)[3]
            return [ops.shape[2] // 3 for ops in chunks]

        assert chunk_tuples() == [1000]
        whole = kraus_sum_output(chans, ctrl, rho)
        defect = completeness_defect(chans)
        monkeypatch.setattr(sw, "CHUNK_ENTRIES", entries)
        tuples = chunk_tuples()
        assert len(tuples) >= 3 and sum(tuples) == 1000
        assert np.abs(kraus_sum_output(chans, ctrl, rho) - whole).max() <= 1e-15
        assert abs(completeness_defect(chans) - defect) <= 1e-15


class TestDefiniteOrderEmbedding:
    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (3, 3)])
    def test_each_order(self, n, d, rng):
        from qnswitch.channels import compose_definite

        chans = channels_for(rng.uniform(size=n), d)
        rho = random_density(d, rng)
        for k, perm in enumerate(enumerate_orders(n), start=1):
            sbm = assemble_blocks(chans, ControlSpec.definite(n, k))
            dense = realize(sbm, rho)
            top = dense[(k - 1) * d : k * d, (k - 1) * d : k * d]
            composed = compose_definite(chans, perm, rho)
            assert np.abs(top - composed.entries).max() < 1e-12


class TestContractionTable:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_contract_pair(self, n):
        # The reference applies the loop rule to the two restricted words
        # directly, without the table's relative-order memo.
        table = contraction_table(n)
        nf = math.factorial(n)
        assert table.column.shape == (nf, nf)
        subsets = [zs for z in range(n + 1) for zs in zero_subsets(n, z)]
        assert table.subsets == tuple(zs.members for zs in subsets)
        orders = [p.image for p in enumerate_orders(n)]
        for s, zeros in enumerate(subsets):
            for k, kp in product(range(1, nf + 1), repeat=2):
                words = (_restrict(orders[label - 1], zeros.members) for label in (k, kp))
                expected = _loop_rule(*words)
                column = table.column[k - 1, kp - 1]
                assert (table.identity[s, column], table.power[s, column]) == expected
                assert contract_pair(k, kp, zeros) == expected

    def test_sampled_entries_beyond_four_channels(self):
        # The table reads each entry from one base row through the relabeling
        # code(k, k', A) = code(1, tau, pi_k^-1(A)); sampled entries at N = 5 are
        # checked against the loop rule on the two restricted words themselves.
        n, rng = 5, np.random.default_rng(5)
        table = contraction_table(n)
        orders = [p.image for p in enumerate_orders(n)]
        for _ in range(200):
            k, kp = rng.integers(len(orders), size=2)
            s = int(rng.integers(len(table.subsets)))
            words = (_restrict(orders[label], table.subsets[s]) for label in (k, kp))
            column = table.column[k, kp]
            assert (table.identity[s, column], table.power[s, column]) == _loop_rule(*words)

    def test_refuses_more_channels_before_any_work(self, monkeypatch):
        # The cap applies inside the cached builder itself, not only in its callers.
        def fail(relative):
            raise AssertionError("a contraction was evaluated")

        monkeypatch.setattr(sw, "_relative_code", fail)
        with pytest.raises(SizeLimitError, match="1..5 channels, got n=6"):
            contraction_table(6)

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 8), (4, 64), (5, 1012)])
    def test_distinct_columns_rebuild_the_table(self, n, count):
        # The block assembly sums over the distinct columns only, so they
        # must be distinct, each used by some pair, and numbered in order of
        # first appearance over the pairs (k, k') in row-major order.
        table = contraction_table(n)
        assert table.identity.shape == table.power.shape == (2**n, count)
        columns = zip(table.identity.T, table.power.T)
        assert len({(kind.tobytes(), power.tobytes()) for kind, power in columns}) == count
        _, first = np.unique(table.column, return_index=True)
        assert np.array_equal(table.column.ravel()[np.sort(first)], np.arange(count))

    @pytest.mark.parametrize(
        "n,digest",
        [
            (1, "cb9e60085ae2fafac73360bcfbe003e9"),
            (2, "2a32a9e1744e4dcb8ec7575973248de8"),
            (3, "07982999edb51315bfffe8657374261a"),
            (4, "767fb17e6e342d749330ce78bf43d071"),
            (5, "231bb761b3154bb631bd5a50996a90ff"),
        ],
    )
    def test_arrays_are_pinned(self, n, digest):
        # Digests of the arrays as built when each contraction was stored as
        # an (identity, power) byte pair; the one-code build must match them bitwise.
        table = contraction_table(n)
        h = hashlib.sha256()
        for array in (table.identity, table.power, table.column):
            h.update(f"{array.dtype.str}{array.shape}".encode())
            h.update(array.tobytes())
        assert h.hexdigest()[:32] == digest

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_symmetric_and_read_only(self, n):
        table = contraction_table(n)
        assert np.array_equal(table.column, table.column.T)
        assert table.identity.dtype == bool and table.power.dtype == np.int8
        for array in table[1:]:
            with pytest.raises(ValueError):
                array[0, 0] = 1

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_diagonal_and_pinned_subsets(self, n):
        # With no slot pinned, k = k' nests n sandwiches around rho:
        # d tr(rho) I, then d^2 per further layer, so d^(2n-1) I. With every
        # slot pinned the word is bare rho.
        table = contraction_table(n)
        diagonal = table.column.diagonal()
        assert table.identity[0, diagonal].all()
        assert (table.power[0, diagonal] == 2 * n - 1).all()
        assert not table.identity[-1].any() and not table.power[-1].any()


class TestConcurrentAssembly:
    def test_cold_cache_shared_across_threads(self, rng):
        # Parameter sweeps may assemble concurrently against one shared
        # contraction table; concurrent cold builds must agree.
        from concurrent.futures import ThreadPoolExecutor

        contraction_table.cache_clear()
        chans = channels_for((0.2, 0.5, 0.8), 2)
        params = [tuple(rng.dirichlet(np.ones(6))) for _ in range(16)]

        def build(probs):
            return assemble_blocks(chans, ControlSpec(3, probs))

        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(build, params))
        for probs, result in zip(params, threaded):
            serial = build(probs)
            assert np.array_equal(result.a, serial.a)
            assert np.array_equal(result.b, serial.b)


class TestCompletenessDefect:
    def test_two_qubit_channels(self):
        assert completeness_defect(channels_for((0.3, 0.7), 2)) < 1e-12

    def test_three_channels_with_corners(self):
        assert completeness_defect(channels_for((0.0, 0.5, 1.0), 2)) < 1e-12

    def test_qutrit_random(self, rng):
        assert completeness_defect(channels_for(rng.uniform(size=2), 3)) < 1e-12

    def test_four_qubit_channels(self):
        rng = np.random.default_rng(4)
        assert completeness_defect(channels_for(rng.uniform(size=4), 2)) <= 1e-12

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setattr(sw, "kraus_set", None)  # the guard fires before any stack
        with pytest.raises(SizeLimitError, match="1419857 index tuples"):
            completeness_defect(channels_for([0.5] * 5, 4))
