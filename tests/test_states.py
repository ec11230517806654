"""Density matrices, projectors, channels, and trace distance."""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from shotdp import (
    AnchorCoincidesError,
    ColumnsNotOrthonormalError,
    DimMismatchError,
    DistanceTooLargeError,
    NotHermitianError,
    NotPSDError,
    Channel,
    OutOfRangeError,
    TraceNotOneError,
    apply_channel,
    basis_columns,
    basis_state,
    complement_projector,
    depolarizing_channel,
    expectation,
    identity_channel,
    make_density,
    make_projector,
    maximally_mixed,
    neighbor_state,
    trace_distance,
)
from shotdp import states
from shotdp.errors import check_index
from conftest import random_density, random_projector


class TestMakeDensity:
    """Validation gates on density-matrix construction."""

    def test_accepts_diagonal_state(self):
        rho = make_density(np.diag([0.3, 0.7]))
        assert rho.dim == 2
        assert np.trace(rho.entries) == pytest.approx(1.0, abs=1e-12)

    def test_accepts_random_ginibre_states(self, rng):
        for dim in (2, 3, 4, 6):
            for _ in range(5):
                rho = random_density(rng, dim)
                np.testing.assert_allclose(rho.entries, rho.entries.conj().T, atol=1e-12)
                assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError, match="NotHermitian"):
            make_density(np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_rejects_negative_eigenvalue(self):
        """An indefinite matrix fails PSD and the message reports the eigenvalue."""
        with pytest.raises(NotPSDError, match="NotPSD"):
            make_density(np.diag([1.5, -0.5]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(TraceNotOneError, match="TraceNotOne"):
            make_density(np.diag([0.6, 0.6]))

    def test_rejects_non_square(self):
        with pytest.raises(DimMismatchError):
            make_density(np.ones((2, 3)))

    @pytest.mark.parametrize("entries", [
        [[np.nan, 0], [0, 1]],
        [[0.5, np.nan], [np.nan, 0.5]],
        [[np.inf, 0], [0, 1]],
        [[0.5, 0], [0, complex(0.5, -np.inf)]],
    ])
    def test_rejects_non_finite_entries(self, entries):
        """nan passes every tolerance check, as each comparison with it is
        false, and inf warns on its way to another error; both are rejected
        first, without a warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRangeError, match="OutOfRange: density matrix entries must be finite"):
                make_density(entries)

    def test_wrong_trace_is_printed_as_a_float(self):
        with pytest.raises(TraceNotOneError) as raised:
            make_density(np.diag([0.6, 0.5]))
        assert str(raised.value) == "TraceNotOne: trace = 1.1"

    def test_entries_are_read_only(self):
        rho = maximally_mixed(2)
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 0.9

    def test_basis_state_is_pure(self):
        rho = basis_state(3, 1)
        np.testing.assert_allclose(rho.entries @ rho.entries, rho.entries, atol=1e-12)
        assert rho.entries[1, 1] == pytest.approx(1.0)

    def test_basis_state_index_out_of_range(self):
        with pytest.raises(OutOfRangeError, match="OutOfRange"):
            basis_state(2, 2)

    @pytest.mark.parametrize("index", [True, False, 1.5, -1, "0", None, 2])
    def test_basis_index_must_be_a_count_below_dim(self, index):
        """Bools are rejected, though True == 1, and so are fractions."""
        with pytest.raises(OutOfRangeError, match="basis index"):
            basis_state(2, index)
        with pytest.raises(OutOfRangeError, match="basis index"):
            basis_columns(2, [0, index])

    @pytest.mark.parametrize("index, error", [
        (Fraction(2**60 + 1, 2), "basis index must be an integer >= 0"),
        (Fraction(10**400), "basis index exceeds the largest double"),
    ])
    def test_fraction_index_must_be_an_exact_integer(self, index, error):
        """A fraction whose float is an integer is not truncated, and one
        beyond the largest double is rejected, not overflowed."""
        with pytest.raises(OutOfRangeError, match=error):
            check_index(index, 2, "basis index")
        with pytest.raises(OutOfRangeError, match=error):
            basis_state(2, index)
        assert check_index(Fraction(2, 2), 2, "basis index") == 1

    @pytest.mark.parametrize("index", [1.0, np.int64(1), np.float64(1.0)], ids=["float", "numpy-int", "numpy-float"])
    def test_integral_indices_accepted(self, index):
        assert basis_state(2, index).entries[1, 1] == 1.0
        assert basis_columns(2, [index]).tolist() == [[0], [1]]

    @pytest.mark.parametrize("dim", [True, 0, 2.5, "2", None])
    def test_dimension_must_be_a_count(self, dim):
        with pytest.raises(OutOfRangeError, match="dimension D"):
            basis_state(dim)
        with pytest.raises(OutOfRangeError, match="dimension D"):
            basis_columns(dim, [0])

    def test_columns_from_an_iterator(self):
        """The indices are read once, so a generator gives the same block as a list."""
        cols = basis_columns(3, (k for k in [2, 0]))
        np.testing.assert_array_equal(cols, basis_columns(3, [2, 0]))
        assert make_projector(cols).rank == 2


class TestProjectors:
    """Projector construction, ranks, and complements."""

    def test_basis_projector_rank_one(self):
        m = make_projector(basis_columns(3, [0]))
        assert m.rank == 1
        np.testing.assert_allclose(m.entries @ m.entries, m.entries, atol=1e-12)

    def test_rank_counts_columns(self):
        m = make_projector(basis_columns(4, [0, 2]))
        assert m.rank == 2
        assert np.trace(m.entries).real == pytest.approx(2.0, abs=1e-12)

    def test_full_rank_projector_is_degenerate(self):
        m = make_projector(np.eye(2))
        assert m.rank == 2
        assert not hasattr(m, "is_degenerate")

    def test_zero_columns_give_rank_zero(self):
        m = make_projector(np.zeros((2, 0)))
        assert m.rank == 0
        np.testing.assert_array_equal(m.entries, np.zeros((2, 2)))

    def test_random_projectors_are_idempotent(self, rng):
        for dim, rank in ((2, 1), (4, 2), (5, 3)):
            m = random_projector(rng, dim, rank)
            assert m.rank == rank
            np.testing.assert_allclose(m.entries @ m.entries, m.entries, atol=1e-10)
            np.testing.assert_allclose(m.entries, m.entries.conj().T, atol=1e-12)

    def test_rejects_non_orthonormal_columns(self):
        cols = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ColumnsNotOrthonormalError, match="ColumnsNotOrthonormal"):
            make_projector(cols)

    @pytest.mark.parametrize("columns", [[[np.nan], [0]], [[1], [np.inf]], [[1, 0], [0, complex(np.nan, 1)]]])
    def test_rejects_non_finite_columns(self, columns):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRangeError, match="OutOfRange: column entries must be finite"):
                make_projector(columns)

    def test_inconsistent_trace_is_printed_as_a_float(self, monkeypatch):
        """With the tolerances widened, a short column passes the Gram and
        spectrum checks, and the trace check names its trace, 0.36."""
        monkeypatch.setattr(states, "ORTHONORMAL_TOL", 0.7)
        monkeypatch.setattr(states, "PROJECTOR_EIG_TOL", 0.7)
        with pytest.raises(ColumnsNotOrthonormalError) as raised:
            make_projector([[0.6], [0.0]])
        assert str(raised.value) == "ColumnsNotOrthonormal: trace 0.36 inconsistent with eigenvalue count 0"

    def test_rejects_too_many_columns(self):
        with pytest.raises(ColumnsNotOrthonormalError):
            make_projector(np.ones((2, 3)))

    def test_complement_splits_identity(self, rng):
        m = random_projector(rng, 4, 1)
        mc = complement_projector(m)
        assert mc.rank == 3
        np.testing.assert_allclose(m.entries + mc.entries, np.eye(4), atol=1e-10)
        np.testing.assert_allclose(m.entries @ mc.entries, np.zeros((4, 4)), atol=1e-10)


class TestChannels:
    """Identity and depolarizing channel behavior."""

    def test_identity_returns_same_object(self):
        rho = basis_state(2, 0)
        assert apply_channel(identity_channel(2), rho) is rho
        assert apply_channel(depolarizing_channel(0.0, 2), rho) is rho

    def test_identity_is_depolarizing_at_p_zero(self):
        assert identity_channel(3) == depolarizing_channel(0.0, 3) == Channel(p=0.0, dim=3)
        assert not hasattr(identity_channel(3), "kind")

    def test_depolarizing_p_zero_is_identity(self, rng):
        rho = random_density(rng, 3)
        out = apply_channel(depolarizing_channel(0.0, 3), rho)
        np.testing.assert_allclose(out.entries, rho.entries, atol=1e-12)

    def test_depolarizing_p_one_is_maximally_mixed(self, rng):
        rho = random_density(rng, 4)
        out = apply_channel(depolarizing_channel(1.0, 4), rho)
        np.testing.assert_allclose(out.entries, np.eye(4) / 4.0, atol=1e-12)

    def test_depolarizing_half_on_pure_qubit(self):
        out = apply_channel(depolarizing_channel(0.5, 2), basis_state(2, 0))
        np.testing.assert_allclose(out.entries, np.diag([0.75, 0.25]), atol=1e-12)

    def test_depolarizing_preserves_trace_and_hermiticity(self, rng):
        for _ in range(10):
            rho = random_density(rng, 3)
            out = apply_channel(depolarizing_channel(0.35, 3), rho)
            assert np.trace(out.entries).real == pytest.approx(1.0, abs=1e-10)
            np.testing.assert_allclose(out.entries, out.entries.conj().T, atol=1e-12)

    def test_depolarizing_rejects_bad_probability(self):
        with pytest.raises(OutOfRangeError):
            depolarizing_channel(1.5, 2)
        with pytest.raises(OutOfRangeError):
            depolarizing_channel(-0.1, 2)

    def test_dim_mismatch_raises(self):
        with pytest.raises(DimMismatchError, match="DimMismatch"):
            apply_channel(depolarizing_channel(0.5, 3), basis_state(2, 0))


class TestTraceDistance:
    """Metric properties and known closed-form values."""

    def test_orthogonal_pure_states_at_distance_one(self):
        assert trace_distance(basis_state(2, 0), basis_state(2, 1)) == pytest.approx(1.0, abs=1e-12)

    def test_identical_states_at_distance_zero(self, rng):
        rho = random_density(rng, 3)
        assert trace_distance(rho, rho) == 0.0

    def test_pure_state_to_mixed_qubit(self):
        """tau(|0><0|, I/2) = 1/2 for a qubit."""
        assert trace_distance(basis_state(2, 0), maximally_mixed(2)) == pytest.approx(0.5, abs=1e-12)

    def test_commuting_diagonal_pair(self):
        # diagonal case reduces to half the l1 distance of the spectra
        rho = make_density(np.diag([0.5, 0.5]))
        sigma = make_density(np.diag([0.6, 0.4]))
        assert trace_distance(rho, sigma) == pytest.approx(0.1, abs=1e-12)

    def test_symmetry_is_bit_exact(self, rng):
        for _ in range(20):
            rho, sigma = random_density(rng, 3), random_density(rng, 3)
            assert trace_distance(rho, sigma) == trace_distance(sigma, rho)

    def test_triangle_inequality(self, rng):
        for _ in range(20):
            a, b, c = (random_density(rng, 3) for _ in range(3))
            assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12

    def test_range_zero_one(self, rng):
        for _ in range(20):
            t = trace_distance(random_density(rng, 4), random_density(rng, 4))
            assert 0.0 <= t <= 1.0 + 1e-12


class TestDepolarizingContraction:
    """The depolarizing channel shrinks trace distance by exactly 1 - p."""

    def test_contraction_is_an_equality(self, rng):
        for dim in (2, 3, 5):
            for p in (0.2, 0.5, 0.8):
                rho, sigma = random_density(rng, dim), random_density(rng, dim)
                ch = depolarizing_channel(p, dim)
                before = trace_distance(rho, sigma)
                after = trace_distance(apply_channel(ch, rho), apply_channel(ch, sigma))
                assert after == pytest.approx((1.0 - p) * before, abs=1e-10)

    def test_full_noise_collapses_distance(self, rng):
        rho, sigma = random_density(rng, 2), random_density(rng, 2)
        ch = depolarizing_channel(1.0, 2)
        assert trace_distance(apply_channel(ch, rho), apply_channel(ch, sigma)) == pytest.approx(0.0, abs=1e-12)


class TestExpectationAndOverlap:
    """Measurement expectations and the overlap gap bound."""

    def test_expectation_of_basis_projector(self):
        rho = make_density(np.diag([0.3, 0.7]))
        m = make_projector(basis_columns(2, [0]))
        assert expectation(rho, m) == pytest.approx(0.3, abs=1e-12)

    def test_expectation_extremes(self):
        m0 = make_projector(basis_columns(2, [0]))
        assert expectation(basis_state(2, 0), m0) == pytest.approx(1.0, abs=1e-12)
        assert expectation(maximally_mixed(2), m0) == pytest.approx(0.5, abs=1e-12)
        m1 = make_projector(basis_columns(2, [1]))
        assert expectation(make_density(np.diag([0.75, 0.25])), m1) == pytest.approx(0.25, abs=1e-12)

    def test_expectation_within_unit_interval(self, rng):
        for _ in range(20):
            rho = random_density(rng, 4)
            m = random_projector(rng, 4, 2)
            assert 0.0 <= expectation(rho, m) <= 1.0

    def test_overlap_gap_bounded_by_trace_distance(self, rng):
        """|Tr[(rho - sigma) M]| can never exceed the trace distance."""
        for _ in range(30):
            rho, sigma = random_density(rng, 3), random_density(rng, 3)
            m = random_projector(rng, 3, 1)
            gap = abs(expectation(rho, m) - expectation(sigma, m))
            assert gap <= trace_distance(rho, sigma) + 1e-12


class TestNeighborState:
    """Constructing a state at a prescribed trace distance."""

    def test_qubit_example(self):
        """Pulling |0><0| distance 0.25 toward I/2 lands on diag(0.75, 0.25)."""
        sigma = neighbor_state(basis_state(2, 0), 0.25)
        np.testing.assert_allclose(sigma.entries, np.diag([0.75, 0.25]), atol=1e-12)

    def test_round_trip_distance(self, rng):
        """The constructed pair sits at the requested distance."""
        for _ in range(20):
            rho = random_density(rng, 3)
            reach = trace_distance(rho, maximally_mixed(3))
            d = 0.8 * reach
            sigma = neighbor_state(rho, d)
            assert trace_distance(rho, sigma) == pytest.approx(d, abs=1e-9)

    def test_zero_distance_returns_equal_state(self, rng):
        rho = random_density(rng, 2)
        sigma = neighbor_state(rho, 0.0)
        np.testing.assert_allclose(sigma.entries, rho.entries, atol=1e-12)

    def test_custom_anchor(self):
        sigma = neighbor_state(basis_state(2, 0), 0.5, anchor=basis_state(2, 1))
        np.testing.assert_allclose(sigma.entries, np.diag([0.5, 0.5]), atol=1e-12)

    def test_anchor_equal_to_state_raises(self):
        with pytest.raises(AnchorCoincidesError, match="AnchorCoincides"):
            neighbor_state(maximally_mixed(2), 0.1)

    def test_distance_beyond_reach_raises(self):
        """A qubit basis state reaches I/2 at distance 0.5, no further."""
        with pytest.raises(DistanceTooLargeError, match="DistanceTooLarge"):
            neighbor_state(basis_state(2, 0), 0.6)

    def test_negative_distance_raises(self):
        with pytest.raises(OutOfRangeError):
            neighbor_state(basis_state(2, 0), -0.1)
