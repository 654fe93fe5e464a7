"""Tests for subsystem membership, witnesses, truncation and the index."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockindex.algebra import AlgebraElement, DomainError, GridSpec, constant
from fockindex.fock import FockUnit, generator_unit
from fockindex.presets import exp_approach, exp_decay, inverse_decay, piecewise_linear
from fockindex.unit_algebra import add, left_mul, right_mul, semi_inner, wrap
from fockindex.subsystem import (
    CENTRALITY_TOLERANCE,
    DYADIC_DEPTH,
    Step1Witness,
    WitnessKind,
    _centrality_probes,
    approximate,
    centrality_check,
    convergence_report,
    convexify,
    index_homomorphism_residuals,
    index_representative,
    membership,
    theta_check,
    witness_step1,
)

GRID = GridSpec(4, 40)
ZERO = constant(GRID, 0)


def unit(zeta, beta=None):
    return FockUnit(zeta, beta if beta is not None else ZERO)


def negative_dip(n=8):
    s = GRID.points()
    return AlgebraElement(GRID, np.where(s < n, 1.0 - 2.0 * np.exp(-s), 1.0).astype(complex), 1.0)


class TestMembership:
    def test_generator_is_member(self):
        report = membership(generator_unit(GRID), 1e-9)
        assert report.in_E
        assert report.witness_kind is WitnessKind.EXACT_TAIL
        assert report.details["eventually_one_from"] == 0
        assert report.zeta_limit == 1.0

    def test_fast_approach_becomes_eventually_one_on_the_grid(self):
        # e^{-s} drops below the exact-one tolerance by s = 28, so the
        # grid sees an eventually-one function and the direct witness applies
        report = membership(unit(exp_approach(GRID, 1.0, 1.0)), 1e-9)
        assert report.in_E
        assert report.witness_kind is WitnessKind.EXACT_TAIL
        assert report.details["eventually_one_from"] == 28

    def test_slow_approach_is_approximation(self):
        report = membership(unit(exp_approach(GRID, 1.0, 0.6)), 1e-9)
        assert report.in_E
        assert report.witness_kind is WitnessKind.APPROXIMATION
        assert not report.warnings

    def test_eventually_one_detected(self):
        report = membership(unit(negative_dip(8)), 1e-9)
        assert report.in_E
        assert report.witness_kind is WitnessKind.EXACT_TAIL
        assert report.details["eventually_one_from"] == 8

    def test_rejections(self):
        for zeta, limit in [(constant(GRID, 2), 2.0), (constant(GRID, 0), 0.0)]:
            report = membership(unit(zeta, constant(GRID, 0.3)), 1e-9)
            assert not report.in_E
            assert report.witness_kind is WitnessKind.REJECTED
            assert report.zeta_limit == limit
            assert report.distance_to_one == abs(limit - 1.0)

    def test_beta_is_ignored(self):
        for beta in (ZERO, constant(GRID, 5), exp_decay(GRID, 1.0, 1.0, 1j)):
            assert membership(unit(exp_approach(GRID, 1.0, 1.0), beta), 1e-9).in_E

    def test_tolerance_boundary(self):
        assert membership(unit(constant(GRID, 1 + 1e-12)), 1e-9).in_E
        assert membership(unit(constant(GRID, 1 - 1e-12)), 1e-9).in_E
        assert not membership(unit(constant(GRID, 1 + 1e-7)), 1e-9).in_E

    def test_unresolved_elements_carry_warning(self):
        report = membership(unit(inverse_decay(GRID, 1.0, 1.0)), 1e-9)
        assert report.in_E
        assert report.warnings and "unresolved" in report.warnings[0]

    def test_invariant_links_verdict_and_distance(self):
        for zeta in (constant(GRID, 1.0000001), exp_approach(GRID, 1.0, 1.0), constant(GRID, 0)):
            report = membership(unit(zeta), 1e-9)
            assert report.in_E == (report.distance_to_one <= 1e-9)

    def test_constructed_members_pass_strict_membership(self):
        zeta = piecewise_linear(GRID, [(0.0, 0.5), (1.0, 1.0)])
        witness_step1(zeta, 1)
        assert membership(unit(zeta), 1e-10).in_E
        _, convexified = convexify(negative_dip(8), 8, 0.1)
        assert membership(unit(convexified), 1e-10).in_E
        # an order of magnitude beyond the tolerance must be rejected
        assert not membership(unit(constant(GRID, 1 + 1e-8)), 1e-10).in_E


class TestWitness:
    def test_trivial_unit(self):
        witness = witness_step1(constant(GRID, 1), 3)
        assert (witness.b0 - constant(GRID, 1)).sup_norm() == 0.0
        assert (witness.b1 - constant(GRID, 1)).sup_norm() == 0.0
        assert witness.max_identity_residual == 0.0

    def test_n1_piecewise(self):
        zeta = piecewise_linear(GRID, [(0.0, 0.5), (1.0, 1.0)])
        witness = witness_step1(zeta, 1)
        assert (witness.b0 - zeta).sup_norm() == 0.0
        assert (witness.b1 - zeta.reciprocal()).sup_norm() == 0.0
        assert witness.max_identity_residual <= 1e-12
        # the conjugated pair reproduces the unit component directly
        direct = witness.b1.shift(1) * witness.b0
        assert (direct - zeta).sup_norm() <= 1e-12

    def test_n2_piecewise(self):
        zeta = piecewise_linear(GRID, [(0.0, 0.3), (2.0, 1.0)])
        witness = witness_step1(zeta, 2)
        expected_b0 = zeta * zeta.shift(1)
        assert (witness.b0 - expected_b0).sup_norm() == 0.0
        assert witness.max_identity_residual <= 1e-12

    def test_preconditions(self):
        # inside the domain, but no witness: the obstacle comes back as the answer
        negative = piecewise_linear(GRID, [(0.0, -0.5), (1.0, 1.0)])
        assert witness_step1(negative, 1) == "zeta is not strictly positive below n"
        dip = piecewise_linear(GridSpec(2, 10), [[0.0, -3000.0], [1.0, 1.0]])
        assert witness_step1(dip, 1) == "zeta is not strictly positive below n"
        tiny = piecewise_linear(GRID, [(0.0, 1e-20), (1.0, 1.0)])  # positive, but b0 below the reciprocal floor
        assert witness_step1(tiny, 1) == "b0 = zeta(s)...zeta(s+n-1) falls to 1.000e-20, below the reciprocal floor 1e-14"
        # outside the domain
        with pytest.raises(DomainError):
            witness_step1(exp_approach(GRID, 1.0, 1.0), 2)  # never exactly 1
        with pytest.raises(DomainError):
            witness_step1(constant(GRID, 1), 0)
        with pytest.raises(DomainError):
            witness_step1(constant(GRID, 1.0 + 0.5j), 2)  # complex
        short = GridSpec(4, 3)
        with pytest.raises(DomainError):
            witness_step1(constant(short, 1), 2)  # S < 2n

    @pytest.mark.parametrize(
        "zeta, n",
        [
            (lambda grid: constant(grid, 1.0 + 0.5j), 1),
            (lambda grid: exp_approach(grid, 1.0, 1.0), 1),
            (lambda grid: constant(grid, 1.0), 6),
        ],
        ids=["complex", "never_exactly_one", "grid_shorter_than_2n"],
    )
    def test_obstacle_and_witness_share_one_domain(self, zeta, n):
        with pytest.raises(DomainError):
            witness_step1(zeta(GridSpec(2, 10)), n)

    @pytest.mark.parametrize(
        "at_n, tail, deviation",
        [(1.0, 1.5, "5.000e-01"), (1.25, 1.0, "2.500e-01")],
        ids=["tail", "sample_at_n"],
    )
    def test_the_domain_error_names_the_max_deviation(self, at_n, tail, deviation):
        grid, n = GridSpec(2, 10), 2
        samples = np.ones(grid.size, dtype=complex)
        samples[n * grid.step_denominator] = at_n
        with pytest.raises(DomainError) as error:
            witness_step1(AlgebraElement(grid, samples, tail), n)
        assert str(error.value).endswith(f"; max deviation {deviation}")

    def test_inverse_pair(self):
        zeta = piecewise_linear(GRID, [(0.0, 0.2), (1.0, 0.6), (4.0, 1.0)])
        witness = witness_step1(zeta, 4)
        assert (witness.b0 * witness.b1 - constant(GRID, 1)).sup_norm() <= 1e-12

    def test_the_caller_judges_the_identity_residual(self):
        # 1 + 5e-13 counts as one, but b1(s + 1) = 1/(1 + 5e-13) scales the 1000 of b0(s)
        s = GRID.points()
        zeta = AlgebraElement(GRID, np.where(s < 1, 1000.0, 1.0 + 5e-13).astype(complex), 1.0 + 5e-13)
        negative = AlgebraElement(GRID, np.where(s < 1, -1000.0, 1.0 + 5e-13).astype(complex), 1.0 + 5e-13)
        assert witness_step1(negative, 1) == "zeta is not strictly positive below n"
        assert 1e-12 < witness_step1(zeta, 1).max_identity_residual < 1e-6


    def test_a_pair_whose_product_is_not_one_is_no_witness(self):
        one, two = constant(GRID, 1.0), constant(GRID, 2.0)
        with pytest.raises(ValueError, match="b0 \\* b1 must equal 1"):
            Step1Witness(1, one, two, 0.0)


class TestConvexify:
    def test_single_dip_solves_linear_constraint(self):
        samples = np.ones(GRID.size, dtype=complex)
        samples[0] = -1.0
        zeta = AlgebraElement(GRID, samples, 1.0)
        alpha, zeta_prime = convexify(zeta, 1, 0.25)
        # constraint: 1 - 2*alpha >= 0.25, largest dyadic alpha is exactly 3/8
        assert alpha == 0.375
        assert np.min(zeta_prime.samples.real) >= 0.25

    def test_positive_input_returns_finest_step(self):
        zeta = piecewise_linear(GRID, [(0.0, 0.5), (1.0, 1.0)])
        alpha, zeta_prime = convexify(zeta, 1, 0.25)
        assert alpha == 1.0 - 2.0**-10
        assert abs(zeta_prime.value_at(3) - 1.0) < 1e-12

    def test_constant_one_unchanged(self):
        alpha, zeta_prime = convexify(constant(GRID, 1), 1, 0.5)
        assert (zeta_prime - constant(GRID, 1)).sup_norm() == 0.0
        assert alpha == 1.0 - 2.0**-10

    def test_no_alpha_found(self):
        samples = np.ones(GRID.size, dtype=complex)
        samples[0] = -1e7
        zeta = AlgebraElement(GRID, samples, 1.0)
        with pytest.raises(ValueError):
            convexify(zeta, 1, 0.9)

    def test_bad_delta(self):
        with pytest.raises(ValueError):
            convexify(constant(GRID, 1), 1, 1.5)


class TestThetaCheck:
    def test_trivial_unit(self):
        assert theta_check(constant(GRID, 1), 2) <= 1e-14

    def test_negative_dip(self):
        assert theta_check(negative_dip(8), 8) <= 1e-10

    def test_agrees_with_direct_witness_case(self):
        zeta = piecewise_linear(GRID, [(0.0, 0.5), (1.0, 1.0)])
        assert theta_check(zeta, 1) <= 1e-10


class TestApproximate:
    def test_constant_one_fixed(self):
        assert (approximate(constant(GRID, 1), 5) - constant(GRID, 1)).sup_norm() == 0.0

    def test_matches_definition(self):
        zeta = exp_approach(GRID, 1.0, 1.0)
        n = 10
        approx = approximate(zeta, n)
        pivot = zeta.value_at(n)
        m = GRID.step_denominator
        expected = np.ones(GRID.size, dtype=complex)
        expected[: n * m] = zeta.samples[: n * m] / pivot
        assert np.array_equal(approx.samples, expected)
        assert approx.tail == 1.0

    def test_sup_distance_bound(self):
        zeta = exp_approach(GRID, 1.0, 1.0)
        got = (zeta - approximate(zeta, 10)).sup_norm()
        bound = 2.0 * math.exp(-10.0) / (1.0 + math.exp(-10.0))
        assert abs(got - bound) < 1e-13
        assert got < 9.2e-5

    def test_result_is_witness_eligible_after_convexify(self):
        zeta = exp_approach(GRID, 1.0, 1.0)
        approx = approximate(zeta, 6)
        alpha, zeta_prime = convexify(approx, 6, 0.1)
        witness = witness_step1(zeta_prime, 6)
        assert witness.max_identity_residual <= 1e-12

    def test_small_pivot_rejected(self):
        zeta = exp_decay(GRID, 1.0, 1.0, 0.0)  # zeta(40) = e^{-40} < 1e-8
        with pytest.raises(ValueError):
            approximate(zeta, 40)

    def test_n_outside_grid_rejected(self):
        with pytest.raises(ValueError):
            approximate(constant(GRID, 1), 41)


class TestConvergenceReport:
    def test_trivial_zeta_gives_zero_columns(self):
        report = convergence_report(constant(GRID, 1), 1.0, [2, 4])
        for row in report.rows:
            assert row.sup_dist == row.index_dist == row.kernel_dist == 0.0
            assert row.semigroup_dist == row.probe_kernel_dist == 0.0
        assert report.passed

    def test_nonmember_rejected(self):
        with pytest.raises(ValueError):
            convergence_report(constant(GRID, 2), 1.0, [2, 4])

    def test_exponential_approach(self):
        report = convergence_report(exp_approach(GRID, 1.0, 1.0), 1.0, [2, 4, 6, 8, 10])
        assert report.monotone
        assert report.index_matches_sup
        assert report.below_threshold
        sups = [row.sup_dist for row in report.rows]
        assert all(a > b for a, b in zip(sups, sups[1:]))
        assert abs(sups[-1] - 2.0 * math.exp(-10.0) / (1.0 + math.exp(-10.0))) < 1e-15


class TestIndexRepresentative:
    def test_generator_maps_to_zero(self):
        assert index_representative(generator_unit(GRID)).sup_norm() == 0.0

    def test_exponential_approach(self):
        rep = index_representative(unit(exp_approach(GRID, 1.0, 1.0)))
        # (1 + e^{-s}) - 1 loses the sub-epsilon part of e^{-s} near the far end
        assert (rep - exp_decay(GRID, 1.0, 1.0, 0.0)).sup_norm() < 1e-15
        assert rep.tail == 0.0

    def test_beta_quotients_out(self):
        zeta = exp_approach(GRID, 0.5j, 1.2)
        with_beta = index_representative(unit(zeta, constant(GRID, 3 + 1j)))
        without = index_representative(unit(zeta))
        assert (with_beta - without).sup_norm() == 0.0

    def test_nonmember_rejected(self):
        with pytest.raises(ValueError):
            index_representative(unit(constant(GRID, 2)))


def random_complex(rng, radius):
    return complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))


def random_member(rng, grid):
    zeta = exp_approach(grid, random_complex(rng, 1.0), rng.uniform(0.7, 2.0))
    return FockUnit(zeta, constant(grid, random_complex(rng, 0.5)))


class TestIndexHomomorphismResiduals:
    @pytest.mark.filterwarnings("ignore::fockindex.algebra.UnresolvedTailWarning")  # S = 3 is short of every tail
    @pytest.mark.parametrize("grid", [GridSpec(1, 3), GridSpec(4, 40)])
    def test_same_bits_as_the_inline_residuals(self, grid):
        """The four residuals, bit for bit against the expressions that
        criterion 11 and the index command each wrote out before."""
        rng = np.random.default_rng(11)
        xi = generator_unit(grid)
        one = constant(grid, 1.0)
        for _ in range(8):
            x, y = (wrap(random_member(rng, grid), xi) for _ in range(2))
            a = exp_decay(grid, random_complex(rng, 0.8), rng.uniform(0.7, 2.0), random_complex(rng, 0.5))
            rep_x, rep_y = index_representative(x.unit), index_representative(y.unit)
            expected = {
                "add": (index_representative(add(x, y).unit) - (rep_x + rep_y)).sup_norm(),
                "left": (index_representative(left_mul(a, x).unit) - a.shift(1) * rep_x).sup_norm(),
                "right": (index_representative(right_mul(x, a).unit) - rep_x * a).sup_norm(),
                "inner": (semi_inner(x, y, one) - rep_x.star() * rep_y).sup_norm(),
            }
            got = index_homomorphism_residuals(x, y, a)
            assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in expected.items()}
            assert max(got.values()) <= 1e-11

    def test_nonmember_rejected(self):
        xi = generator_unit(GRID)
        with pytest.raises(ValueError):
            index_homomorphism_residuals(wrap(unit(constant(GRID, 2)), xi), wrap(xi, xi), constant(GRID, 1))


class TestCentrality:
    def test_zero_zeta_is_unobstructed(self):
        assert centrality_check(unit(constant(GRID, 0), constant(GRID, 0.7)))

    def test_generator_fails_against_exponential_probe(self):
        """Each of the check's exponential probes alone obstructs the generator."""
        xi = generator_unit(GRID)
        for probe in _centrality_probes(GRID):
            assert ((probe.shift(1) - probe) * xi.zeta).sup_norm() > CENTRALITY_TOLERANCE
        assert not centrality_check(xi)

    def test_members_fail_default_battery(self):
        members = [
            generator_unit(GRID),
            unit(exp_approach(GRID, 1.0, 1.0)),
            unit(negative_dip(8), constant(GRID, 2.0)),
            unit(constant(GRID, 1 + 1e-12)),
        ]
        for member in members:
            assert not centrality_check(member)


ONE_FROM_ONE = piecewise_linear(GRID, [(0.0, 0.5), (1.0, 1.0)])


@pytest.mark.parametrize(
    "call",
    [
        lambda n: witness_step1(ONE_FROM_ONE, n),
        lambda n: approximate(ONE_FROM_ONE, n),
        lambda n: convexify(ONE_FROM_ONE, n, 0.1),
        lambda n: theta_check(ONE_FROM_ONE, n),
    ],
    ids=["witness_step1", "approximate", "convexify", "theta_check"],
)
def test_a_bool_is_not_a_particle_count(call):
    with pytest.raises(ValueError, match="integer"):
        call(True)
    call(np.int64(1))


def reference_convexify(zeta, delta):
    """convexify's search over the whole sample array, as it was written
    before it read the least sample alone."""
    values = zeta.samples.real
    denominator = 2**DYADIC_DEPTH
    for k in range(denominator - 1, 0, -1):
        alpha = k / denominator
        if np.min(alpha * values + (1.0 - alpha)) >= delta:
            return alpha, zeta * alpha + (1.0 - alpha)
    raise DomainError(f"no dyadic alpha in (0, 1) keeps the combination above {delta}")


def convexify_outcome(call):
    """The alpha and element bytes of a convexification, or its DomainError."""
    try:
        alpha, element = call()
    except DomainError as error:
        return ("DomainError", str(error))
    return (np.float64(alpha).tobytes(), element.coordinates.tobytes())


SAMPLE_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 5e-324, -5e-324]), st.floats(-1e4, 3.0))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 12), st.data())
def test_convexify_reads_the_least_sample_as_the_whole_array(m, end, data):
    """A real zeta, exactly 1 from n on: the alpha, the element bytes and
    the DomainError when no alpha fits are those of the full-array rule."""
    grid = GridSpec(m, end)
    n = data.draw(st.integers(0, end))
    below = data.draw(st.lists(SAMPLE_VALUES, min_size=n * m, max_size=n * m))
    samples = np.ones(grid.size, dtype=complex)
    samples[: n * m] = below
    zeta = AlgebraElement(grid, samples, 1.0)
    delta = data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    expected = convexify_outcome(lambda: reference_convexify(zeta, delta))
    assert convexify_outcome(lambda: convexify(zeta, n, delta)) == expected
