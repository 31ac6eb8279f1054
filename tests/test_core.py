"""Field arithmetic, classification, shadows, halos and galaxies."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    rand_appreciable,
    rand_exact,
    rand_infinitesimal,
    rand_limited,
    rand_unlimited,
)
from hyperreal import (
    EPS,
    OMEGA,
    ONE,
    ZERO,
    Classification,
    HyperReal,
    Ordering,
    Precision,
    galaxy_compare,
    galaxy_equiv,
    halo_equiv,
)
from hyperreal.errors import (
    ExactZeroDivisionError,
    InsufficientPrecisionError,
    NegativeLeadingCoefficientError,
    RootNotExactError,
    UnlimitedShadowError,
    UnresolvedZeroError,
)

F = Fraction

coefficients = st.fractions(min_value=-8, max_value=8, max_denominator=6)
exponents = st.fractions(min_value=-4, max_value=4, max_denominator=3)
exact_elements = st.lists(st.tuples(exponents, coefficients), max_size=4).map(HyperReal)
nonzero_exact = exact_elements.filter(lambda x: bool(x.terms))
rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


# ---------------------------------------------------------------------------
# Construction and normalization


def test_terms_merge_and_drop_zeros():
    x = HyperReal([(1, 2), (1, -2), (0, 3)])
    assert x.terms == ((F(0), F(3)),)


def test_order_bound_truncates_terms():
    x = HyperReal([(0, 1), (5, 7)], order_bound=3)
    assert x.terms == ((F(0), F(1)),)
    assert x.order_bound == 3


def test_floats_rejected():
    with pytest.raises(TypeError):
        HyperReal([(0, 0.5)])


# ---------------------------------------------------------------------------
# add / mul


def test_add_coefficient_cancellation():
    x = HyperReal([(0, 3), (1, 1)])
    y = HyperReal([(0, -3), (2, 1)])
    assert x + y == EPS + EPS * EPS


def test_add_identity_on_random_elements():
    rng = random.Random(7)
    for _ in range(50):
        x = rand_exact(rng)
        assert x + ZERO == x


def test_add_eps_plus_omega_is_unlimited():
    total = EPS + OMEGA
    assert total.lead_exponent == -1
    assert total.classify() is Classification.POSITIVE_UNLIMITED


def test_mul_inverse_pair():
    assert EPS * OMEGA == ONE


def test_mul_difference_of_squares():
    assert (1 + EPS) * (1 - EPS) == 1 - EPS * EPS


def test_mul_eps_times_omega_squared():
    # Direct term arithmetic: eps^1 * eps^-2 = eps^-1.
    assert EPS * (OMEGA * OMEGA) == HyperReal.monomial(1, -1)
    assert (EPS * (OMEGA * OMEGA)).classify() is Classification.POSITIVE_UNLIMITED
    # The same product with omega instead is appreciable: the form eps*H
    # really is indeterminate.
    assert (EPS * OMEGA).classify() is Classification.APPRECIABLE


def test_mul_bound_propagation():
    truncated = HyperReal([(0, 1)], order_bound=2)
    assert (truncated * OMEGA).order_bound == 1
    assert (truncated * OMEGA).terms == ((F(-1), F(1)),)


# ---------------------------------------------------------------------------
# inv


def test_inv_geometric_series():
    x = 1 + EPS
    got = x.inv(4)
    assert got == HyperReal([(0, 1), (1, -1), (2, 1), (3, -1)], order_bound=4)
    # Multiply-back oracle: the residual starts at exponent >= 4.
    residual = x * got - 1
    assert residual.terms == ()
    assert residual.order_bound is not None and residual.order_bound >= 4


def test_inv_monomial_is_exact():
    assert EPS.inv() == OMEGA
    assert EPS.inv().is_exact


def test_inv_constant():
    two = HyperReal.from_rational(2)
    assert two.inv() == HyperReal.from_rational(F(1, 2))
    assert two.inv().is_exact


def test_inv_errors():
    with pytest.raises(ExactZeroDivisionError):
        ZERO.inv()
    with pytest.raises(UnresolvedZeroError):
        HyperReal((), order_bound=4).inv()


def test_inv_of_truncated_input_keeps_honest_bound():
    x = (1 + EPS).inv(4)  # known to O(eps^4)
    again = x.inv(16)
    # 1/x is 1 + eps modulo the unknown tail of x.
    assert again.terms == ((F(0), F(1)), (F(1), F(1)))
    assert again.order_bound == 4


# ---------------------------------------------------------------------------
# root


def test_root_of_eps_is_infinitesimal():
    r = EPS.root(2)
    assert r == HyperReal.monomial(1, F(1, 2))
    assert r.classify() is Classification.POSITIVE_INFINITESIMAL


def test_root_perfect_square_constant():
    assert HyperReal.from_rational(4).root(2) == HyperReal.from_rational(2)


def test_root_binomial_series():
    x = 1 + EPS
    got = x.root(2, 3)
    assert got == HyperReal([(0, 1), (1, F(1, 2)), (2, F(-1, 8))], order_bound=3)
    # Square-back oracle: residual leading exponent >= 3.
    residual = got * got - x
    assert residual.terms == ()
    assert residual.order_bound is not None and residual.order_bound >= 3


def test_root_odd_degree_negative():
    assert HyperReal.from_rational(-8).root(3) == HyperReal.from_rational(-2)


def test_root_errors():
    with pytest.raises(NegativeLeadingCoefficientError):
        HyperReal.from_rational(-4).root(2)
    with pytest.raises(RootNotExactError):
        HyperReal.from_rational(2).root(2)
    with pytest.raises(UnresolvedZeroError):
        HyperReal((), order_bound=1).root(2)


def test_root_preserves_class_table():
    rng = random.Random(11)
    for n in (2, 3, 5):
        for gen, want in (
            (rand_infinitesimal, Classification.POSITIVE_INFINITESIMAL),
            (rand_appreciable, Classification.APPRECIABLE),
            (rand_unlimited, Classification.POSITIVE_UNLIMITED),
        ):
            for _ in range(10):
                x = gen(rng, positive=True)
                q = F(x.lead_coefficient)
                base = x * HyperReal.from_rational(1 / q) * HyperReal.from_rational(q**n)
                assert base.root(n).classify() is want


# ---------------------------------------------------------------------------
# compare / classify


def test_compare_eps_with_zero():
    assert EPS.compare(ZERO) is Ordering.GREATER


def test_compare_reflexive_on_random_exact():
    rng = random.Random(3)
    for _ in range(50):
        x = rand_exact(rng)
        assert x.compare(x) is Ordering.EQUAL


def test_compare_omega_beats_any_constant():
    assert OMEGA.compare(HyperReal.from_rational(10**100)) is Ordering.GREATER


def test_compare_unknown_for_unresolved_difference():
    x = HyperReal((), order_bound=2)
    assert x.compare(ZERO) is Ordering.UNKNOWN


def test_classify_examples():
    assert EPS.classify() is Classification.POSITIVE_INFINITESIMAL
    assert HyperReal.from_rational(7).classify() is Classification.APPRECIABLE
    assert ZERO.classify() is Classification.ZERO
    # -omega + 5: the unlimited term dominates the appreciable one.
    assert (-OMEGA).classify() is Classification.NEGATIVE_UNLIMITED
    assert (-OMEGA + 5).classify() is Classification.NEGATIVE_UNLIMITED


def test_classify_unresolved_raises():
    with pytest.raises(UnresolvedZeroError):
        HyperReal((), order_bound=1).classify()


def test_zero_is_infinitesimal_and_limited():
    assert ZERO.is_infinitesimal()
    assert ZERO.is_limited()


# ---------------------------------------------------------------------------
# shadow


def test_shadow_extracts_constant_term():
    assert (3 + 2 * EPS + EPS * EPS).shadow() == 3


def test_shadow_of_eps_is_zero():
    assert EPS.shadow() == 0


def test_shadow_of_unlimited_raises():
    with pytest.raises(UnlimitedShadowError):
        OMEGA.shadow()


def test_shadow_needs_positive_bound():
    with pytest.raises(InsufficientPrecisionError):
        HyperReal((), order_bound=0).shadow()


# ---------------------------------------------------------------------------
# halo / galaxy


def test_halo_examples():
    three = HyperReal.from_rational(3)
    assert halo_equiv(three, three + EPS)
    assert not halo_equiv(ZERO, HyperReal.from_rational(F(1, 1000)))
    # Difference eps^2 classifies as infinitesimal.
    assert (EPS * EPS).classify() is Classification.POSITIVE_INFINITESIMAL
    assert halo_equiv(OMEGA, OMEGA + EPS * EPS)


def test_halo_reflexive_on_truncated_values():
    x = (1 + EPS).inv(4)
    assert halo_equiv(x, x)


def test_galaxy_examples():
    assert galaxy_equiv(OMEGA, OMEGA + 5)
    assert not galaxy_equiv(OMEGA, OMEGA + OMEGA)
    assert galaxy_equiv(ZERO, HyperReal.from_rational(10**6))


def test_galaxy_compare_examples():
    two_omega = OMEGA + OMEGA
    assert galaxy_compare(OMEGA, two_omega) is Ordering.LESS
    assert galaxy_compare(OMEGA + 3, OMEGA) is Ordering.EQUAL


def test_galaxy_density_witness():
    omega_sq = OMEGA * OMEGA
    midpoint = (OMEGA + omega_sq) * HyperReal.from_rational(F(1, 2))
    # Oracle: classify the differences directly.
    assert (OMEGA - midpoint).classify() is Classification.NEGATIVE_UNLIMITED
    assert (midpoint - omega_sq).classify() is Classification.NEGATIVE_UNLIMITED
    assert galaxy_compare(OMEGA, midpoint) is Ordering.LESS
    assert galaxy_compare(midpoint, omega_sq) is Ordering.LESS


def test_galaxy_compare_unresolved_raises():
    with pytest.raises(UnresolvedZeroError):
        galaxy_compare(HyperReal((), order_bound=-1), ZERO)


# ---------------------------------------------------------------------------
# Field axioms and order (property tests)


@given(exact_elements, exact_elements, exact_elements)
def test_field_axioms_on_exact_elements(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x
    assert x * ONE == x
    assert x + (-x) == ZERO


@given(exact_elements, exact_elements, exact_elements)
def test_order_compatible_with_addition(x, y, z):
    if x.compare(y) is Ordering.LESS:
        assert (x + z).compare(y + z) is Ordering.LESS


@given(exact_elements, exact_elements, nonzero_exact)
def test_order_compatible_with_positive_scaling(x, y, z):
    if x.compare(y) is Ordering.LESS and z.sign() > 0:
        assert (x * z).compare(y * z) is Ordering.LESS


@given(exact_elements, exact_elements)
def test_trichotomy_on_exact_pairs(x, y):
    outcome = x.compare(y)
    assert outcome in (Ordering.LESS, Ordering.EQUAL, Ordering.GREATER)
    assert (outcome is Ordering.EQUAL) == (x - y == ZERO)
    assert (outcome is Ordering.LESS) == (y.compare(x) is Ordering.GREATER)


# ---------------------------------------------------------------------------
# Series kernel: inverses, roots and integer powers (property tests)

relative_orders = st.integers(min_value=1, max_value=16)
bounded_elements = st.builds(
    HyperReal, st.lists(st.tuples(exponents, coefficients), max_size=4), st.none() | exponents
)


@st.composite
def rootable(draw):
    """(x, d): x has an exact d-th power leading coefficient, maybe an O() tail."""
    degree = draw(st.integers(min_value=2, max_value=5))
    base = draw(st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool))
    lead = draw(exponents)
    gaps = draw(st.lists(st.fractions(min_value=F(1, 3), max_value=3, max_denominator=3), max_size=3))
    terms = [(lead, base**degree)]
    for gap in gaps:
        terms.append((terms[-1][0] + gap, draw(coefficients)))
    tail = draw(st.none() | st.fractions(min_value=F(1, 3), max_value=4, max_denominator=3))
    bound = None if tail is None else terms[-1][0] + tail
    return HyperReal(terms, bound), degree


@given(nonzero_exact, relative_orders)
@settings(max_examples=80, deadline=None)
def test_inverse_residual_has_high_order(x, T):
    residual = x * x.inv(Precision(T)) - 1
    assert residual.terms == ()
    # Exact zero (monomial input) or an unknown tail of order >= T.
    assert residual.order_bound is None or residual.order_bound >= T


@given(rootable(), relative_orders)
@settings(max_examples=80, deadline=None)
def test_root_power_agrees_below_relative_order(case, T):
    x, degree = case
    q = x.lead_exponent
    difference = x.root(degree, T) ** degree - x
    assert difference.terms == ()
    if not (len(x.terms) == 1 and x.is_exact):  # a monomial's root is exact
        expected = q + T if x.is_exact else min(q + T, x.order_bound)
        assert difference.order_bound == expected


@given(bounded_elements, st.integers(min_value=0, max_value=8))
@settings(max_examples=80, deadline=None)
def test_power_equals_repeated_product(x, n):
    product = ONE
    for _ in range(n):
        product = product * x
    assert x**n == product


@pytest.mark.parametrize(
    "x, n, visits",
    [
        # u = eps^(1/1000) + eps^1000: sums of <= 2 steps are 5 indices of 2*10^6.
        (HyperReal([(0, 1), (F(1, 1000), 1), (1000, 1)]), 2, 5),
        (HyperReal([(0, 1), (F(1, 1000), 1), (10000, 1)]), 2, 5),
        # Inexact: the cut at 16 leaves 4 of the 1600 lattice indices below it.
        (HyperReal([(0, 1), (F(1, 100), 1), (10, 1)], 16), 2, 4),
        (HyperReal([(F(1, 1000), 1), (1000, 1)]), 7, 7),
        # Some sums are first reached by a longer route (8 = 1+7 before 4+4);
        # their summand count must be lowered, or 3-term sums past them are lost.
        (HyperReal([(0, 1), (1, 1), (4, 1), (7, 1), (12, 1)]), 3, 27),
    ],
)
def test_sparse_power_visits_only_short_sums(monkeypatch, x, n, visits):
    import heapq

    popped = []
    heappop = heapq.heappop
    monkeypatch.setattr(heapq, "heappop", lambda heap: popped.append(1) or heappop(heap))
    result = x**n
    monkeypatch.undo()
    product = ONE
    for _ in range(n):
        product = product * x
    assert result == product
    assert len(popped) == visits


# ---------------------------------------------------------------------------
# Arithmetic table


def test_arithmetic_table():
    rng = random.Random(101)
    for _ in range(60):
        e, d = rand_infinitesimal(rng), rand_infinitesimal(rng)
        b, c = rand_appreciable(rng), rand_appreciable(rng)
        H, K = rand_unlimited(rng), rand_unlimited(rng)

        assert (-e).classify().is_infinitesimal
        assert (-b).classify() is Classification.APPRECIABLE
        assert (-H).classify().is_unlimited

        assert (e + d).classify().is_infinitesimal
        assert (b + c).classify().is_limited  # possibly infinitesimal
        assert (b + e).classify() is Classification.APPRECIABLE
        assert (H + b).classify().is_unlimited
        assert (H + e).classify().is_unlimited

        assert (e * d).classify().is_infinitesimal
        assert (b * c).classify() is Classification.APPRECIABLE
        assert (H * b).classify().is_unlimited
        assert (H * K).classify().is_unlimited

        assert e.inv().classify().is_unlimited
        assert b.inv().classify() is Classification.APPRECIABLE
        assert H.inv().classify().is_infinitesimal

        assert (e * H.inv()).classify().is_infinitesimal
        assert (e * b.inv()).classify().is_infinitesimal
        assert (b * H.inv()).classify().is_infinitesimal
        assert (b * c.inv()).classify() is Classification.APPRECIABLE
        assert (H * e.inv()).classify().is_unlimited
        assert (b * e.inv()).classify().is_unlimited
        assert (H * b.inv()).classify().is_unlimited


def test_indeterminate_forms_have_multiple_outcomes():
    eps2 = EPS * EPS
    ratios = {(EPS / eps2).classify(), (eps2 / EPS).classify(), (EPS / EPS).classify()}
    assert len(ratios) >= 2  # eps/delta
    omega2 = OMEGA * OMEGA
    assert len({(OMEGA / omega2).classify(), (omega2 / OMEGA).classify()}) >= 2  # H/K
    assert len({(EPS * OMEGA).classify(), (EPS * omega2).classify()}) >= 2  # eps*H
    sums = {
        (OMEGA + (-OMEGA)).classify(),
        (OMEGA + (-OMEGA + 1)).classify(),
        (OMEGA + OMEGA).classify(),
    }
    assert len(sums) >= 2  # H+K


def test_infinitesimals_form_an_ideal_of_the_limited_ring():
    rng = random.Random(23)
    for _ in range(60):
        e, d = rand_infinitesimal(rng), rand_infinitesimal(rng)
        l = rand_limited(rng)
        assert (e + d).is_infinitesimal()
        assert (e * l).is_infinitesimal()


# ---------------------------------------------------------------------------
# Shadow homomorphism


def test_shadow_homomorphism():
    rng = random.Random(41)
    for _ in range(100):
        x, y = rand_limited(rng), rand_limited(rng)
        assert (x + y).shadow() == x.shadow() + y.shadow()
        assert (x - y).shadow() == x.shadow() - y.shadow()
        assert (x * y).shadow() == x.shadow() * y.shadow()
        n = rng.randint(0, 4)
        assert (x**n).shadow() == x.shadow() ** n
        assert abs(x).shadow() == abs(x.shadow())
        if x.compare(y) in (Ordering.LESS, Ordering.EQUAL):
            assert x.shadow() <= y.shadow()


def test_shadow_commutes_with_root():
    rng = random.Random(43)
    for _ in range(40):
        t = rand_limited(rng)
        k = rng.randint(1, 9)
        # Perfect-square constant term plus infinitesimal noise.
        x = HyperReal.from_rational(k * k) + (t - HyperReal.from_rational(t.shadow()))
        assert x.root(2).shadow() == k
        assert x.root(2).shadow() ** 2 == x.shadow()


def test_shadow_uniqueness():
    rng = random.Random(47)
    for _ in range(60):
        x = rand_limited(rng)
        s = x.shadow()
        assert halo_equiv(x, HyperReal.from_rational(s))
        for _ in range(3):
            offset = F(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))
            assert not halo_equiv(x, HyperReal.from_rational(s + offset))


# ---------------------------------------------------------------------------
# Equivalence relations


@given(exact_elements, exact_elements, exact_elements)
@settings(max_examples=60)
def test_halo_and_galaxy_are_equivalences(x, y, z):
    for relation in (halo_equiv, galaxy_equiv):
        assert relation(x, x)
        assert relation(x, y) == relation(y, x)
        if relation(x, y) and relation(y, z):
            assert relation(x, z)


def test_galaxy_block_scaling():
    rng = random.Random(53)
    half = HyperReal.from_rational(F(1, 2))
    for _ in range(40):
        K = rand_unlimited(rng, positive=True)
        assert galaxy_compare(K, K + K) is Ordering.LESS
        assert galaxy_compare(K * half, K) is Ordering.LESS


# ---------------------------------------------------------------------------
# Rendering


def test_canonical_text():
    assert str(ZERO) == "0"
    assert str(1 + 2 * EPS + EPS * EPS) == "1 + 2*eps + eps^2"
    assert str(OMEGA) == "eps^-1"
    assert str(EPS.root(2)) == "eps^(1/2)"
    assert str((1 + EPS).inv(4)) == "1 - eps + eps^2 - eps^3 + O(eps^4)"
    assert str(HyperReal((), order_bound=4)) == "O(eps^4)"
    assert str(-(EPS * EPS)) == "-eps^2"
