"""Tests for the scalar groups and their isomorphisms."""

import cmath

import numpy as np
import pytest

from anharm.scalars import (
    NegReal, iso_Phi, iso_Psi, iso_Psi_inv, iso_psi, neg_identity, neg_inv,
    neg_mul, pair_mul,
)


def _samples(rng, n):
    return -np.exp(rng.uniform(-3.0, 3.0, n))


def test_negreal_validation():
    with pytest.raises(ValueError):
        NegReal(1.0)
    with pytest.raises(ValueError):
        NegReal(0.0)


def test_neg_mul_examples():
    assert neg_mul(NegReal(-2.0), NegReal(-3.0)).value == -6.0
    x = NegReal(-0.7)
    assert neg_mul(neg_identity(), x).value == x.value
    assert neg_inv(NegReal(-2.0)).value == -0.5
    assert neg_mul(NegReal(-2.0), neg_inv(NegReal(-2.0))).value == -1.0


def test_group_axioms_random():
    rng = np.random.default_rng(0)
    xs, ys, zs = (_samples(rng, 10_000) for _ in range(3))
    for x, y, z in zip(xs, ys, zs):
        a, b, c = NegReal(x), NegReal(y), NegReal(z)
        lhs = neg_mul(neg_mul(a, b), c).value
        rhs = neg_mul(a, neg_mul(b, c)).value
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
        assert neg_mul(a, b).value == neg_mul(b, a).value
        assert abs(neg_mul(neg_identity(), a).value - x) <= 1e-12 * abs(x)
        assert abs(neg_mul(a, neg_inv(a)).value + 1.0) <= 1e-12


def test_psi_homomorphism_and_injectivity():
    rng = np.random.default_rng(1)
    assert iso_psi(neg_identity()) == 1.0
    for x, y in zip(_samples(rng, 10_000), _samples(rng, 10_000)):
        a, b = NegReal(x), NegReal(y)
        lhs = iso_psi(neg_mul(a, b))
        rhs = iso_psi(a) * iso_psi(b)
        assert lhs > 0
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)
        if iso_psi(a) == iso_psi(b):
            assert x == y


def test_Psi_examples_and_round_trip():
    assert iso_Psi(1.0, -1.0) == (0.0, 0.0)
    a, b = iso_Psi(np.e, -np.e)
    assert abs(a - 1.0) <= 1e-12 and abs(b - 1.0) <= 1e-12
    rng = np.random.default_rng(2)
    for x, y in zip(np.exp(rng.uniform(-3, 3, 10_000)), _samples(rng, 10_000)):
        a, b = iso_Psi(x, y)
        xr, yr = iso_Psi_inv(a, b)
        assert abs(xr - x) <= 1e-12 * abs(x)
        assert abs(yr - y) <= 1e-12 * abs(y)


def test_Psi_homomorphism():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        p = (float(np.exp(rng.uniform(-2, 2))), float(-np.exp(rng.uniform(-2, 2))))
        q = (float(np.exp(rng.uniform(-2, 2))), float(-np.exp(rng.uniform(-2, 2))))
        lhs = np.asarray(iso_Psi(*pair_mul(p, q)))
        rhs = np.asarray(iso_Psi(*p)) + np.asarray(iso_Psi(*q))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))


def test_Psi_domain_error():
    with pytest.raises(ValueError):
        iso_Psi(-1.0, -1.0)
    with pytest.raises(ValueError):
        iso_Psi(1.0, 1.0)
    # NaN is no positive real, as it is no negative one (NegReal refuses it)
    nan = float("nan")
    with pytest.raises(ValueError, match="first component"):
        iso_Psi(nan, -1.0)
    with pytest.raises(ValueError, match="first component"):
        iso_Phi(nan, -1.0)
    with pytest.raises(ValueError, match="first component"):
        pair_mul((nan, -1.0), (1.0, -2.0))
    with pytest.raises(ValueError, match="first component"):
        pair_mul((1.0, -2.0), (nan, -1.0))
    with pytest.raises(ValueError, match="second component"):
        iso_Psi(1.0, nan)


def test_pair_mul_refuses_an_underflowed_product():
    # −y·t rounds to −0.0, which is no negative real
    with pytest.raises(ValueError, match="must be negative"):
        pair_mul((1.0, -1e-200), (1.0, -1e-200))
    assert pair_mul((2.0, -3.0), (0.5, NegReal(-2.0))) == (1.0, -6.0)


def test_Phi_examples_and_homomorphism():
    assert iso_Phi(1.0, -1.0) == 0j
    assert abs(iso_Phi(np.e, -np.e) - (1 + 1j)) <= 1e-12
    rng = np.random.default_rng(4)
    for _ in range(1000):
        p = (float(np.exp(rng.uniform(-2, 2))), float(-np.exp(rng.uniform(-2, 2))))
        q = (float(np.exp(rng.uniform(-2, 2))), float(-np.exp(rng.uniform(-2, 2))))
        lhs = iso_Phi(*pair_mul(p, q))
        rhs = iso_Phi(*p) + iso_Phi(*q)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_Phi_surjects_locally():
    # Φ⁻¹ exists: any complex target is hit by (e^re, −e^im)
    w = 0.3 - 1.2j
    x, y = iso_Psi_inv(w.real, w.imag)
    assert abs(iso_Phi(x, y) - w) <= 1e-12
    assert cmath.isclose(iso_Phi(x, y), w, rel_tol=1e-12, abs_tol=1e-12)
