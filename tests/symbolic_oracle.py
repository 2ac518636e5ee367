"""Symbolic oracles for test functions: exact derivatives of a
TestFunction, term by term, to hold the discrete operators against."""

from anharm.testfuncs import TestFunction


def derivative(f, axis):
    """∂f/∂x_axis, term by term (exact)."""
    terms = []
    for c, a, mu, w in f.terms:
        if a[axis] > 0:
            a1 = a.copy()
            a1[axis] -= 1
            terms.append((c * a[axis], a1, mu, w))
        a2 = a.copy()
        a2[axis] += 1
        terms.append((-c * w[axis], a2, mu, w))
    return TestFunction(f.dim, tuple(terms))
