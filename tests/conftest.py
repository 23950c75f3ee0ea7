"""Shared hypothesis strategies for the property suite, the term-by-term
reference for the orthogonal vectors, a writer into the vector store, and
the invariants of factor-base coefficients."""

from contextlib import contextmanager
from fractions import Fraction

from hypothesis import strategies as st

from tlmarkov.diagrams import RestrictedSequence
from tlmarkov.markov import DiagramVector
from tlmarkov.qpoly import (
    _PSI,
    Polynomial,
    RationalFunction,
    _delta_exponents,
    _psi_product,
    chebyshev,
    poly_divrem,
)


def coefficients(bound: int = 8):
    return st.one_of(
        st.integers(-bound, bound),
        st.fractions(
            min_value=-bound, max_value=bound, max_denominator=4
        ).map(Fraction),
    )


def polynomials(max_degree: int = 6, bound: int = 8):
    return st.lists(coefficients(bound), min_size=0, max_size=max_degree + 1).map(
        lambda cs: Polynomial(tuple(cs))
    )


def nonzero_polynomials(max_degree: int = 6, bound: int = 8):
    return polynomials(max_degree, bound).filter(lambda p: not p.is_zero)


def rational_functions(max_degree: int = 4, bound: int = 6):
    return st.tuples(
        polynomials(max_degree, bound), nonzero_polynomials(max_degree, bound)
    ).map(lambda pair: RationalFunction(*pair))


def integer_polynomials(max_degree: int = 6, bound: int = 8):
    return st.lists(st.integers(-bound, bound), max_size=max_degree + 1).map(
        lambda cs: Polynomial(tuple(cs))
    )


def base_values(max_degree=4):
    """Rational functions with integer numerators whose denominators are
    products of Psi_d, d <= 18: the values a factor-base value can hold."""
    _delta_exponents(8)
    exponents = st.lists(st.integers(0, 2), max_size=len(_PSI))
    return st.tuples(integer_polynomials(max_degree, 6), exponents).map(
        lambda t: RationalFunction(t[0], _psi_product(t[1]))
    )


def nonzero_rational_functions(max_degree: int = 4, bound: int = 6):
    return rational_functions(max_degree, bound).filter(lambda r: not r.is_zero)


@st.composite
def restricted_sequences(draw, min_size: int = 1, max_size: int = 8):
    n = draw(st.integers(min_size, max_size))
    entries = [1]
    for _ in range(n - 1):
        entries.append(draw(st.integers(1, entries[-1] + 1)))
    return RestrictedSequence(tuple(entries))


def term_recursion(s, memo):
    """Reference for e'_s: the defining recursion
    e'_(t,h) = l_h(e'_t) - (Delta_{h-2}/Delta_{h-1}) e'_(t,h-1), carried out
    one vector at a time through DiagramVector and memoized in ``memo``."""
    if s.entries not in memo:
        if s.size == 1:
            vec = DiagramVector.basis_vector(s)
        else:
            tail, head = RestrictedSequence(s.entries[:-1]), s.entries[-1]
            vec = term_recursion(tail, memo).apply_insert(head)
            if head > 1:
                previous = RestrictedSequence(s.entries[:-1] + (head - 1,))
                ratio = RationalFunction(chebyshev(head - 2), chebyshev(head - 1))
                vec = vec - term_recursion(previous, memo).scaled(ratio)
        memo[s.entries] = vec
    return memo[s.entries]


@contextmanager
def stored_vectors(vectors=(), clear=False):
    """Context: write each (sequence, DiagramVector) pair into the vector
    store through its entry point, after emptying the store if clear, and
    restore the store and its wrapped vectors afterwards.  The entry point
    takes only factor-base coefficients, of the sequence's own size."""
    from tlmarkov import ortho

    with ortho._VECTOR_LOCK:
        saved = dict(ortho._VECTOR_CACHE), dict(ortho._WRAPPED)
        if clear:
            ortho._VECTOR_CACHE.clear()
            ortho._WRAPPED.clear()
    try:
        for s, vec in dict(vectors).items():
            ortho._store_vector(s, vec)
        yield
    finally:
        with ortho._VECTOR_LOCK:
            for memo, entries in zip((ortho._VECTOR_CACHE, ortho._WRAPPED), saved):
                memo.clear()
                memo.update(entries)


def assert_one_dict_per_value(entries, dicts):
    """Each dict is its entry's to_json(), and equal entries share one dict."""
    entries, dicts = list(entries), list(dicts)
    assert len(entries) == len(dicts)
    first = {}
    for e, d in zip(entries, dicts):
        assert d == e.to_json()
        assert first.setdefault(e, d) is d


def factored_value(f):
    """The value of a factor-base coefficient, through the gcd-reducing
    RationalFunction constructor: the negative powers of Psi multiplied into
    the numerator."""
    num = Polynomial(f.num) * _psi_product([max(-e, 0) for e in f.exps])
    return RationalFunction(num, _psi_product([max(e, 0) for e in f.exps]))


def assert_normal_form(f):
    """The invariants that make equal factor-base values equal tuples."""
    assert f._fields == ("num", "exps")
    assert all(type(c) is int for c in f.num) and (not f.num or f.num[-1] != 0)
    assert not f.exps or f.exps[-1] != 0
    assert all(type(e) is int for e in f.exps) and len(f.exps) <= len(_PSI)
    if not f.num:
        assert f.exps == ()
    if len(f.num) > 1:
        for psi in _PSI:
            assert not poly_divrem(Polynomial(f.num), Polynomial(psi))[1].is_zero
