"""Orthogonal basis construction, exact verification, and the determinant oracle."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_normal_form,
    assert_one_dict_per_value,
    coefficients,
    factored_value,
    rational_functions,
    stored_vectors,
    term_recursion,
)
from tlmarkov.diagrams import (
    RestrictedSequence,
    contract,
    enumerate_diagrams,
    insert_arc,
    leq,
    matching_to_seq,
    seq_to_matching,
)
from tlmarkov.markov import (
    DiagramVector,
    SquareMatrix,
    _partners,
    _symmetries,
    gram,
    pair_vectors,
)
from tlmarkov.ortho import (
    _MERSENNE_EXPONENTS,
    TRIVALENT_FIXTURES,
    InternalCheckError,
    _det_exponents,
    _downset_pairs,
    _half_pairings,
    _level,
    _mersenne_prime,
    _outside_downset,
    _packed,
    _predicted,
    _quotient_exponents,
    _reduce_powers,
    _symmetry_blocks,
    bareiss_det,
    change_of_basis,
    check_fixture_bases,
    det_closed_form_check,
    det_oracle_check,
    det_product,
    orthogonal_vector,
    predicted_diagonal,
    verify_orthogonality,
)
from tlmarkov.qpoly import (
    _F_ZERO,
    ONE,
    RF_ONE,
    RF_ZERO,
    Polynomial,
    RationalFunction,
    _delta_exponents,
    _from_factored,
    _to_factored,
    chebyshev,
    chebyshev_root,
    eval_at,
    poly_divrem,
)


def seq(text):
    return RestrictedSequence.parse(text)


def rf(num, den=(1,)):
    return RationalFunction(Polynomial(tuple(num)), Polynomial(tuple(den)))


INV_Q = rf((1,), (0, 1))


# ---------------------------------------------------------------------------
# The recursion
# ---------------------------------------------------------------------------


def test_base_vector():
    assert orthogonal_vector(seq("1")).coeffs == {seq("1"): RF_ONE}


def test_first_nontrivial_vector():
    v = orthogonal_vector(seq("2,1"))
    assert dict(v.coeffs) == {seq("2,1"): RF_ONE, seq("1,1"): -INV_Q}


@pytest.mark.parametrize("n", range(1, 7))
def test_level_builder_matches_the_term_recursion(n):
    """Reference oracle: the level builder's vector for every sequence of
    size n equals the defining recursion carried out one vector at a time."""
    memo = {}
    for s in enumerate_diagrams(n):
        assert orthogonal_vector(s) == term_recursion(s, memo), str(s)


@pytest.mark.parametrize("k", range(1, 7))
def test_one_tail_walked_alone_is_its_slice_of_the_level_walk(k):
    """Walking one tail alone, with a fresh memo and the builder's push,
    yields that tail's columns of the whole level's walk, entries in the
    same order, and those are the stored vectors: a column depends on its
    own tail only, so a level can be built one tail at a time."""
    from tlmarkov.diagrams import _heads
    from tlmarkov.ortho import _UNIT, _lift, _stored, _walk

    below, level = _level(k - 1).basis, _level(k)
    with stored_vectors(clear=True):
        tails = [_stored(t) if t.size else _UNIT for t in below]
        whole = [list(c.items()) for c in _walk({}, zip(below, tails), _lift(level))]
        stored = [list(zip(v.indices, v.values)) for v in map(_stored, level.basis)]
    assert whole == stored
    start = 0
    for t, tail in zip(below, tails):
        alone = [list(c.items()) for c in _walk({}, [(t, tail)], _lift(level))]
        assert len(alone) == len(_heads(t)), str(t)
        assert alone == whole[start : start + len(alone)], str(t)
        start += len(alone)
    assert start == len(whole)


def test_two_step_vector():
    v = orthogonal_vector(seq("2,2,1"))
    assert dict(v.coeffs) == {
        seq("2,2,1"): RF_ONE,
        seq("2,1,1"): -INV_Q,
        seq("1,2,1"): -INV_Q,
        seq("1,1,1"): rf((1,), (0, 0, 1)),
    }


def test_rejects_empty_sequence():
    with pytest.raises(ValueError):
        orthogonal_vector(RestrictedSequence(()))


def test_change_of_basis_small():
    assert change_of_basis(1).P.entries == ((RF_ONE,),)
    assert change_of_basis(2).P.entries == (
        (RF_ONE, RF_ZERO),
        (-INV_Q, RF_ONE),
    )


def test_change_of_basis_n3_matches_published_table():
    expected = (
        (RF_ONE, RF_ZERO, RF_ZERO, RF_ZERO, RF_ZERO),
        (-INV_Q, RF_ONE, RF_ZERO, RF_ZERO, RF_ZERO),
        (-INV_Q, RF_ZERO, RF_ONE, RF_ZERO, RF_ZERO),
        (rf((1,), (0, 0, 1)), -INV_Q, -INV_Q, RF_ONE, RF_ZERO),
        (
            rf((0, -1), (-1, 0, 1)),
            rf((1,), (-1, 0, 1)),
            rf((1,), (-1, 0, 1)),
            rf((0, -1), (-1, 0, 1)),
            RF_ONE,
        ),
    )
    basis = change_of_basis(3)
    assert basis.P.entries == expected
    assert [str(s) for s in basis.basis] == ["1,1,1", "2,1,1", "1,2,1", "2,2,1", "3,2,1"]


def test_predicted_diagonal_examples():
    assert predicted_diagonal(seq("1,1,1")) == rf((0, 0, 0, 1))
    assert predicted_diagonal(seq("2,2,1")) == rf((1, 0, -2, 0, 1), (0, 1))
    assert predicted_diagonal(seq("3,2,1")) == rf((0, -2, 0, 1))


def chebyshev_product_diagonal(s):
    """Reference: prod_i Delta_{a_i}/Delta_{a_i-1} as chebyshev powers over a
    gcd-reduced quotient, the formula before the factor base."""
    exponents = {}
    for a in s.entries:
        exponents[a] = exponents.get(a, 0) + 1
        exponents[a - 1] = exponents.get(a - 1, 0) - 1
    num, den = ONE, ONE
    for k, e in sorted(exponents.items()):
        if k < 1 or e == 0:
            continue
        factor = chebyshev(k) ** abs(e)
        if e > 0:
            num = num * factor
        else:
            den = den * factor
    return RationalFunction(num, den)


@pytest.mark.parametrize("n", range(1, 9))
def test_predicted_diagonal_equals_the_chebyshev_product(n):
    """The public diagonal, and up to n = 7 the factor-base value the
    verifier compares with, in normal form, through the gcd-reducing
    constructor."""
    for s in enumerate_diagrams(n):
        want = chebyshev_product_diagonal(s)
        assert predicted_diagonal(s) == want, str(s)
        if n <= 7:
            assert_normal_form(_predicted(s))
            assert factored_value(_predicted(s)) == want, str(s)


def reference_quotient_exponents(entries):
    """Sum over entries a of the exponents of Delta_a minus those of Delta_{a-1}."""
    out = [0] * len(_delta_exponents(max(entries, default=0)))
    for a in entries:
        for sign, k in ((1, a), (-1, a - 1)):
            for i, e in enumerate(_delta_exponents(k)):
                out[i] += sign * e
    return out


@given(st.lists(st.integers(1, 8), max_size=8))
@settings(max_examples=200)
def test_quotient_exponents_of_any_entries(entries):
    """Entry lists that need not be restricted sequences, with gaps and
    without the entry 1."""
    assert _quotient_exponents(entries) == reference_quotient_exponents(entries)


def test_quotient_exponents_examples():
    _delta_exponents(3)
    assert _quotient_exponents((3,)) == [1, -1, -1, 1]  # Delta_3/Delta_2
    assert _quotient_exponents((1, 3)) == [2, -1, -1, 1]
    assert _quotient_exponents(()) == []


def test_verify_diagonals_small():
    assert [str(d) for d in change_of_basis(2).diagonal] == ["q^2", "q^2 - 1"]
    assert [str(d) for d in change_of_basis(3).diagonal] == [
        "q^3",
        "q^3 - q",
        "q^3 - q",
        "(q^4 - 2*q^2 + 1)/q",
        "q^3 - 2*q",
    ]


# ---------------------------------------------------------------------------
# Verification: engine and independent dense route
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 5))
def test_verify_orthogonality_passes(n):
    report = verify_orthogonality(n)
    assert report.passed, report.to_text()
    names = [c.name for c in report.checks]
    assert names == [
        "unitriangular",
        "downset-support",
        "half-pairing",
        "orthogonality",
        "diagonal-formula",
    ]


@pytest.mark.parametrize("n", range(1, 5))
def test_dense_primed_gram_is_diagonal(n):
    """Independent route: assemble the primed Gram matrix entry by entry with
    plain rational-function arithmetic and compare with the prediction."""
    basis = enumerate_diagrams(n)
    matrix = gram(n)
    vectors = [orthogonal_vector(s) for s in basis]
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            value = pair_vectors(vectors[i], vectors[j], matrix)
            expected = predicted_diagonal(a) if i == j else RF_ZERO
            assert value == expected, (str(a), str(b), str(value))


@pytest.mark.parametrize("n", range(1, 5))
def test_support_fills_the_downset(n):
    """At small sizes the support is not merely contained in the downset: every
    element of the downset carries a nonzero coefficient."""
    for s in enumerate_diagrams(n):
        support = set(orthogonal_vector(s).coeffs)
        downset = {t for t in enumerate_diagrams(n) if leq(t, s)}
        assert support == downset


# the term counts of the stored vectors, whose support fills every downset
DOWNSET_PAIRS = {7: 40_898, 8: 379_236, 9: 3_711_916}


@pytest.mark.parametrize("n", range(1, 10))
def test_downset_size_counts_the_downset(n):
    """The pairs a <= b of size n, the sum of the downset sizes: by leq on
    every pair up to size 6, and the known totals at sizes 7 to 9."""
    if n in DOWNSET_PAIRS:
        assert _downset_pairs(n) == DOWNSET_PAIRS[n]
    else:
        basis = enumerate_diagrams(n)
        assert _downset_pairs(n) == sum(1 for a in basis for b in basis if leq(a, b))


@pytest.mark.parametrize("n", range(0, 7))
def test_packed_downset_test_agrees_with_leq(n):
    """The guard-bit test gives leq on every pair, one pair at a time and
    over the whole basis at once."""
    basis = enumerate_diagrams(n)
    packed, guards = _packed(basis)
    positions = range(len(basis))
    for j, b in enumerate(basis):
        assert _outside_downset(j, positions, packed, guards) == [
            i for i, a in enumerate(basis) if not leq(a, b)
        ], str(b)
        for i, a in enumerate(basis):
            assert _outside_downset(j, [i], packed, guards) == ([] if leq(a, b) else [i])


@given(st.data())
@settings(max_examples=25)
def test_embedding_scales_the_form_by_q(data):
    n = data.draw(st.integers(1, 3))
    basis = enumerate_diagrams(n)
    small, large = gram(n), gram(n + 1)

    def vector():
        terms = data.draw(
            st.lists(
                st.tuples(st.sampled_from(basis), rational_functions(max_degree=2)),
                max_size=3,
            )
        )
        return DiagramVector.from_terms(n, terms)

    v, w = vector(), vector()
    lifted = pair_vectors(v.apply_insert(1), w.apply_insert(1), large)
    assert lifted == rf((0, 1)) * pair_vectors(v, w, small)


def _with_corrupted_vector(sequence, corrupted):
    """Context: swap a wrong vector into the emptied store, restore afterwards."""
    return stored_vectors({sequence: corrupted}, clear=True)


def test_verify_detects_a_corrupted_vector():
    """The checker must fail loudly when a vector is wrong (sign flipped)."""
    s = seq("2,1")
    wrong = DiagramVector.from_terms(
        2, [(seq("2,1"), RF_ONE), (seq("1,1"), INV_Q)]  # +1/q instead of -1/q
    )
    with _with_corrupted_vector(s, wrong):
        result = verify_orthogonality(2)
    assert not result.passed
    failed = {c.name for c in result.checks if not c.passed}
    assert "half-pairing" in failed
    details = next(c.details for c in result.checks if c.name == "half-pairing")
    assert "expected 0" in details or "!=" in details


@pytest.mark.parametrize("n", range(1, 6))
def test_half_pairings_match_the_direct_pairing(n):
    """Reference oracle: every entry of the recursive half-pairing table,
    zero or not, equals <e_b, e'_a> summed over the support of e'_a."""
    basis = enumerate_diagrams(n)
    matrix = gram(n)
    columns = _half_pairings(n)
    assert len(columns) == len(basis)
    for a_idx, a in enumerate(basis):
        vector = orthogonal_vector(a)
        for b_idx, b in enumerate(basis):
            direct = pair_vectors(DiagramVector.basis_vector(b), vector, matrix)
            assert _from_factored(columns[a_idx].get(b_idx, _F_ZERO)) == direct, (str(b), str(a))


def test_verify_detects_a_corrupted_interior_vector():
    """A wrong coefficient in a vector that is neither first nor last of its
    head class (same tail, heads 1..a_{n-1}+1) fails the half-pairing check,
    at its own size and one size up; the recursion link is checked for every
    vector, none is sampled.  The builder builds the next head from the
    stored vector, and check (ii) checks the next head against it, so every
    failure names e'_s alone: nothing cascades to the next head."""
    s = seq("2,2,2,2,1")  # tail 2,2,2,1 takes heads 1..3
    vector = orthogonal_vector(s)
    key = seq("1,2,2,2,1")
    assert key != s and key in vector.coeffs
    wrong = DiagramVector(
        5, {t: -c if t == key else c for t, c in vector.coeffs.items()}
    )
    for n in (5, 6):
        with _with_corrupted_vector(s, wrong):
            result = verify_orthogonality(n)
        check = next(c for c in result.checks if c.name == "half-pairing")
        assert not check.passed, n
        for line in check.details.split("; "):
            assert line.startswith(f"e'_{s} has ") and " != " in line, (n, line)
    assert verify_orthogonality(5).passed


def test_verify_detects_a_wrong_pairing_exponent(monkeypatch):
    """One off-diagonal Gram exponent off by one fails the adjunction link."""
    from tlmarkov import ortho as ortho_module

    true_exponents = ortho_module.gram_exponents

    def tampered(k):
        table = true_exponents(k)
        if k != 4:
            return table
        rows = [list(row) for row in table]
        rows[3][9] += 1
        return tuple(tuple(row) for row in rows)

    monkeypatch.setattr(ortho_module, "gram_exponents", tampered)
    result = verify_orthogonality(4)
    check = next(c for c in result.checks if c.name == "half-pairing")
    assert not check.passed
    assert "!=" in check.details


def test_verify_reports_the_literal_entry_of_a_surviving_term(monkeypatch):
    """A nonzero half-pairing below the triangle fails the triangle and makes
    the orthogonality check compute and report the entry it produces."""
    from tlmarkov import ortho as ortho_module

    true_half_pairings = ortho_module._half_pairings

    def tampered(n):
        columns = true_half_pairings(n)
        columns[1][0] = _to_factored(INV_Q)  # <e_1,1, e'_2,1> = 1/q, below the triangle
        return columns

    monkeypatch.setattr(ortho_module, "_half_pairings", tampered)
    result = verify_orthogonality(2)
    by_name = {c.name: c for c in result.checks}
    assert "<e_1,1, e'_2,1> = 1/q (expected 0)" in by_name["half-pairing"].details
    assert by_name["orthogonality"].details == (
        "<e'_1,1, e'_2,1> = 1/q (expected 0); <e'_2,1, e'_1,1> = 1/q (expected 0)"
    )


def test_verify_reports_the_literal_entry_of_a_term_outside_its_downset():
    """A stored term outside its downset, above it in the head-major order,
    with the half-pairing triangle intact, makes the orthogonality check
    compute and report every literal entry the full expansion gives: the
    dense pairing of the stored vector with the true later ones.  The
    diagonal check computes its literal entry the same way."""
    n = 4
    basis = enumerate_diagrams(n)
    s, t = seq("2,1,1,1"), seq("2,2,1,1")  # e'_2,1,1,1 is last of its heads
    assert not leq(t, s) and t.head_first > s.head_first
    true = {a: orthogonal_vector(a) for a in basis}
    wrong = DiagramVector(n, {**true[s].coeffs, t: INV_Q})
    stored = {**true, s: wrong}
    matrix = gram(n)
    expected = []
    for i, x in enumerate(basis):
        for y in basis[i + 1 :]:
            lo, hi = (x, y) if x.head_first < y.head_first else (y, x)
            value = pair_vectors(stored[lo], true[hi], matrix)
            if not value.is_zero:
                expected += [
                    f"<e'_{x}, e'_{y}> = {value} (expected 0)",
                    f"<e'_{y}, e'_{x}> = {value} (expected 0)",
                ]
    assert expected
    checks = _checks_with(s, wrong, n)
    assert checks["downset-support"].details == f"e'_{s} contains {t}"
    assert "(expected 0)" not in checks["half-pairing"].details
    assert not checks["orthogonality"].passed
    assert checks["orthogonality"].details == "; ".join(expected[:5])
    # the stored term meets a nonzero row of its own column too
    diagonal = pair_vectors(wrong, true[s], matrix)
    assert diagonal != predicted_diagonal(s)
    assert checks["diagonal-formula"].details == (
        f"<e'_{s}, e'_{s}> = {diagonal} != {predicted_diagonal(s)}"
    )


def _literal_entries(basis, rows, half):
    """Reference: the orthogonality and diagonal details of the full
    expansion, <e'_lo, e'_hi> = sum_t P[lo][t] H[t][hi] over every pair, with
    lo the lex-smaller index."""
    ortho_bad, diag_bad = [], []
    for i, x in enumerate(basis):
        for j in range(i, len(basis)):
            y = basis[j]
            lo, hi = (i, j) if x.head_first <= y.head_first else (j, i)
            value = RF_ZERO
            for t, c in rows[lo].coeffs.items():
                value = value + c * factored_value(half[hi].get(basis.index(t), _F_ZERO))
            if i == j:
                if value != predicted_diagonal(x):
                    diag_bad.append(f"<e'_{x}, e'_{x}> = {value} != {predicted_diagonal(x)}")
            elif not value.is_zero:
                ortho_bad.append(f"<e'_{x}, e'_{y}> = {value} (expected 0)")
                ortho_bad.append(f"<e'_{y}, e'_{x}> = {value} (expected 0)")
    return "; ".join(ortho_bad[:5]), "; ".join(diag_bad[:5])


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_orthogonality_and_diagonal_match_the_full_expansion(data):
    """With stored vectors and half-pairings corrupted at random, the two
    checks report what the expansion over every pair gives."""
    from tlmarkov import ortho as ortho_module

    n = data.draw(st.integers(2, 4))
    basis = enumerate_diagrams(n)
    pick = st.sampled_from(range(len(basis)))
    value = st.sampled_from([INV_Q, rf((-1,)), rf((2, 1)), rf((0, 1), (-1, 0, 1))])
    rows = [orthogonal_vector(s) for s in basis]
    for _ in range(data.draw(st.integers(0, 2))):
        i, t = data.draw(pick), data.draw(pick)
        rows[i] = DiagramVector(n, {**rows[i].coeffs, basis[t]: data.draw(value)})
    half = _half_pairings(n)
    for _ in range(data.draw(st.integers(0, 2))):
        half[data.draw(pick)][data.draw(pick)] = _to_factored(data.draw(value))
    want_ortho, want_diag = _literal_entries(basis, rows, half)
    true_half_pairings = ortho_module._half_pairings
    ortho_module._half_pairings = lambda k: half if k == n else true_half_pairings(k)
    try:
        # every vector stays stored, so none is rebuilt from a corrupted one
        with stored_vectors(zip(basis, rows)):
            checks = {c.name: c for c in verify_orthogonality(n).checks}
    finally:
        ortho_module._half_pairings = true_half_pairings
    assert checks["orthogonality"].passed == (not want_ortho)
    if want_ortho:
        assert checks["orthogonality"].details == want_ortho
    assert checks["diagonal-formula"].passed == (not want_diag)
    if want_diag:
        assert checks["diagonal-formula"].details == want_diag


def test_three_kinds_of_break_at_once_match_the_full_expansion(monkeypatch):
    """At n = 5, a term outside its downset in one row, P[a][a] = 2 in a
    second row and a half-pairing below the triangle in a third column: the
    orthogonality and diagonal checks report what the expansion over every
    pair gives."""
    from tlmarkov import ortho as ortho_module

    n = 5
    basis = enumerate_diagrams(n)
    rows = [orthogonal_vector(s) for s in basis]
    outside, term = basis.index(seq("2,2,1,1,1")), seq("2,2,2,1,1")
    assert not leq(term, basis[outside]) and term.head_first > basis[outside].head_first
    rows[outside] = DiagramVector(n, {**rows[outside].coeffs, term: INV_Q})
    scaled = basis.index(seq("3,2,2,1,1"))
    rows[scaled] = DiagramVector(n, {**rows[scaled].coeffs, basis[scaled]: rf((2,))})
    below, column = basis.index(seq("1,1,1,1,1")), basis.index(seq("4,3,2,1,1"))
    half = _half_pairings(n)
    assert below not in half[column]
    half[column][below] = _to_factored(INV_Q)
    want_ortho, want_diag = _literal_entries(basis, rows, half)
    assert want_ortho and want_diag
    true_half_pairings = ortho_module._half_pairings
    monkeypatch.setattr(
        ortho_module, "_half_pairings", lambda k: half if k == n else true_half_pairings(k)
    )
    with stored_vectors(zip(basis, rows)):
        checks = {c.name: c for c in verify_orthogonality(n).checks}
    assert checks["unitriangular"].details == "bad rows: ['3,2,2,1,1']"
    assert checks["downset-support"].details == "e'_2,2,1,1,1 contains 2,2,2,1,1"
    assert "<e_1,1,1,1,1, e'_4,3,2,1,1> = 1/q (expected 0)" in checks["half-pairing"].details
    assert checks["orthogonality"].details == want_ortho
    assert checks["diagonal-formula"].details == want_diag


def _checks_with(sequence, corrupted, n):
    with _with_corrupted_vector(sequence, corrupted):
        report = verify_orthogonality(n)
    return {c.name: c for c in report.checks}


def test_verify_reports_a_scaled_base_vector():
    """e'_1 = 2 e_1 fails the unit diagonal, the base case of check (ii) and
    the diagonal formula."""
    checks = _checks_with(seq("1"), DiagramVector.from_terms(1, [(seq("1"), rf((2,)))]), 1)
    assert not checks["unitriangular"].passed
    assert checks["unitriangular"].details == "bad rows: ['1']"
    assert not checks["half-pairing"].passed
    assert checks["half-pairing"].details == "e'_1 = (2)*e[1] != e_1"
    assert not checks["diagonal-formula"].passed
    assert checks["diagonal-formula"].details == "<e'_1, e'_1> = 2*q != q"


def test_verify_reports_support_outside_the_downset():
    """e'_1,1 = e_1,1 + e_2,1 leaves its downset, and the orthogonality check
    reaches a literal entry through the support violation."""
    wrong = DiagramVector.from_terms(2, [(seq("1,1"), RF_ONE), (seq("2,1"), RF_ONE)])
    checks = _checks_with(seq("1,1"), wrong, 2)
    assert not checks["downset-support"].passed
    assert checks["downset-support"].details == "e'_1,1 contains 2,1"
    assert not checks["orthogonality"].passed
    assert checks["orthogonality"].details == (
        "<e'_1,1, e'_2,1> = q^2 - 1 (expected 0); <e'_2,1, e'_1,1> = q^2 - 1 (expected 0)"
    )


def test_verify_reports_a_missing_recursion_term():
    """e'_2,1 = e_2,1 stays inside its downset but breaks its recursion."""
    checks = _checks_with(seq("2,1"), DiagramVector.basis_vector(seq("2,1")), 2)
    assert checks["downset-support"].passed
    assert checks["downset-support"].details == (
        "2 coefficients inside downsets (of 3 downset slots)"
    )
    assert not checks["half-pairing"].passed
    assert checks["half-pairing"].details == (
        "e'_2,1 has 0 != -1/q on e_1,1 by l_2(e'_1) - (Delta_0/Delta_1) e'_1,1"
    )


def test_the_store_rejects_a_value_outside_the_factor_base_and_a_mis_sized_vector():
    """The store's entry point admits factor-base coefficients of the vector's
    own size only: a coefficient 1/(q^2 + 1), whose denominator is no product
    of Delta_j, a coefficient 1/(2q), whose scalar 2 is no product of Psi_d,
    and a vector of size 3 written as e'_2,1 raise ValueError, and the store
    keeps the entry it held."""
    from tlmarkov.ortho import _store_vector, _stored

    s = seq("2,1")
    saved = orthogonal_vector(s)
    entry = _stored(s)
    outside = DiagramVector(2, {**saved.coeffs, seq("1,1"): rf((1,), (1, 0, 1))})
    with pytest.raises(ValueError, match=r"1/\(q\^2 \+ 1\) of e_1,1 in e'_2,1 .* outside"):
        _store_vector(s, outside)
    scalar = DiagramVector(2, {**saved.coeffs, seq("1,1"): rf((Fraction(1, 2),), (0, 1))})
    with pytest.raises(ValueError, match=r"\(1/2\)/q of e_1,1 in e'_2,1 .* outside the Chebyshev"):
        _store_vector(s, scalar)
    assert _stored(s) is entry
    with pytest.raises(ValueError, match="size 3 cannot be stored as e'_2,1"):
        _store_vector(s, DiagramVector.basis_vector(seq("3,2,1")))
    assert _stored(s) is entry
    assert orthogonal_vector(s) is saved
    assert verify_orthogonality(2).passed


@pytest.mark.parametrize("n", range(2, 7))
def test_factored_recursion_matches_rational_function_arithmetic(n, monkeypatch):
    """Cross-check at the conversion edge: every distinct (h, lifted, previous)
    triple that the builder, check (ii) and the half-pairing recursion combine,
    and every product they form, has over the factor base the value that
    RationalFunction arithmetic gives, in normal form."""
    import sys

    from tlmarkov import ortho as ortho_module
    from tlmarkov.qpoly import _delta_exponents, _Factored, _from_exponents

    true_combined, true_times = ortho_module._combined, _Factored.times
    triples: dict[str, set] = {}
    products = set()

    def combined(memo, h, lifted, previous):
        # a call from the shared level walk counts for the caller walking it
        frame = sys._getframe(1)
        if frame.f_code.co_name == "_walk":
            frame = frame.f_back
        caller = frame.f_code.co_name
        triples.setdefault(caller, set()).add((h, lifted, previous))
        return true_combined(memo, h, lifted, previous)

    def times(a, b):
        products.add((a, b))
        return true_times(a, b)

    monkeypatch.setattr(ortho_module, "_combined", combined)
    monkeypatch.setattr(_Factored, "times", times)
    try:
        with stored_vectors(clear=True):
            assert verify_orthogonality(n).passed
    finally:
        monkeypatch.undo()
    assert set(triples) == {"_build_level", "_recursion_mismatches", "_half_pairings"}
    for caller, found in triples.items():
        for h, lifted, previous in found:
            ratio = RationalFunction(chebyshev(h - 2), chebyshev(h - 1))
            want = factored_value(lifted) - ratio * factored_value(previous)
            got = true_combined({}, h, lifted, previous)
            assert_normal_form(got)
            assert factored_value(got) == want, caller
            assert _from_factored(got) == want, caller
    q = _from_exponents(_delta_exponents(1))
    assert any(b == q for _, b in products)  # the half-pairings' q^c
    for a, b in products:
        got = true_times(a, b)
        assert_normal_form(got)
        assert factored_value(got) == factored_value(a) * factored_value(b)


def test_a_passing_verification_converts_nothing():
    """The verifier compares over the factor base only: from empty memos, a
    passing verification at n = 1..6 leaves no RationalFunction conversion
    behind."""
    from tlmarkov import qpoly
    from tlmarkov.ortho import _clear_memos

    _clear_memos()
    with stored_vectors(clear=True):
        for n in range(1, 7):
            assert verify_orthogonality(n).passed
            assert not qpoly._from_factored.cache_info().currsize, n


def test_memos_clear_and_rebuild_the_same_vectors():
    from tlmarkov.ortho import _clear_memos, _memo_sizes

    before = {s: orthogonal_vector(s) for s in enumerate_diagrams(4)}
    assert verify_orthogonality(4).passed
    sizes = _memo_sizes()
    assert set(sizes) == {
        "vectors",
        "wrapped",
        "levels",
        "from_factored",
        "psi_products",
        "ratios",
    }
    assert all(sizes.values())
    _clear_memos()
    assert _memo_sizes() == dict.fromkeys(sizes, 0)
    after = {s: orthogonal_vector(s) for s in enumerate_diagrams(4)}
    assert after == before
    assert all(after[s] is not before[s] for s in after)
    assert verify_orthogonality(4).passed


def test_clear_memos_empties_the_store_and_its_edge_memos():
    from tlmarkov import ortho as ortho_module
    from tlmarkov import qpoly

    change_of_basis(4)
    orthogonal_vector(seq("2,1,1,1"))
    assert ortho_module._VECTOR_CACHE and ortho_module._WRAPPED
    assert qpoly._psi_power.cache_info().currsize
    ortho_module._clear_memos()
    assert not ortho_module._VECTOR_CACHE
    assert not ortho_module._WRAPPED
    assert not qpoly._psi_power.cache_info().currsize


def test_a_written_vector_reads_back_through_the_public_api():
    """A vector written through the store's entry point, with a coefficient
    over Delta_3 that no vector has, reads back equal and in its term order;
    the store is restored afterwards."""
    s = seq("2,1,1")
    true = orthogonal_vector(s)
    written = DiagramVector(
        3,
        {
            **true.coeffs,
            seq("1,1,1"): rf((3, 1), (0, -2, 0, 1)),  # (q + 3)/Delta_3
        },
    )
    with stored_vectors({s: written}):
        got = orthogonal_vector(s)
        assert got == written
        assert list(got.coeffs) == list(written.coeffs)
        assert orthogonal_vector(s) is got
    assert orthogonal_vector(s) == true


def test_a_fresh_process_writes_a_coefficient_over_delta_of_the_vector_size():
    """The entry point grows the factor base through Delta_k for a vector of
    size k, so a process that has built nothing yet can write a coefficient
    over Delta_3 and read it back."""
    code = (
        "from tlmarkov import ortho\n"
        "from tlmarkov.diagrams import RestrictedSequence\n"
        "from tlmarkov.markov import DiagramVector\n"
        "from tlmarkov.qpoly import Polynomial, RationalFunction\n"
        "s = RestrictedSequence((1, 1, 1))\n"
        "value = RationalFunction(Polynomial((3, 1)), Polynomial((0, -2, 0, 1)))\n"
        "ortho._store_vector(s, DiagramVector(3, {s: value}))\n"
        "assert ortho.orthogonal_vector(s).coeffs == {s: value}\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("n", range(1, 6))
def test_change_of_basis_matches_the_term_recursion(n):
    basis = enumerate_diagrams(n)
    memo = {}
    rows = tuple(
        tuple(term_recursion(a, memo).coeffs.get(t, RF_ZERO) for t in basis) for a in basis
    )
    assert change_of_basis(n).P.entries == rows


def test_building_and_stacking_the_vectors_make_no_diagram_vector(monkeypatch):
    """The builder, change_of_basis and a passing verify_orthogonality read
    and write the store only; a DiagramVector is made only when
    orthogonal_vector is asked."""
    made = []
    true_post_init = DiagramVector.__post_init__

    def post_init(self):
        made.append(self.size)
        true_post_init(self)

    monkeypatch.setattr(DiagramVector, "__post_init__", post_init)
    with stored_vectors(clear=True):
        change_of_basis(5)
        assert made == []
        assert verify_orthogonality(4).passed
        assert made == []
        orthogonal_vector(seq("2,1,1"))
        assert made == [3]


def test_a_cold_build_keeps_one_object_per_value_in_each_level():
    """The builder interns its coefficients: within one size of the store,
    equal values are one object."""
    from tlmarkov.ortho import _stored

    with stored_vectors(clear=True):
        _stored(seq("1,1,1,1,1,1,1"))
        for k in range(1, 8):
            objects = {id(v): v for s in _level(k).basis for v in _stored(s).values}
            assert len(objects) == len(set(objects.values())), k


@pytest.mark.parametrize("k", range(9))
def test_level_tables_match_the_sequence_route(k):
    """Reference oracle: every l_h and tau_h image in the tables of size k is
    the diagram the restricted-sequence route names."""
    level = _level(k)
    basis = enumerate_diagrams(k)
    assert level.basis == basis
    assert level.partners == [_partners(seq_to_matching(s)) for s in basis]
    index = {s: i for i, s in enumerate(basis)}
    below = enumerate_diagrams(k - 1) if k else ()
    below_index = {s: i for i, s in enumerate(below)}
    assert len(level.lift) == k
    for h, images in enumerate(level.lift, start=1):
        assert images == tuple(
            index[matching_to_seq(insert_arc(seq_to_matching(u), h))] for u in below
        )
    assert len(level.contract) == len(basis)
    for b, row in zip(basis, level.contract):
        want = []
        for h in range(1, k + 1):
            image, loops = contract(seq_to_matching(b), h)
            want.append((below_index[matching_to_seq(image)], loops))
        assert row == tuple(want), str(b)
    # tau_h l_h closes the one loop it inserted
    for h, images in enumerate(level.lift, start=1):
        for u, image in enumerate(images):
            assert level.contract[image][h - 1] == (u, 1)


def test_verification_makes_no_matching(monkeypatch):
    """From cleared memos, the builder and the verifier read the level tables
    on partner tuples only: no Matching is made."""
    from tlmarkov.diagrams import Matching
    from tlmarkov.ortho import _clear_memos

    made = []
    true_post_init = Matching.__post_init__

    def post_init(self):
        made.append(self)
        true_post_init(self)

    _clear_memos()
    monkeypatch.setattr(Matching, "__post_init__", post_init)
    with stored_vectors(clear=True):
        assert verify_orthogonality(6).passed
    assert _level.cache_info().currsize == 7
    assert made == []


def test_values_of_each_size_carry_no_psi_beyond_its_base():
    """The normal form divides every Psi_d of the base out of a numerator,
    so a value's tuple could change when the base grows past it.  Built with
    the base grown through Delta_20, no vector coefficient or half-pairing of
    size k has a Psi_d outside the base of Delta_1..Delta_k, so the values a
    process makes do not depend on how far it has grown the base; each is in
    normal form, an integer numerator over Psi powers."""
    from tlmarkov.ortho import _half_pairings, _stored

    _delta_exponents(20)
    with stored_vectors(clear=True):
        for k in range(1, 7):
            width = len(_delta_exponents(k))
            values = {v for s in _level(k).basis for v in _stored(s).values}
            values.update(v for column in _half_pairings(k) for v in column.values())
            assert all(len(v.exps) <= width for v in values), k
            for v in values:
                assert_normal_form(v)


def test_each_size_builds_its_tables_once():
    """Building the vectors reads only the lift tables; the verifier adds the
    contraction tables, and nothing rebuilds a size."""
    with stored_vectors(clear=True):
        _level.cache_clear()
        change_of_basis(4)
        assert _level.cache_info().misses == 5
        assert not any("contract" in vars(_level(k)) for k in range(5))
        assert verify_orthogonality(4).passed
        assert _level.cache_info().misses == 5
        assert all("contract" in vars(_level(k)) for k in range(1, 5))


def test_change_of_basis_raises_on_broken_unitriangularity():
    import pytest as _pytest

    from tlmarkov.ortho import InternalCheckError

    s = seq("2,1")
    wrong = DiagramVector.from_terms(
        2, [(seq("2,1"), rf((2,))), (seq("1,1"), -INV_Q)]  # diagonal 2, not 1
    )
    with _with_corrupted_vector(s, wrong):
        with _pytest.raises(InternalCheckError):
            change_of_basis(2)


# ---------------------------------------------------------------------------
# Determinants
# ---------------------------------------------------------------------------


def test_bareiss_examples():
    assert bareiss_det(gram(1)) == Polynomial((0, 1))
    assert bareiss_det(gram(2)) == Polynomial((0, 0, -1, 0, 1))


def test_bareiss_n3_equals_product_of_diagonals():
    product = RF_ONE
    for s in enumerate_diagrams(3):
        product = product * predicted_diagonal(s)
    assert product.is_polynomial
    assert bareiss_det(gram(3)) == product.num


def test_bareiss_raw_rows_and_generic_path():
    q = Polynomial((0, 1))
    one = Polynomial((1,))
    half = Polynomial((Fraction(1, 2),))
    # Fraction coefficients: the row is cleared to integers, the result unscaled
    assert bareiss_det([[half, one], [one, q]]) == half * q - one
    # integer coefficients, singular matrix
    assert bareiss_det([[q, q], [q, q]]) == Polynomial(())
    # pivoting
    zero = Polynomial(())
    assert bareiss_det([[zero, one], [one, zero]]) == Polynomial((-1,))
    # the empty matrix, and a zero row
    assert bareiss_det([]) == ONE
    assert bareiss_det([[q, one], [zero, zero]]) == Polynomial(())


def cofactor_determinant(rows):
    size = len(rows)
    if size == 1:
        return rows[0][0]
    total = Polynomial(())
    for j, head in enumerate(rows[0]):
        if head.is_zero:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = head * cofactor_determinant(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def wide_coefficients():
    # up to 150 bits: a single such entry needs the prime 2^521 - 1
    return st.one_of(coefficients(3), st.integers(-(2**150), 2**150))


@given(st.data())
@settings(max_examples=40)
def test_bareiss_matches_cofactor_expansion(data):
    size = data.draw(st.integers(1, 4))
    rows = [
        [
            Polynomial(
                tuple(
                    data.draw(
                        st.lists(wide_coefficients(), min_size=0, max_size=3)
                    )
                )
            )
            for _ in range(size)
        ]
        for _ in range(size)
    ]
    assert bareiss_det(rows) == cofactor_determinant(rows)


def reduction_step(rows):
    reduced = _reduce_powers([[list(p.coeffs) for p in row] for row in rows])
    return None if reduced is None else reduced[2]


def has_zero_line(rows):
    return any(all(e.is_zero for e in line) for line in [*rows, *zip(*rows)])


def spread(shift, ys):
    """The coefficients of q^shift * Y(q^2) from those of Y."""
    cs = [0] * (shift + 2 * len(ys))
    cs[shift::2] = ys
    return cs


@given(st.data())
@settings(max_examples=60)
def test_bareiss_on_the_q_squared_path(data):
    # G = diag(q^rho) * B(q^2) * diag(q^sigma): the reduction takes step 2
    size = data.draw(st.integers(1, 4))
    rho = data.draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
    sigma = data.draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
    ys = [
        [data.draw(st.lists(wide_coefficients(), max_size=3)) for _ in range(size)]
        for _ in range(size)
    ]
    zero_row = data.draw(st.none() | st.integers(0, size - 1))
    if zero_row is not None:
        ys[zero_row] = [[] for _ in range(size)]
    rows = [
        [Polynomial(tuple(spread(r + s, y))) for y, s in zip(row, sigma)]
        for row, r in zip(ys, rho)
    ]
    assert reduction_step(rows) == (None if has_zero_line(rows) else 2)
    assert bareiss_det(rows) == cofactor_determinant(rows)

    # one entry with a term of the other parity takes step 1
    a, b = data.draw(st.integers(0, size - 1)), data.draw(st.integers(0, size - 1))
    shift = rho[a] + sigma[b]
    same = Polynomial(tuple(spread(shift, ys[a][b] if any(ys[a][b]) else [1])))
    other = 2 * data.draw(st.integers(0, 4)) + 1 - shift % 2
    bump = Polynomial.monomial(other, data.draw(coefficients(3).filter(bool)))
    rows[a][b] = same + bump
    assert reduction_step(rows) == (None if has_zero_line(rows) else 1)
    assert bareiss_det(rows) == cofactor_determinant(rows)


def test_bareiss_keeps_the_parity_factor_polynomial():
    # rows of parity (0, 1, 0) and columns (0, 1, 1): rescaling the odd
    # entries by q^(sigma_b - rho_a) would leave q^-1 outside det B(q^2),
    # and in the transpose rescaling them by q^(rho_a - sigma_b) would too
    one, q, q3 = Polynomial((1,)), Polynomial((0, 1)), Polynomial((0, 0, 0, 1))
    rows = [[one, q, q], [q, one, one], [one, q, q3]]
    for matrix in (rows, [list(col) for col in zip(*rows)]):
        assert reduction_step(matrix) == 2
        assert bareiss_det(matrix) == Polynomial((0, -1, 0, 2, 0, -1))
        assert bareiss_det(matrix) == cofactor_determinant(matrix)


@pytest.mark.parametrize(
    "n, degree", [(1, 0), (2, 1), (3, 5), (4, 21), (5, 84), (6, 330)]
)
def test_gram_matrices_take_the_q_squared_path(n, degree):
    # every loop count c(a, b) has the parity of c(a, 0) + c(0, b) + c(0, 0)
    entries = gram(n).entries
    rows, _, step = _reduce_powers([[list(e.num.coeffs) for e in row] for row in entries])
    assert step == 2
    assert sum(max(len(cs) for cs in row) - 1 for row in rows) == degree


def test_mersenne_table_holds_primes():
    # Lucas-Lehmer: 2^p - 1 (p an odd prime) is prime iff s_(p-2) = 0 mod it,
    # where s_0 = 4 and s_(k+1) = s_k^2 - 2
    assert list(_MERSENNE_EXPONENTS) == sorted(set(_MERSENNE_EXPONENTS))
    for p in _MERSENNE_EXPONENTS:
        assert p > 2 and all(p % d for d in range(2, math.isqrt(p) + 1))
        prime, s = (1 << p) - 1, 4
        for _ in range(p - 2):
            s = (s * s - 2) % prime
        assert s == 0, p


@pytest.mark.parametrize(
    "bound_bits, degree, exponent",
    [(0, 0, 61), (59, 0, 61), (60, 0, 89), (125, 0, 127), (126, 0, 521), (0, 2**61, 89)],
)
def test_least_mersenne_prime_above_the_bound(bound_bits, degree, exponent):
    # P must exceed twice a bound of 2^bound_bits, and the degree
    bound_sq = (1 << bound_bits) ** 2
    assert _mersenne_prime(bound_sq, degree) == (1 << exponent) - 1


def test_bareiss_lifts_through_the_521_bit_prime(monkeypatch):
    from tlmarkov import ortho as ortho_module

    primes = []
    det_mod = ortho_module._det_mod

    def spy(rows, prime):
        primes.append(prime)
        return det_mod(rows, prime)

    monkeypatch.setattr(ortho_module, "_det_mod", spy)
    big = Polynomial((2**100, -(2**99), 3))
    rows = [[big, Polynomial((-1, 2**100))], [Polynomial((2**100 + 1,)), big]]
    assert bareiss_det(rows) == cofactor_determinant(rows)
    assert set(primes) == {2**521 - 1}


def test_bareiss_lift_guard_catches_tampered_residues(monkeypatch):
    from tlmarkov import ortho as ortho_module

    interpolate = ortho_module._interpolate_mod

    def tampered(values, prime):
        coeffs = interpolate(values, prime)
        coeffs[1] = (coeffs[1] + prime // 2) % prime
        return coeffs

    monkeypatch.setattr(ortho_module, "_interpolate_mod", tampered)
    with pytest.raises(InternalCheckError, match="Goldstein-Graham bound"):
        bareiss_det(gram(3))
    monkeypatch.undo()

    # one wrong value at one point spreads residues far beyond the bound
    det_mod, calls = ortho_module._det_mod, []

    def wrong_at_first_point(rows, prime):
        calls.append(prime)
        return (det_mod(rows, prime) + (len(calls) == 1)) % prime

    monkeypatch.setattr(ortho_module, "_det_mod", wrong_at_first_point)
    with pytest.raises(InternalCheckError, match="Goldstein-Graham bound"):
        bareiss_det(gram(3))


def test_bareiss_bound_beyond_the_prime_table():
    huge = Polynomial((2**4500,))
    with pytest.raises(ValueError, match=r"4501 bits exceeds .* 2\^4423 - 1"):
        bareiss_det([[huge]])
    # just inside the table: 2^4421 needs P > 2^4422, and 2^4423 - 1 is
    assert bareiss_det([[Polynomial((2**4421,))]]) == Polynomial((2**4421,))


def test_bareiss_input_validation():
    with pytest.raises(ValueError):
        bareiss_det([[Polynomial((0, 1))], [Polynomial((1,))]])
    with pytest.raises(ValueError):
        bareiss_det(
            SquareMatrix(
                (seq("1"),),
                ((rf((1,), (0, 1)),),),
            )
        )


def test_det_product_examples():
    assert det_product(1) == rf((0, 1))
    assert det_product(2) == rf((0, 0, -1, 0, 1))
    assert det_product(0) == RF_ONE


@pytest.mark.parametrize("n", range(1, 5))
def test_det_product_equals_direct_product(n):
    direct = RF_ONE
    for s in enumerate_diagrams(n):
        direct = direct * predicted_diagonal(s)
    assert det_product(n) == direct


@pytest.mark.parametrize("n", range(1, 10))
def test_det_product_matches_the_meander_closed_form(n):
    # Di Francesco, Golinelli and Guitter (1997): det G_n = prod_j Delta_j^a_{n,j};
    # from n = 8 the exponent a_{n,1} of Delta_1 = q is negative, so the
    # exponents are compared over the Psi_d, and the expanded determinant
    # where it is small
    def c(k):
        return math.comb(2 * n, k) if k >= 0 else 0

    exponents = [c(n - j) - 2 * c(n - j - 1) + c(n - j - 2) for j in range(1, n + 1)]
    assert (exponents[0] < 0) == (n >= 8)
    closed = [0] * len(_delta_exponents(n))
    for j, a in enumerate(exponents, start=1):
        for i, e in enumerate(_delta_exponents(j)):
            closed[i] += a * e
    assert _det_exponents(n) == closed
    if n <= 6:
        expanded = ONE
        for j, a in enumerate(exponents, start=1):
            expanded = expanded * chebyshev(j) ** a
        assert det_product(n).num == expanded


@pytest.mark.parametrize("n", range(1, 10))
def test_det_closed_form_check_passes(n):
    check = det_closed_form_check(n)
    assert check.name == "det-closed-form"
    assert check.passed, check.details
    assert check.details.endswith(f"on each of {len(_delta_exponents(n))} Psi_d")


def test_det_closed_form_check_reports_a_wrong_exponent(monkeypatch):
    from tlmarkov import ortho as ortho_module

    true_exponents = ortho_module._det_exponents
    want = true_exponents(4)[0]  # position 0 holds Psi_4 = q = Delta_1

    def tampered(n):
        exponents = true_exponents(n)
        exponents[0] += 1
        return exponents

    monkeypatch.setattr(ortho_module, "_det_exponents", tampered)
    check = det_closed_form_check(4)
    assert not check.passed
    assert check.details == f"Psi_4: product {want + 1} != closed form {want}"


@pytest.mark.parametrize("n", range(1, 6))
def test_determinant_oracle_agreement(n):
    check = det_oracle_check(n)
    assert check.passed, check.details


def mirror_and_half_turn(n):
    perms = _symmetries([_partners(seq_to_matching(s)) for s in enumerate_diagrams(n)])
    return (perms[2 * n], perms[n]) if len(perms) > 1 else perms * 2


@pytest.mark.parametrize("n", range(1, 6))
def test_symmetry_blocks_multiply_to_the_gram_determinant(n):
    rows = [[e.num for e in row] for row in gram(n).entries]
    blocks = _symmetry_blocks(rows, *mirror_and_half_turn(n))
    sizes = [len(block) for block in blocks]
    assert sum(sizes) == math.comb(2 * n, n) // (n + 1)
    assert all(len(row) == len(block) for block in blocks for row in block)
    assert math.prod(map(bareiss_det, blocks), start=ONE) == bareiss_det(gram(n))
    if n == 5:
        assert sizes == [16, 10, 10, 6]


def test_the_oracle_of_one_diagram_has_one_block():
    # one diagram: both symmetries are the identity
    assert [len(b) for b in _symmetry_blocks([[Polynomial((0, 1))]], (0,), (0,))] == [1, 0, 0, 0]
    check = det_oracle_check(1)
    assert check.passed
    assert check.details == "bareiss determinant (degree 1) equals the diagonal product"


@pytest.mark.parametrize("name", ["mirror", "half-turn"])
def test_the_oracle_fails_on_a_gram_matrix_that_breaks_a_symmetry(name, monkeypatch):
    """One entry is raised by 1 at a pair (a, b) moved by the named symmetry
    and by sigma rho, and fixed by the mirror when the half-turn is named;
    the check fails at the first pair of the scan and names the symmetry."""
    from tlmarkov import ortho as ortho_module

    n = 4
    true = gram(n)
    sigma, rho = mirror_and_half_turn(n)
    g = sigma if name == "mirror" else rho

    def moved(perm, a, b):
        return (perm[a], perm[b]) != (a, b)

    size = len(true.basis)
    a, b = next(
        (a, b)
        for a in range(size)
        for b in range(size)
        if moved(g, a, b)
        and moved(sigma, a, b) == (name == "mirror")
        and moved(rho, a, b)
        and moved([sigma[i] for i in rho], a, b)
        and (a, b) < (g[a], g[b])
    )
    entries = [list(row) for row in true.entries]
    entries[a][b] = entries[a][b] + RF_ONE
    monkeypatch.setattr(ortho_module, "gram", lambda k: SquareMatrix(true.basis, entries))
    check = det_oracle_check(n)
    assert check.passed is False
    e = true.basis
    assert check.details == (
        f"the Gram matrix is not invariant under the {name}: "
        f"<e_{e[a]}, e_{e[b]}> = {entries[a][b].num} != {true.entries[a][b].num} = "
        f"<e_{e[g[a]]}, e_{e[g[b]]}>"
    )


def test_degeneracy_at_chebyshev_roots_small():
    det = det_product(3)
    assert det.is_polynomial
    # Delta_3 divides the determinant, so it vanishes at the principal root
    quotient, remainder = poly_divrem(det.num, chebyshev(3))
    assert remainder.is_zero
    root = chebyshev_root(3, bits=128)
    assert abs(eval_at(det, root)) < Fraction(1, 10**20)
    assert eval_at(det, 3) != 0


# ---------------------------------------------------------------------------
# Reference trivalent-tree bases
# ---------------------------------------------------------------------------


def test_fixture_report_shape():
    report = check_fixture_bases()
    by_name = {c.name: c for c in report.checks}
    assert set(by_name) == {
        "fixture-y",
        "fixture-same-side",
        "fixture-opposite-side",
        "fixture-same-side-equals-P",
    }
    assert by_name["fixture-y"].passed
    assert by_name["fixture-same-side"].passed
    assert by_name["fixture-same-side-equals-P"].passed


def test_fixture_y_row_self_pairings():
    y = next(f for f in TRIVALENT_FIXTURES if f.name == "y")
    matrix = gram(3)
    basis = enumerate_diagrams(3)
    row = DiagramVector.from_terms(3, zip(basis, y.matrix[1]))
    assert pair_vectors(row, row, matrix) == rf((0, -1, 0, 1))  # (q-1)q(q+1)
    last = DiagramVector.from_terms(3, zip(basis, y.matrix[4]))
    assert pair_vectors(last, last, matrix) == y.diagonal[4]
    assert y.diagonal[4] == rf((2, 0, -3, 0, 1), (0, 1))


def test_opposite_side_fixture_is_flagged_as_erratum():
    """The opposite-side table does not verify as printed; the checker must
    report the mismatching entries and point at the single sign correction,
    while the shipped table, which carries the corrected entry, verifies."""
    opposite = next(f for f in TRIVALENT_FIXTURES if f.name == "opposite-side")
    printed = rf((0, 1), (-1, 0, 1))  # +q/(q^2-1)
    assert opposite.errata == ((5, 4, printed),)
    assert opposite.matrix[4][3] == -printed
    as_printed = opposite.as_printed()
    assert as_printed.matrix[4][3] == printed
    changed = [
        (r, c)
        for r, (row, printed_row) in enumerate(zip(opposite.matrix, as_printed.matrix))
        for c, (a, b) in enumerate(zip(row, printed_row))
        if a != b
    ]
    assert changed == [(4, 3)]

    report = check_fixture_bases()
    check = next(c for c in report.checks if c.name == "fixture-opposite-side")
    assert check.passed
    assert "flagged erratum" in check.details
    assert "entry (1,5) got 2*q^3/(q^2 - 1) want 0" in check.details
    assert check.details.endswith(
        "probable erratum in the source table: "
        "negating row 5, column 4 (= q/(q^2 - 1)) verifies exactly"
    )
    assert report.passed


def test_opposite_side_last_row_is_forced():
    """Row 5 of the opposite-side table is forced by rows 1-4: they vanish in
    column 5 and have rank 4, so they span <e_1..e_4>, and the only vector
    e_5 + <e_1..e_4> orthogonal to that span is the corrected row 5."""
    opposite = next(f for f in TRIVALENT_FIXTURES if f.name == "opposite-side")
    same = next(f for f in TRIVALENT_FIXTURES if f.name == "same-side")
    matrix = gram(3)
    basis = enumerate_diagrams(3)
    assert str(basis[4]) == "3,2,1"

    head = opposite.matrix[:4]
    assert all(row[4].is_zero for row in head)
    # rank 4 over Q(q): the 4x4 minor on columns 1-4, cleared of its
    # denominators (powers of q), is a nonzero polynomial determinant
    cleared = [[entry * rf((0, 0, 1)) for entry in row[:4]] for row in head]
    assert all(entry.is_polynomial for row in cleared for entry in row)
    assert not bareiss_det([[entry.num for entry in row] for row in cleared]).is_zero

    last = opposite.matrix[4]
    assert last[4] == RF_ONE
    row5 = DiagramVector.from_terms(3, zip(basis, last))
    for e in basis[:4]:
        assert pair_vectors(DiagramVector.basis_vector(e), row5, matrix) == RF_ZERO
    assert last == same.matrix[4] == change_of_basis(3).P.entries[4]
    assert pair_vectors(row5, row5, matrix) == rf((0, -2, 0, 1))  # q^3 - 2q

    printed = DiagramVector.from_terms(3, zip(basis, opposite.as_printed().matrix[4]))
    assert any(
        pair_vectors(DiagramVector.basis_vector(e), printed, matrix) != RF_ZERO
        for e in basis[:4]
    )


def test_fixture_same_side_matches_recursion():
    same = next(f for f in TRIVALENT_FIXTURES if f.name == "same-side")
    assert same.matrix == change_of_basis(3).P.entries
    assert same.diagonal == change_of_basis(3).diagonal


def test_ortho_basis_json():
    obj = change_of_basis(2).to_json()
    assert obj["n"] == 2
    assert obj["basis"] == [[1, 1], [2, 1]]
    assert obj["P"][1][0] == {"num": {"coeffs": ["-1"]}, "den": {"coeffs": ["0", "1"]}}
    assert obj["diagonal"][0] == {"num": {"coeffs": ["0", "0", "1"]}, "den": {"coeffs": ["1"]}}


@pytest.mark.parametrize("n", range(1, 6))
def test_ortho_basis_json_shares_one_dict_per_value(n):
    basis = change_of_basis(n)
    obj = basis.to_json()
    assert_one_dict_per_value(
        [e for row in basis.P.entries for e in row] + list(basis.diagonal),
        [d for row in obj["P"] for d in row] + obj["diagonal"],
    )
