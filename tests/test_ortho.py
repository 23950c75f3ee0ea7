"""Orthogonal basis construction, exact verification, and the determinant oracle."""

import math
from fractions import Fraction

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
from tlmarkov.markov import DiagramVector, SquareMatrix, gram, pair_vectors
from tlmarkov.ortho import (
    TRIVALENT_FIXTURES,
    _det_exponents,
    _downset_size,
    _half_pairings,
    _level,
    _outside_downset,
    _packed,
    _reduce_powers,
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
    ONE,
    RF_ONE,
    RF_ZERO,
    Polynomial,
    RationalFunction,
    _delta_exponents,
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
    for s in enumerate_diagrams(n):
        assert predicted_diagonal(s) == chebyshev_product_diagonal(s), str(s)


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


@pytest.mark.parametrize("n", range(1, 7))
def test_downset_size_counts_the_downset(n):
    basis = enumerate_diagrams(n)
    for b in basis:
        assert _downset_size(b) == sum(1 for a in basis if leq(a, b)), str(b)


@pytest.mark.parametrize("n", range(0, 7))
def test_packed_downset_test_agrees_with_leq(n):
    """The guard-bit test gives leq on every pair, one pair at a time and
    over the whole basis at once."""
    basis = enumerate_diagrams(n)
    packed, guards = _packed(basis)
    for b in basis:
        assert _outside_downset(b, basis, packed, guards) == [
            a for a in basis if not leq(a, b)
        ], str(b)
        for a in basis:
            assert _outside_downset(b, [a], packed, guards) == ([] if leq(a, b) else [a])


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
            assert columns[a_idx].get(b_idx, RF_ZERO) == direct, (str(b), str(a))


def test_verify_detects_a_corrupted_interior_vector():
    """A wrong coefficient in a vector that is neither first nor last of its
    head class (same tail, heads 1..a_{n-1}+1) fails the half-pairing check;
    the recursion link is checked for every vector, none is sampled."""
    s = seq("2,2,2,2,1")  # tail 2,2,2,1 takes heads 1..3
    vector = orthogonal_vector(s)
    key = seq("1,2,2,2,1")
    assert key != s and key in vector.coeffs
    wrong = DiagramVector(
        5, {t: -c if t == key else c for t, c in vector.coeffs.items()}
    )
    with _with_corrupted_vector(s, wrong):
        result = verify_orthogonality(5)
    check = next(c for c in result.checks if c.name == "half-pairing")
    assert not check.passed
    assert "!=" in check.details
    assert f"e'_{s}" in check.details
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
        columns[1][0] = INV_Q  # <e_1,1, e'_2,1> = 1/q, below the triangle
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
                value = value + c * half[hi].get(basis.index(t), RF_ZERO)
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
        half[data.draw(pick)][data.draw(pick)] = data.draw(value)
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
    assert checks["half-pairing"].details.startswith("e'_2,1 has 0 != -1/q on e_1,1 by ")


def test_verify_reports_a_coefficient_outside_the_factor_base():
    """A stored coefficient 1/(q^2 + 1), whose denominator is no product of
    Delta_j, fails check (ii) for its own vector and for the vectors whose
    recursion reads it; the report says so, and nothing raises."""
    s = seq("2,1")
    change_of_basis(3)  # every vector to size 3 is stored, so none is rebuilt
    saved = orthogonal_vector(s)
    wrong = DiagramVector(2, {**saved.coeffs, seq("1,1"): rf((1,), (1, 0, 1))})
    with stored_vectors({s: wrong}):
        report = verify_orthogonality(3)
    check = next(c for c in report.checks if c.name == "half-pairing")
    assert not check.passed
    assert check.details.startswith("e'_2,1 has 1/(q^2 + 1) != -1/q on e_1,1 by l_2(e'_1) - ")
    assert "l_1(e'_2,1) reads a coefficient outside the Chebyshev factor base" in check.details
    assert verify_orthogonality(3).passed


def test_builder_raises_on_a_stored_coefficient_outside_the_factor_base():
    """The builder reads a stored e'_1,1 with a coefficient 1/(q^2 + 1) as the
    previous vector of e'_2,1 and stops."""
    from tlmarkov.ortho import InternalCheckError

    wrong = DiagramVector.from_terms(2, [(seq("1,1"), rf((1,), (1, 0, 1)))])
    with _with_corrupted_vector(seq("1,1"), wrong):
        with pytest.raises(InternalCheckError, match="outside the Chebyshev factor base"):
            orthogonal_vector(seq("2,1"))


@pytest.mark.parametrize("n", range(2, 7))
def test_factored_recursion_matches_rational_function_arithmetic(n, monkeypatch):
    """Cross-check at the conversion edge: every distinct (h, lifted, previous)
    triple that the builder, check (ii) and the half-pairing recursion combine,
    and every product they form, has over the factor base the value that
    RationalFunction arithmetic gives, in normal form."""
    import sys

    from tlmarkov import ortho as ortho_module
    from tlmarkov.qpoly import _Factored, _from_factored

    true_combined, true_times = ortho_module._combined, _Factored.times
    triples: dict[str, set] = {}
    products = set()

    def combined(memo, h, lifted, previous):
        caller = sys._getframe(1).f_code.co_name
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
    q = _Factored((0, 1), 1, ())
    assert any(b == q for _, b in products)  # the half-pairings' q^c
    for a, b in products:
        got = true_times(a, b)
        assert_normal_form(got)
        assert factored_value(got) == factored_value(a) * factored_value(b)


def test_memos_clear_and_rebuild_the_same_vectors():
    from tlmarkov.ortho import _clear_memos, _memo_sizes

    before = {s: orthogonal_vector(s) for s in enumerate_diagrams(4)}
    assert verify_orthogonality(4).passed
    sizes = _memo_sizes()
    assert set(sizes) == {
        "vectors",
        "wrapped",
        "levels",
        "to_factored",
        "from_factored",
        "psi_products",
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
    assert ortho_module._VECTOR_CACHE and ortho_module._WRAPPED and qpoly._PSI_PRODUCTS
    ortho_module._clear_memos()
    assert not ortho_module._VECTOR_CACHE
    assert not ortho_module._WRAPPED
    assert not qpoly._PSI_PRODUCTS


def test_a_written_vector_reads_back_through_the_public_api():
    """A vector written through the store's entry point, with a coefficient
    outside the factor base, reads back equal and in its term order; the
    store is restored afterwards."""
    s = seq("2,1,1")
    true = orthogonal_vector(s)
    written = DiagramVector(
        3,
        {
            **true.coeffs,
            seq("2,2,1"): rf((1,), (1, 0, 1)),  # 1/(q^2 + 1), outside the base
            seq("1,1,1"): rf((3, 1), (0, -2, 0, 1)),  # (q + 3)/Delta_3
        },
    )
    with stored_vectors({s: written}):
        got = orthogonal_vector(s)
        assert got == written
        assert list(got.coeffs) == list(written.coeffs)
        assert orthogonal_vector(s) is got
    assert orthogonal_vector(s) == true


@pytest.mark.parametrize("n", range(1, 6))
def test_change_of_basis_matches_the_term_recursion(n):
    basis = enumerate_diagrams(n)
    memo = {}
    rows = tuple(
        tuple(term_recursion(a, memo).coeffs.get(t, RF_ZERO) for t in basis) for a in basis
    )
    assert change_of_basis(n).P.entries == rows


def test_building_and_stacking_the_vectors_make_no_diagram_vector(monkeypatch):
    """The builder and change_of_basis read and write the store only; a
    DiagramVector is made only when orthogonal_vector is asked."""
    made = []
    true_post_init = DiagramVector.__post_init__

    def post_init(self):
        made.append(self.size)
        true_post_init(self)

    monkeypatch.setattr(DiagramVector, "__post_init__", post_init)
    with stored_vectors(clear=True):
        change_of_basis(5)
        assert made == []
        orthogonal_vector(seq("2,1,1"))
        assert made == [3]


@pytest.mark.parametrize("k", range(7))
def test_level_tables_match_the_sequence_route(k):
    """Reference oracle: every l_h and tau_h image in the tables of size k is
    the diagram the restricted-sequence route names."""
    level = _level(k)
    basis = enumerate_diagrams(k)
    assert level.basis == basis
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


@given(st.data())
@settings(max_examples=40)
def test_bareiss_matches_cofactor_expansion(data):
    size = data.draw(st.integers(1, 4))
    rows = [
        [
            Polynomial(
                tuple(
                    data.draw(
                        st.lists(coefficients(3), min_size=0, max_size=3)
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
        [data.draw(st.lists(coefficients(3), max_size=3)) for _ in range(size)]
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


@pytest.mark.parametrize("n", range(1, 5))
def test_determinant_oracle_agreement(n):
    check = det_oracle_check(n)
    assert check.passed, check.details


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
