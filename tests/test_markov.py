"""The Markov pairing, its operator identities, and Gram matrices."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_one_dict_per_value, rational_functions, restricted_sequences
from tlmarkov.diagrams import (
    RestrictedSequence,
    contract,
    enumerate_diagrams,
    insert_arc,
    seq_to_matching,
)
from tlmarkov.markov import (
    DiagramVector,
    PairingValue,
    SquareMatrix,
    _json_rows,
    gram,
    gram_exponents,
    pair_diagrams,
    pair_vectors,
)
from tlmarkov.qpoly import RF_ONE, RF_ZERO, Polynomial, RationalFunction


def seq(text):
    return RestrictedSequence.parse(text)


def match(text):
    return seq_to_matching(seq(text))


def rf(num, den=(1,)):
    return RationalFunction(Polynomial(tuple(num)), Polynomial(tuple(den)))


# ---------------------------------------------------------------------------
# The geometric pairing
# ---------------------------------------------------------------------------


def test_known_five_diagram_pairing():
    assert pair_diagrams(match("1,3,2,1,1"), match("2,1,2,1,1")).exponent == 2


def test_single_circle_pairing():
    assert pair_diagrams(match("1,1"), match("2,1")).exponent == 1
    assert str(pair_diagrams(match("1,1"), match("2,1"))) == "q"


@given(restricted_sequences(max_size=8))
def test_self_pairing_gives_one_circle_per_arc(s):
    m = seq_to_matching(s)
    assert pair_diagrams(m, m).exponent == s.size


@given(restricted_sequences(max_size=8), st.data())
def test_pairing_is_symmetric(s, data):
    t = data.draw(restricted_sequences(min_size=s.size, max_size=s.size))
    a, b = seq_to_matching(s), seq_to_matching(t)
    assert pair_diagrams(a, b).exponent == pair_diagrams(b, a).exponent


@given(restricted_sequences(max_size=8), st.data())
def test_pairing_exponent_bounds(s, data):
    t = data.draw(restricted_sequences(min_size=s.size, max_size=s.size))
    c = pair_diagrams(seq_to_matching(s), seq_to_matching(t)).exponent
    assert 1 <= c <= s.size


def test_pairing_size_mismatch():
    with pytest.raises(ValueError):
        pair_diagrams(match("1"), match("1,1"))


def test_pairing_value_rejects_negative():
    with pytest.raises(ValueError):
        PairingValue(-1)


# ---------------------------------------------------------------------------
# Operator identities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(0, 5))
def test_parallel_insertion_scales_by_q_exhaustive(n):
    """<l_k a, l_k b> = q * <a, b> for every k."""
    diagrams = [seq_to_matching(s) for s in enumerate_diagrams(n)]
    for a in diagrams:
        for b in diagrams:
            base = pair_diagrams(a, b).exponent
            for k in range(1, 2 * n + 2):
                assert (
                    pair_diagrams(insert_arc(a, k), insert_arc(b, k)).exponent
                    == base + 1
                )


@pytest.mark.parametrize("n", range(0, 5))
def test_staggered_insertion_preserves_pairing_exhaustive(n):
    """<l_{k+1} a, l_k b> = <a, b> for every k."""
    diagrams = [seq_to_matching(s) for s in enumerate_diagrams(n)]
    for a in diagrams:
        for b in diagrams:
            base = pair_diagrams(a, b).exponent
            for k in range(1, 2 * n + 1):
                assert (
                    pair_diagrams(insert_arc(a, k + 1), insert_arc(b, k)).exponent
                    == base
                )


@pytest.mark.parametrize("n", range(0, 4))
def test_contraction_adjoint_exhaustive(n):
    """q^c <tau_k a, b> = <a, l_k b> with c the loop count of tau_k."""
    small = [seq_to_matching(s) for s in enumerate_diagrams(n)]
    large = [seq_to_matching(s) for s in enumerate_diagrams(n + 1)]
    for a in large:
        for b in small:
            for k in range(1, 2 * n + 2):
                reduced, loops = contract(a, k)
                left = loops + pair_diagrams(reduced, b).exponent
                right = pair_diagrams(a, insert_arc(b, k)).exponent
                assert left == right


@given(restricted_sequences(max_size=8), st.data())
@settings(max_examples=200)
def test_insertion_identities_randomized(s, data):
    n = s.size
    t = data.draw(restricted_sequences(min_size=n, max_size=n))
    a, b = seq_to_matching(s), seq_to_matching(t)
    k = data.draw(st.integers(1, 2 * n + 1))
    base = pair_diagrams(a, b).exponent
    assert pair_diagrams(insert_arc(a, k), insert_arc(b, k)).exponent == base + 1
    if k <= 2 * n:
        assert pair_diagrams(insert_arc(a, k + 1), insert_arc(b, k)).exponent == base


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------


def test_gram_n1():
    g = gram(1)
    assert g.entries == ((rf((0, 1)),),)


def test_gram_n2():
    g = gram(2)
    q, q2 = rf((0, 1)), rf((0, 0, 1))
    assert g.entries == ((q2, q), (q, q2))


@pytest.mark.parametrize("n", range(0, 5))
def test_gram_diagonal_and_symmetry(n):
    exps = gram_exponents(n)
    for i, row in enumerate(exps):
        assert row[i] == n
        for j in range(len(row)):
            assert exps[i][j] == exps[j][i]


def _union_find_circles(a, b):
    """Reference: the circles of a glued to b as the connected components of
    the union of their arcs, by union-find over the points."""
    parent = list(range(2 * a.size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for m in (a, b):
        for i, j in m.arcs:
            parent[find(i - 1)] = find(j - 1)
    return sum(1 for x in range(len(parent)) if find(x) == x)


@pytest.mark.parametrize("n", range(0, 6))
def test_gram_exponents_match_a_union_find_count(n):
    matchings = [seq_to_matching(s) for s in enumerate_diagrams(n)]
    assert gram_exponents(n) == tuple(
        tuple(_union_find_circles(a, b) for b in matchings) for a in matchings
    )


@pytest.mark.parametrize("n", range(0, 8))
def test_symmetric_gram_exponents_equal_the_full_walk(n):
    """The table gathered by the rotation and reflection lemma equals the
    circle walk on every pair, the rows it gathers included."""
    from tlmarkov.markov import _circles, _partners

    partners = [_partners(seq_to_matching(s)) for s in enumerate_diagrams(n)]
    table = gram_exponents(n)
    assert type(table) is tuple and all(type(row) is tuple for row in table)
    assert table == tuple(tuple(_circles(a, b) for b in partners) for a in partners)


@pytest.mark.parametrize("n", range(0, 7))
def test_symmetries_are_the_dihedral_group_on_the_diagrams(n):
    """4n permutations of the diagrams (the identity alone for n <= 1), each a
    bijection, closed under composition and holding the identity."""
    from tlmarkov.markov import _partners, _symmetries

    partners = [_partners(seq_to_matching(s)) for s in enumerate_diagrams(n)]
    perms = _symmetries(partners)
    size = len(partners)
    assert len(perms) == (4 * n if n >= 2 else 1)
    for perm in perms:
        assert sorted(perm) == list(range(size))
    group = set(perms)
    assert tuple(range(size)) in group
    for f in perms:
        for g in perms:
            assert tuple(f[g[i]] for i in range(size)) in group


@pytest.mark.parametrize("n", range(2, 8))
def test_the_mirror_and_the_half_turn_are_commuting_involutions(n):
    """Entry 2n of the symmetries reflects the 2n points and entry n turns
    them by n; each is its own inverse and they commute."""
    from tlmarkov.markov import _partners, _symmetries

    partners = [_partners(seq_to_matching(s)) for s in enumerate_diagrams(n)]
    perms = _symmetries(partners)
    sigma, rho = perms[2 * n], perms[n]
    points = 2 * n
    for p, i, j in zip(partners, sigma, rho):
        assert partners[i] == tuple(points - 1 - p[points - 1 - x] for x in range(points))
        assert partners[j] == tuple((p[(x + n) % points] + n) % points for x in range(points))
    for g in (sigma, rho):
        assert [g[g[i]] for i in range(len(g))] == list(range(len(g)))
    assert [sigma[i] for i in rho] == [rho[i] for i in sigma]


@pytest.mark.parametrize("n", range(0, 6))
def test_gram_json_shares_one_dict_per_value(n):
    g = gram(n)
    assert_one_dict_per_value(
        (e for row in g.entries for e in row),
        (d for row in g.to_json()["entries"] for d in row),
    )


def test_json_rows_serialise_each_distinct_value_once(monkeypatch):
    # equal values held by distinct objects share one to_json() call
    calls = []
    to_json = RationalFunction.to_json

    def counted(self):
        calls.append(self)
        return to_json(self)

    monkeypatch.setattr(RationalFunction, "to_json", counted)
    values = [RationalFunction(Polynomial((k, 1)), Polynomial((1,))) for k in range(3)]
    copies = [RationalFunction(Polynomial((k, 1)), Polynomial((1,))) for k in range(3)]
    rows = [values, copies, [copies[2], values[0], RF_ONE]]
    dicts = _json_rows(rows)
    assert len(calls) == len(set(calls)) == 4
    assert_one_dict_per_value((e for row in rows for e in row), (d for row in dicts for d in row))


def test_gram_json_round_trip():
    g = gram(2)
    assert SquareMatrix.from_json(g.to_json()) == g


def test_gram_csv():
    assert gram(1).to_csv() == ',1\n1,q\n'


# ---------------------------------------------------------------------------
# Vectors and bilinearity
# ---------------------------------------------------------------------------


def test_pair_vectors_reduces_to_diagram_pairing():
    g = gram(2)
    va = DiagramVector.basis_vector(seq("1,1"))
    vb = DiagramVector.basis_vector(seq("2,1"))
    assert pair_vectors(va, vb, g) == rf((0, 1))


def test_pair_vectors_known_self_pairing():
    g = gram(2)
    v = DiagramVector.from_terms(
        2, [(seq("2,1"), RF_ONE), (seq("1,1"), rf((-1,), (0, 1)))]
    )
    assert pair_vectors(v, v, g) == rf((-1, 0, 1))


def test_pair_vectors_zero():
    g = gram(2)
    assert pair_vectors(DiagramVector.zero(2), DiagramVector.basis_vector(seq("1,1")), g) == RF_ZERO


def test_pair_vectors_basis_mismatch():
    g = gram(2)
    with pytest.raises(KeyError):
        pair_vectors(
            DiagramVector.basis_vector(seq("1,1,1")),
            DiagramVector.basis_vector(seq("1,1,1")),
            g,
        )


@given(st.data())
@settings(max_examples=40)
def test_pair_vectors_bilinear(data):
    n = data.draw(st.integers(1, 3))
    basis = enumerate_diagrams(n)
    g = gram(n)

    def vector():
        terms = data.draw(
            st.lists(
                st.tuples(st.sampled_from(basis), rational_functions(max_degree=2)),
                max_size=3,
            )
        )
        return DiagramVector.from_terms(n, terms)

    u, v, w = vector(), vector(), vector()
    c = data.draw(rational_functions(max_degree=2))
    assert pair_vectors(u + v, w, g) == pair_vectors(u, w, g) + pair_vectors(v, w, g)
    assert pair_vectors(u.scaled(c), w, g) == c * pair_vectors(u, w, g)
    assert pair_vectors(u, w, g) == pair_vectors(w, u, g)


def test_vector_algebra():
    a = DiagramVector.basis_vector(seq("1,1"))
    b = DiagramVector.basis_vector(seq("2,1"))
    assert (a - a).is_zero
    assert (a + b).coeffs[seq("1,1")] == RF_ONE
    assert a.scaled(0).is_zero
    with pytest.raises(ValueError):
        a + DiagramVector.basis_vector(seq("1"))
    with pytest.raises(ValueError):
        DiagramVector(2, {seq("1"): RF_ONE})


def test_vector_insert_lift():
    v = DiagramVector.from_terms(
        1, [(seq("1"), RF_ONE)]
    ).apply_insert(2)
    assert v.coeffs == {seq("2,1"): RF_ONE}
    assert v.size == 2
