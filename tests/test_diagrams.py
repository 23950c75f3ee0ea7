"""Chord diagram encodings, operations, order, and quad moves."""

import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import restricted_sequences
from tlmarkov.diagrams import (
    InvalidMatchingError,
    InvalidSequenceError,
    Matching,
    QuadMoveSite,
    RestrictedSequence,
    apply_quad,
    contract,
    enumerate_diagrams,
    hasse,
    hasse_dot,
    insert_arc,
    leq,
    matching_to_seq,
    quad_reachable,
    quad_sites,
    seq_to_matching,
    _level,
    validate_restricted,
)


def seq(text):
    return RestrictedSequence.parse(text)


def arcs_of(text):
    return seq_to_matching(seq(text)).arcs


# ---------------------------------------------------------------------------
# Restricted sequences
# ---------------------------------------------------------------------------


def test_validate_accepts_known_sequence():
    s = validate_restricted((3, 2, 2, 1, 2, 2, 1))
    assert s.head_first == (3, 2, 2, 1, 2, 2, 1)
    assert s.entries == (1, 2, 2, 1, 2, 2, 3)


def test_validate_rejects_jump_with_index():
    with pytest.raises(InvalidSequenceError) as info:
        validate_restricted((3, 1, 1))
    assert info.value.index == 3


def test_validate_rejects_bad_first_entry():
    with pytest.raises(InvalidSequenceError) as info:
        validate_restricted((2, 2))
    assert info.value.index == 1


def test_validate_accepts_empty():
    assert validate_restricted(()).size == 0


def test_parse_and_render():
    assert str(seq("3,2,1")) == "3,2,1"
    assert seq("").size == 0
    assert str(seq("")) == ""
    with pytest.raises(ValueError, match="token 'x'"):
        RestrictedSequence.parse("3,x,1")


@given(restricted_sequences())
def test_parse_round_trip(s):
    assert RestrictedSequence.parse(str(s)) == s


# ---------------------------------------------------------------------------
# Matchings and the two translations
# ---------------------------------------------------------------------------


def test_matching_validation():
    Matching.from_arcs([(1, 4), (2, 3)])
    with pytest.raises(InvalidMatchingError):
        Matching((2, 1, 4, 3, 6, 5, 8))  # odd length
    with pytest.raises(InvalidMatchingError):
        Matching((1, 2))  # fixed point
    with pytest.raises(InvalidMatchingError):
        Matching.from_arcs([(1, 3), (2, 4)])  # crossing
    with pytest.raises(InvalidMatchingError):
        Matching((2, 1, 3, 4))  # point 3 fixed


def test_seq_to_matching_examples():
    assert arcs_of("1,1") == ((1, 2), (3, 4))
    assert arcs_of("2,1") == ((1, 4), (2, 3))
    assert arcs_of("2,2,1") == ((1, 6), (2, 3), (4, 5))


def test_matching_to_seq_examples():
    assert matching_to_seq(Matching.from_arcs([(1, 6), (2, 3), (4, 5)])) == seq("2,2,1")
    assert matching_to_seq(Matching.from_arcs([(1, 2)])) == seq("1")
    s = seq("3,2,2,1,2,2,1")
    assert matching_to_seq(seq_to_matching(s)) == s


@pytest.mark.parametrize("n", range(0, 8))
def test_round_trip_exhaustive(n):
    for s in enumerate_diagrams(n):
        assert matching_to_seq(seq_to_matching(s)) == s


def depth_sequence(m: Matching) -> RestrictedSequence:
    """Independent oracle: a_i is one plus the number of arcs strictly over
    the arc with the i-th largest right endpoint."""
    arcs = sorted(m.arcs, key=lambda a: -a[1])
    depths = [
        1 + sum(1 for x in arcs if x[0] < a[0] and a[1] < x[1]) for a in arcs
    ]
    return RestrictedSequence(tuple(depths))


@given(restricted_sequences(max_size=9))
def test_sequence_equals_depth_tuple(s):
    assert depth_sequence(seq_to_matching(s)) == s


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def test_enumeration_order_n3():
    assert [str(s) for s in enumerate_diagrams(3)] == [
        "1,1,1",
        "2,1,1",
        "1,2,1",
        "2,2,1",
        "3,2,1",
    ]


def test_enumeration_empty():
    assert enumerate_diagrams(0) == (RestrictedSequence(()),)


@pytest.mark.parametrize("n", range(0, 11))
def test_enumeration_counts_are_catalan(n):
    assert len(enumerate_diagrams(n)) == math.comb(2 * n, n) // (n + 1)


@given(restricted_sequences(max_size=7))
def test_enumeration_is_complete(s):
    assert s in enumerate_diagrams(s.size)


@pytest.mark.parametrize("n", range(0, 7))
def test_enumeration_is_the_sorted_brute_force(n):
    """Reference oracle: every tuple over 1..n with a_1 = 1 and
    a_{i+1} <= a_i + 1, sorted, independently of the level tables."""
    tuples = itertools.product(range(1, n + 1), repeat=n)
    valid = [e for e in tuples if all(a <= b + 1 for b, a in zip((0,) + e, e))]
    assert [s.entries for s in enumerate_diagrams(n)] == sorted(valid)


@pytest.mark.parametrize("n", range(0, 10))
def test_enumeration_is_strictly_increasing(n):
    basis = enumerate_diagrams(n)
    assert all(a < b for a, b in zip(basis, basis[1:]))


def test_enumeration_builds_no_matching():
    """The basis of each size is built from the one below; the partner
    tuples and the tables read from them wait for their first use."""
    _level.cache_clear()
    enumerate_diagrams(6)
    assert _level.cache_info().currsize == 7
    for k in range(7):
        built = vars(_level(k))
        assert not {"partners", "partner_index", "lift", "contract"} & built.keys(), k


# ---------------------------------------------------------------------------
# Insertion and contraction
# ---------------------------------------------------------------------------


def test_insert_examples():
    assert insert_arc(Matching.empty(), 1).arcs == ((1, 2),)
    assert matching_to_seq(insert_arc(seq_to_matching(seq("1,1")), 2)) == seq("2,1,1")
    assert matching_to_seq(insert_arc(seq_to_matching(seq("2,1")), 3)) == seq("3,2,1")


def test_insert_range():
    m = seq_to_matching(seq("1,1"))
    insert_arc(m, 5)  # 2n + 1 is allowed
    with pytest.raises(ValueError):
        insert_arc(m, 6)
    with pytest.raises(ValueError):
        insert_arc(m, 0)


def test_contract_examples():
    m = seq_to_matching(seq("2,1,1"))
    out, loops = contract(m, 1)
    assert (matching_to_seq(out), loops) == (seq("1,1"), 0)
    out, loops = contract(m, 2)
    assert (matching_to_seq(out), loops) == (seq("1,1"), 1)


def test_contract_range_and_degenerate():
    with pytest.raises(ValueError):
        contract(Matching.empty(), 1)
    with pytest.raises(ValueError):
        contract(seq_to_matching(seq("1")), 2)
    out, loops = contract(seq_to_matching(seq("1")), 1)
    assert out == Matching.empty() and loops == 1


@pytest.mark.parametrize("n", range(0, 6))
def test_contract_inverts_insert(n):
    """tau_j l_k is the identity for j in {k-1, k, k+1}."""
    for s in enumerate_diagrams(n):
        m = seq_to_matching(s)
        for k in range(1, 2 * n + 2):
            inserted = insert_arc(m, k)
            for j in (k - 1, k, k + 1):
                if not 1 <= j <= 2 * n + 1:
                    continue
                out, loops = contract(inserted, j)
                assert out == m
                assert loops == (1 if j == k else 0)


def reference_insert(partner, k):
    """l_k point by point on a 1-based partner tuple."""
    out = [0] * (len(partner) + 2)
    for i, j in enumerate(partner, start=1):
        out[(i + 2 if i >= k else i) - 1] = j + 2 if j >= k else j
    out[k - 1], out[k] = k + 1, k
    return tuple(out)


def reference_contract(partner, k):
    """tau_k point by point on a 1-based partner tuple, with the loops closed."""
    pairs = dict(enumerate(partner, start=1))
    loops = int(pairs[k] == k + 1)
    if not loops:
        a, b = pairs[k], pairs[k + 1]
        pairs[a], pairs[b] = b, a
    del pairs[k], pairs[k + 1]
    out = [0] * (len(partner) - 2)
    for i, j in pairs.items():
        out[(i - 2 if i > k else i) - 1] = j - 2 if j > k else j
    return tuple(out), loops


partner_tuples = st.one_of(
    st.just(()),
    restricted_sequences(max_size=6).map(lambda s: seq_to_matching(s).partner),
    st.lists(st.integers(-1, 9), max_size=10).map(tuple),
)


@given(partner_tuples, st.integers(-2, 14))
def test_insert_and_contract_check_their_input(partner, k):
    """The public l_k and tau_k reject a tuple that is no matching, and a
    position outside their range, with InvalidMatchingError or ValueError;
    on valid input the partner-tuple kernels agree with the point-by-point
    reference."""
    size2 = len(partner)
    try:
        Matching(partner)
        valid = True
    except InvalidMatchingError:
        valid = False
    if valid and 1 <= k <= size2 + 1:
        assert insert_arc(Matching(partner), k).partner == reference_insert(partner, k)
    else:
        with pytest.raises((InvalidMatchingError, ValueError)):
            insert_arc(Matching(partner), k)
    if valid and 1 <= k <= size2 - 1:
        out, loops = contract(Matching(partner), k)
        assert (out.partner, loops) == reference_contract(partner, k)
    else:
        with pytest.raises((InvalidMatchingError, ValueError)):
            contract(Matching(partner), k)


@given(restricted_sequences(max_size=8), st.data())
def test_operations_preserve_validity(s, data):
    m = seq_to_matching(s)
    k = data.draw(st.integers(1, 2 * s.size + 1))
    bigger = insert_arc(m, k)  # constructor re-validates
    assert bigger.size == s.size + 1
    j = data.draw(st.integers(1, 2 * s.size + 1))
    smaller, loops = contract(bigger, j)
    assert smaller.size == s.size
    assert loops in (0, 1)


@given(restricted_sequences(min_size=2, max_size=8), st.data())
def test_contract_shifts_leading_entry(s, data):
    """Away from the leading inner arc, contraction either drops the leading
    entry by exactly 2 (left side) or cannot raise it (right side)."""
    head = s.entries[-1]
    n = s.size
    choices = [
        j
        for j in range(1, 2 * n)
        if j not in (head - 1, head, head + 1)
    ]
    if not choices:
        return
    j = data.draw(st.sampled_from(choices))
    out, _ = contract(seq_to_matching(s), j)
    leading = matching_to_seq(out).entries[-1]
    if j < head - 1:
        assert leading == head - 2
    else:
        assert leading <= head


# ---------------------------------------------------------------------------
# The coordinate-wise order
# ---------------------------------------------------------------------------


def test_leq_examples():
    assert leq(seq("1,2,1"), seq("2,2,1"))
    assert not leq(seq("2,1,1"), seq("1,2,1"))
    assert not leq(seq("1,2,1"), seq("2,1,1"))


@given(restricted_sequences())
def test_leq_reflexive(s):
    assert leq(s, s)


def test_leq_length_mismatch():
    with pytest.raises(ValueError):
        leq(seq("1"), seq("1,1"))


# ---------------------------------------------------------------------------
# Quad moves
# ---------------------------------------------------------------------------


def test_quad_sites_examples():
    assert quad_sites(seq_to_matching(seq("3,2,1"))) == (
        QuadMoveSite((1, 6), (2, 5)),
        QuadMoveSite((2, 5), (3, 4)),
    )
    assert quad_sites(seq_to_matching(seq("1,1,1"))) == ()
    assert quad_sites(seq_to_matching(seq("2,1"))) == (QuadMoveSite((1, 4), (2, 3)),)


def test_apply_quad_examples():
    m = seq_to_matching(seq("3,2,1"))
    assert matching_to_seq(apply_quad(m, QuadMoveSite((1, 6), (2, 5)))) == seq("1,1,1")
    assert matching_to_seq(apply_quad(m, QuadMoveSite((2, 5), (3, 4)))) == seq("2,2,1")
    m = seq_to_matching(seq("2,2,1"))
    assert matching_to_seq(apply_quad(m, QuadMoveSite((1, 6), (4, 5)))) == seq("2,1,1")


def test_apply_quad_rejects_foreign_site():
    m = seq_to_matching(seq("1,1,1"))
    with pytest.raises(ValueError):
        apply_quad(m, QuadMoveSite((1, 6), (2, 5)))


@given(restricted_sequences(max_size=8))
def test_apply_quad_strictly_decreases(s):
    m = seq_to_matching(s)
    for site in quad_sites(m):
        out = matching_to_seq(apply_quad(m, site))
        assert leq(out, s) and out != s


def test_quad_reachable_examples():
    ok, path = quad_reachable(seq("2,1,1"), seq("3,2,1"))
    assert ok and [str(x) for x in path] == ["3,2,1", "2,2,1", "2,1,1"]
    ok, path = quad_reachable(seq("2,1,1"), seq("1,2,1"))
    assert not ok and path is None
    ok, path = quad_reachable(seq("2,2,1"), seq("2,2,1"))
    assert ok and path == [seq("2,2,1")]


@pytest.mark.parametrize("n", range(1, 5))
def test_quad_reachability_equals_order(n):
    elements = enumerate_diagrams(n)
    for b in elements:
        for a in elements:
            ok, path = quad_reachable(a, b)
            assert ok == leq(a, b)
            if ok:
                assert path[0] == b and path[-1] == a
                # each step is one quad move
                for x, y in zip(path, path[1:]):
                    mx = seq_to_matching(x)
                    assert any(
                        matching_to_seq(apply_quad(mx, site)) == y
                        for site in quad_sites(mx)
                    )


@pytest.mark.parametrize("n", range(1, 6))
def test_insert_preserves_and_reflects_order(n):
    elements = enumerate_diagrams(n)
    for k in range(1, 2 * n + 2):
        images = {
            s: matching_to_seq(insert_arc(seq_to_matching(s), k)) for s in elements
        }
        for a in elements:
            for b in elements:
                assert leq(a, b) == leq(images[a], images[b])


# ---------------------------------------------------------------------------
# Hasse diagrams
# ---------------------------------------------------------------------------


def test_hasse_n3():
    edges = {(str(a), str(b)) for a, b in hasse(3)}
    assert edges == {
        ("2,2,1", "3,2,1"),
        ("2,1,1", "2,2,1"),
        ("1,2,1", "2,2,1"),
        ("1,1,1", "2,1,1"),
        ("1,1,1", "1,2,1"),
    }


def test_hasse_small():
    assert hasse(1) == ()
    assert [(str(a), str(b)) for a, b in hasse(2)] == [("1,1", "2,1")]


@pytest.mark.parametrize("n", range(1, 6))
def test_hasse_edges_are_covers(n):
    elements = enumerate_diagrams(n)
    edges = set(hasse(n))
    for a in elements:
        for b in elements:
            if a == b or not leq(a, b):
                continue
            strictly_between = any(
                c != a and c != b and leq(a, c) and leq(c, b) for c in elements
            )
            assert ((a, b) in edges) == (not strictly_between)


def test_hasse_dot_output():
    text = hasse_dot(2)
    assert text == (
        'digraph hasse_2 {\n  "1,1";\n  "2,1";\n  "1,1" -> "2,1";\n}\n'
    )
