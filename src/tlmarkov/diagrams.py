"""Non-crossing chord diagrams and their combinatorics.

A size-n chord diagram joins the points 1..2n on a line by n disjoint arcs in
the upper half-plane.  Two interchangeable encodings are used:

* :class:`Matching` - the fixed-point-free non-crossing involution pairing
  each point with its partner;
* :class:`RestrictedSequence` - the tuple (a_n, ..., a_1) with a_1 = 1 and
  a_{i+1} <= a_i + 1 that records where each arc was inserted: the diagram is
  obtained from the empty diagram by inserting an innermost arc at position
  a_1, then a_2, and so on.

The module implements the insertion operator ``l_k`` (:func:`insert_arc`), the
contraction ``tau_k`` (:func:`contract`), enumeration in the canonical basis
order, the coordinate-wise partial order on sequences, quad moves (the
0-surgery replacing a nested parent/child arc pair by a side-by-side pair),
and Hasse-diagram export.  Each size's diagrams are one table (:func:`_level`),
built from the size below, which every other module reads.

There are Catalan(n) diagrams of size n.  The depth of an arc - one plus the
number of arcs strictly over it - recovers the restricted sequence, which the
test suite uses as an independent oracle for :func:`matching_to_seq`.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "RestrictedSequence",
    "Matching",
    "QuadMoveSite",
    "InvalidSequenceError",
    "InvalidMatchingError",
    "validate_restricted",
    "seq_to_matching",
    "matching_to_seq",
    "enumerate_diagrams",
    "insert_arc",
    "contract",
    "leq",
    "quad_sites",
    "apply_quad",
    "quad_reachable",
    "hasse",
    "hasse_dot",
]


class InvalidSequenceError(ValueError):
    """A tuple that is not a restricted sequence; ``index`` is the first
    offending 1-based subscript (position i of a_i)."""

    def __init__(self, message: str, index: int) -> None:
        super().__init__(message)
        self.index = index


class InvalidMatchingError(ValueError):
    """An array that is not a fixed-point-free non-crossing involution."""


@dataclass(frozen=True, order=True)
class RestrictedSequence:
    """A chord diagram named by its arc-insertion positions.

    ``entries`` is stored in insertion order (a_1 first, a_n last); rendering
    uses the conventional order (a_n, ..., a_1).  The canonical basis order on
    diagrams is the lexicographic order on the stored insertion-order tuple,
    which dataclass ordering provides directly.

    >>> RestrictedSequence.parse("3,2,1").entries
    (1, 2, 3)
    >>> str(RestrictedSequence((1, 2, 3)))
    '3,2,1'
    """

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        for i, a in enumerate(entries, start=1):
            if not isinstance(a, int) or isinstance(a, bool):
                raise InvalidSequenceError(f"a_{i} = {a!r} is not an integer", i)
            if a < 1:
                raise InvalidSequenceError(f"a_{i} = {a} must be positive", i)
            if i == 1 and a != 1:
                raise InvalidSequenceError(f"a_1 = {a} must equal 1", 1)
            if i > 1 and a > entries[i - 2] + 1:
                raise InvalidSequenceError(
                    f"a_{i} = {a} exceeds a_{i - 1} + 1 = {entries[i - 2] + 1}", i
                )

    @classmethod
    def from_head_first(cls, values: Iterable[int]) -> "RestrictedSequence":
        """Build from the conventional rendering order (a_n, ..., a_1)."""
        return cls(tuple(reversed(tuple(values))))

    @classmethod
    def parse(cls, text: str) -> "RestrictedSequence":
        """Parse comma-separated conventional order; the empty string is the
        empty diagram."""
        text = text.strip()
        if not text:
            return cls(())
        values = []
        for token in text.split(","):
            token = token.strip()
            try:
                values.append(int(token))
            except ValueError:
                raise ValueError(f"invalid sequence token {token!r}") from None
        return cls.from_head_first(values)

    @property
    def head_first(self) -> tuple[int, ...]:
        """The tuple in conventional order (a_n, ..., a_1)."""
        return tuple(reversed(self.entries))

    @property
    def size(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return ",".join(str(a) for a in self.head_first)

    def __repr__(self) -> str:
        return f"RestrictedSequence.parse({str(self)!r})"


def validate_restricted(values: Iterable[int]) -> RestrictedSequence:
    """Validate a tuple given in conventional order (a_n, ..., a_1).

    Accepts exactly the sequences with a_1 = 1 and a_{i+1} <= a_i + 1;
    rejections carry the first offending subscript.
    """
    return RestrictedSequence.from_head_first(values)


@dataclass(frozen=True)
class Matching:
    """Fixed-point-free non-crossing involution on the points 1..2n.

    ``partner[i - 1]`` is the point joined to point i.  Validity (involution,
    no fixed points, non-crossing) is checked on construction.
    """

    partner: tuple[int, ...]

    def __post_init__(self) -> None:
        partner = tuple(self.partner)
        object.__setattr__(self, "partner", partner)
        size2 = len(partner)
        if size2 % 2:
            raise InvalidMatchingError("matching needs an even number of points")
        stack: list[int] = []
        for i in range(1, size2 + 1):
            j = partner[i - 1]
            if not 1 <= j <= size2 or j == i:
                raise InvalidMatchingError(f"point {i} pairs with invalid point {j}")
            if partner[j - 1] != i:
                raise InvalidMatchingError(f"pairing of {i} and {j} is not involutive")
            if j > i:
                stack.append(i)
            elif not stack or stack[-1] != j:
                raise InvalidMatchingError(f"arcs through {j} and {i} cross")
            else:
                stack.pop()

    @classmethod
    def empty(cls) -> "Matching":
        return cls(())

    @classmethod
    def from_arcs(cls, arcs: Iterable[tuple[int, int]]) -> "Matching":
        arcs = [tuple(sorted(arc)) for arc in arcs]
        partner = [0] * (2 * len(arcs))
        for i, j in arcs:
            if not 1 <= i <= len(partner) or not 1 <= j <= len(partner):
                raise InvalidMatchingError(f"arc ({i}, {j}) outside 1..{len(partner)}")
            if partner[i - 1] or partner[j - 1]:
                raise InvalidMatchingError(f"arc ({i}, {j}) reuses a point")
            partner[i - 1], partner[j - 1] = j, i
        return cls(tuple(partner))

    @property
    def size(self) -> int:
        """Number of arcs n."""
        return len(self.partner) // 2

    @property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        """Arcs as (left, right) pairs ordered by left endpoint."""
        return tuple(
            (i, j) for i, j in enumerate(self.partner, start=1) if j > i
        )

    def partner_of(self, point: int) -> int:
        return self.partner[point - 1]

    def __str__(self) -> str:
        return "{" + ", ".join(f"({i},{j})" for i, j in self.arcs) + "}"


def insert_arc(m: Matching, k: int) -> Matching:
    """l_k: insert a new innermost arc occupying positions (k, k+1).

    Existing points p >= k shift to p + 2.  Valid for 1 <= k <= 2n + 1: the
    top of the range appends the new arc after the last point.
    """
    size2 = len(m.partner)
    if not 1 <= k <= size2 + 1:
        raise ValueError(f"insertion position {k} outside 1..{size2 + 1}")
    return _matching(_inserted(_partners(m), k))


def contract(m: Matching, k: int) -> tuple[Matching, int]:
    """tau_k: glue the interval [k, k+1] below the line and renumber.

    If k and k+1 were joined by an arc, that arc closes into a loop which is
    removed; the returned count c is 1 in that case and 0 otherwise (the
    exponent in the adjunction between tau_k and l_k).  Otherwise the partners
    of k and k+1 become joined.  Valid for 1 <= k <= 2n - 1.
    """
    size2 = len(m.partner)
    if size2 == 0:
        raise ValueError("cannot contract the empty diagram")
    if not 1 <= k <= size2 - 1:
        raise ValueError(f"contraction position {k} outside 1..{size2 - 1}")
    partners, loops = _contracted(_partners(m), k)
    return _matching(partners), loops


def _inserted(p: tuple[int, ...], k: int) -> tuple[int, ...]:
    """l_k on a 0-based partner tuple (:func:`_partners`): the new arc joins
    the points k - 1 and k, and the points from k - 1 on move up by 2.  The
    position is not checked."""
    moved = [j + 2 if j >= k - 1 else j for j in p]
    return (*moved[: k - 1], k, k - 1, *moved[k - 1 :])


def _contracted(p: tuple[int, ...], k: int) -> tuple[tuple[int, ...], int]:
    """tau_k on a 0-based partner tuple: the points k - 1 and k are glued and
    removed, their partners joined, and the loops closed counted.  The
    position is not checked."""
    a = k - 1
    glued = list(p)
    loops = int(p[a] == k)
    if not loops:
        x, y = p[a], p[k]
        glued[x], glued[y] = y, x
    del glued[a : a + 2]
    return tuple([j - 2 if j > a else j for j in glued]), loops


def seq_to_matching(s: RestrictedSequence) -> Matching:
    """Fold the arc insertions l_{a_1}, ..., l_{a_n} over the empty diagram."""
    m = Matching.empty()
    for k in s.entries:
        m = insert_arc(m, k)
    return m


def matching_to_seq(m: Matching) -> RestrictedSequence:
    """Invert :func:`seq_to_matching`.

    Repeatedly record the smallest k whose arc is innermost (joins k, k+1)
    and contract it; the recorded positions, read in removal order, give
    (a_n, ..., a_1).
    """
    removed: list[int] = []
    while m.size:
        k = min(i for i, j in enumerate(m.partner, start=1) if j == i + 1)
        removed.append(k)
        m, _ = contract(m, k)
    return RestrictedSequence.from_head_first(removed)


def enumerate_diagrams(n: int) -> tuple[RestrictedSequence, ...]:
    """All restricted sequences of length n in the canonical basis order.

    The order is lexicographic on the insertion-order tuple (a_1, a_2, ...),
    and the count is the nth Catalan number; the tuple is ``_level(n).basis``.
    """
    return _level(n).basis


def _heads(t: RestrictedSequence) -> range:
    """The heads h with (t, h) a restricted sequence."""
    return range(1, t.entries[-1] + 2 if t.entries else 2)


def _partners(m: Matching) -> tuple[int, ...]:
    """The partner tuple of m on the 0-based points 0..2n-1."""
    return tuple(p - 1 for p in m.partner)


def _matching(p: tuple[int, ...]) -> Matching:
    """The Matching of a 0-based partner tuple, checked on construction."""
    return Matching(tuple(j + 1 for j in p))


@dataclass(frozen=True)
class _Level:
    """The diagrams of size k and how they arise from those of size k - 1.

    ``basis`` (B_k) lists (t, h) for each tail t of B_{k-1} in order and each
    head h of t (:func:`_heads`) in turn: the canonical order by construction.
    The rest is built on first use: ``index`` maps each diagram to its
    position, and ``partners`` lists the diagrams' 0-based partner tuples in
    the same order, each its tail's with one arc inserted (:func:`_inserted`).
    ``partner_index`` maps each partner tuple to its position, and every
    other table is computed on partner tuples through it, with no Matching
    made or checked.  ``lift[h - 1][u]`` is the index of l_h(u) for the u-th
    diagram of B_{k-1}; ``contract[b][h - 1]`` is ``(u, c)`` with u the index
    of tau_h(b) in B_{k-1} and c the loops the contraction closes.
    """

    k: int
    basis: tuple[RestrictedSequence, ...]

    @functools.cached_property
    def index(self) -> dict[RestrictedSequence, int]:
        return {s: i for i, s in enumerate(self.basis)}

    @functools.cached_property
    def partners(self) -> list[tuple[int, ...]]:
        if not self.k:
            return [()]
        below = _level(self.k - 1)
        tails = zip(below.partners, below.basis)
        return [_inserted(p, h) for p, t in tails for h in _heads(t)]

    @functools.cached_property
    def partner_index(self) -> dict[tuple[int, ...], int]:
        return {p: i for i, p in enumerate(self.partners)}

    @functools.cached_property
    def lift(self) -> tuple[tuple[int, ...], ...]:
        below = _level(self.k - 1).partners if self.k else []
        at = self.partner_index
        return tuple(tuple([at[_inserted(p, h)] for p in below]) for h in range(1, self.k + 1))

    @functools.cached_property
    def contract(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        # only the verifier reads it, so orthogonalize never builds it
        at = _level(self.k - 1).partner_index if self.k else {}
        heads = range(1, self.k + 1)
        images = ([_contracted(p, h) for h in heads] for p in self.partners)
        return tuple(tuple([(at[image], loops) for image, loops in row]) for row in images)


@functools.cache
def _level(k: int) -> _Level:
    """The tables of size k, built once from those of size k - 1;
    ``_level.cache_clear()`` drops them."""
    if k < 0:
        raise ValueError("diagram size must be >= 0")
    if not k:
        return _Level(0, (RestrictedSequence(()),))
    tails = _level(k - 1).basis
    return _Level(k, tuple(RestrictedSequence(t.entries + (h,)) for t in tails for h in _heads(t)))


def leq(a: RestrictedSequence, b: RestrictedSequence) -> bool:
    """Coordinate-wise comparison a_k <= b_k; demands equal lengths."""
    if a.size != b.size:
        raise ValueError(f"size mismatch: {a.size} vs {b.size}")
    return all(x <= y for x, y in zip(a.entries, b.entries))


@dataclass(frozen=True, order=True)
class QuadMoveSite:
    """A nested parent/child arc pair (i,l) over (k,j) with i < k < j < l and
    no arc strictly between them."""

    outer: tuple[int, int]
    inner: tuple[int, int]

    def __post_init__(self) -> None:
        i, l = self.outer
        k, j = self.inner
        if not i < k < j < l:
            raise ValueError(f"site arcs ({i},{l}), ({k},{j}) are not nested")


def quad_sites(m: Matching) -> tuple[QuadMoveSite, ...]:
    """All (outer, inner) pairs where inner is an immediate child of outer."""
    sites: list[QuadMoveSite] = []
    stack: list[tuple[int, int]] = []
    for i in range(1, len(m.partner) + 1):
        j = m.partner_of(i)
        if j > i:
            if stack:
                sites.append(QuadMoveSite(outer=stack[-1], inner=(i, j)))
            stack.append((i, j))
        else:
            stack.pop()
    return tuple(sorted(sites))


def apply_quad(m: Matching, site: QuadMoveSite) -> Matching:
    """Replace the nested arcs (i,l), (k,j) by the side-by-side (i,k), (j,l).

    The move strictly lowers the diagram in the coordinate-wise order.
    """
    if site not in quad_sites(m):
        raise ValueError(f"{site} is not a quad-move site of {m}")
    i, l = site.outer
    k, j = site.inner
    arcs = [a for a in m.arcs if a != site.outer and a != site.inner]
    arcs.extend([(i, k), (j, l)])
    return Matching.from_arcs(arcs)


def quad_reachable(
    a: RestrictedSequence, b: RestrictedSequence
) -> tuple[bool, list[RestrictedSequence] | None]:
    """Search for a chain of quad moves transforming b into a.

    Returns (True, path) with the witness path from b down to a (inclusive),
    or (False, None).  Reachability coincides with a <= b coordinate-wise.
    """
    if a.size != b.size:
        raise ValueError(f"size mismatch: {a.size} vs {b.size}")
    if a == b:
        return True, [a]
    seen = {b}
    parent: dict[RestrictedSequence, RestrictedSequence] = {}
    queue = deque([b])
    while queue:
        current = queue.popleft()
        m = seq_to_matching(current)
        for site in quad_sites(m):
            child = matching_to_seq(apply_quad(m, site))
            if child in seen:
                continue
            seen.add(child)
            parent[child] = current
            if child == a:
                path = [child]
                while path[-1] != b:
                    path.append(parent[path[-1]])
                path.reverse()
                return True, path
            queue.append(child)
    return False, None


def hasse(n: int) -> tuple[tuple[RestrictedSequence, RestrictedSequence], ...]:
    """Covering pairs (a, b) of the coordinate-wise order, a covered by b.

    b covers a exactly when b is a with one entry a_i <= a_{i-1} (i >= 2)
    raised by 1: any a < b reaches b by raising the first differing entry.
    """
    if n < 1:
        raise ValueError("hasse diagram needs n >= 1")
    edges: list[tuple[RestrictedSequence, RestrictedSequence]] = []
    for a in enumerate_diagrams(n):
        e = a.entries
        for i in range(1, n):
            if e[i] <= e[i - 1]:
                edges.append((a, RestrictedSequence(e[:i] + (e[i] + 1,) + e[i + 1 :])))
    return tuple(sorted(edges))


def hasse_dot(n: int) -> str:
    """Hasse diagram as a DOT digraph, edges directed from smaller to larger."""
    elements = enumerate_diagrams(n)
    lines = [f"digraph hasse_{n} {{"]
    for s in elements:
        lines.append(f'  "{s}";')
    for a, b in hasse(n):
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
