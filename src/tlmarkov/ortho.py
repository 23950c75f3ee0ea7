"""Orthogonalization of the Markov form over the diagram basis.

For a diagram named by the restricted sequence (a_n, ..., a_1), the
orthogonal vector e'_{(a_n,...,a_1)} is defined by a two-level recursion:
outer on the diagram size through the tail, inner downward in the
coordinate-wise order through the decremented head,

    e'_(a_n,...,a_1) = l_{a_n}(e'_(a_{n-1},...,a_1))
                       - (Delta_{a_n-2}/Delta_{a_n-1}) * e'_(a_n-1,...,a_1),

with e'_(1) the plain basis vector and, for a_n = 1, simply
l_1(e'_(a_{n-1},...,a_1)).  The change of basis is unitriangular with support
in the downset of the index, the primed basis is orthogonal, and the diagonal
entries are the products of Chebyshev quotients

    <e'_a, e'_a> = prod_i Delta_{a_i} / Delta_{a_i - 1}.

The vectors are built all of one size at once from those one size down, and
each coefficient of the recursion is computed once per distinct
(h, lifted, previous) triple of coefficients.  The builder and the verifier
read one table of l_h and tau_h images per size (:func:`_level`), built once
per process; each image is found by its :class:`Matching`.

Since G = L D L^T with P = L^-1 unitriangular, every denominator in P and in
the half-pairings divides a product of the Delta_j, j <= n (the Ko-Smolinsky
determinant structure).  So the builder, check (ii) and the half-pairing
recursion compute over the irreducible factors Psi_d of the Delta_k
(``qpoly._Factored``): an integer numerator over a positive integer and an
exponent vector, reduced by exact division by the Psi_d present, with no
polynomial gcd.

One store holds the only copy of the vectors: each is an ``array('I')`` of
diagram indices with a parallel tuple of shared ``_Factored`` values, keyed
by its sequence.  The builder, check (ii), the downset test and the
orthogonality and diagonal checks read it by index.  Values cross to
:class:`RationalFunction` only at the edges, once per distinct value:
:func:`orthogonal_vector` wraps an entry into a :class:`DiagramVector` on
first request, :func:`change_of_basis` fills the rows of P by index, and a
report converts the values it prints.

:func:`verify_orthogonality` certifies all of this by exact arithmetic.  The
engine tabulates the half-pairings H[b][a] = <e_b, e'_a> without pairing any
vector: the recursion for e'_(t,h), pushed through the adjunction
<e_b, l_h x> = q^c <tau_h e_b, x>, gives each entry from the level below,

    H_k[b][(t,h)] = q^c H_{k-1}[tau_h b][t]
                    - (Delta_{h-2}/Delta_{h-1}) * H_k[b][(t,h-1)],

starting from H_0 = [[1]].  Two exhaustive checks tie the table to the
stored vectors: (i) the adjunction holds on the pairing exponents for every
b, head h and u one size down, and (ii) every stored vector satisfies its
defining recursion.  By induction on the size they give H = G P^T exactly.
The engine then checks that H[b][a] vanishes whenever b precedes a in the
head-major lexicographic order (the order refining the coordinate-wise one),
and that H[a][a] matches the predicted diagonal.  Every entry of the primed
Gram matrix is then a finite sum of verified terms: expanding <e'_b, e'_a>
through the lex-smaller argument makes each term a coefficient times a
verified-zero half-pairing, so the off-diagonal entries are exactly zero and
the diagonal reduces to 1 * H[a][a].

Each check costs about one pass over the stored terms or the table rows.
Link (i) compares whole exponent rows, gathered through the lift table.
Check (ii) evaluates each recursion keyed by diagram index and compares it
with the stored vector as a whole.  The downset test packs each sequence
into one integer with a guard bit above each entry, so a <= b is one
subtraction.  The orthogonality check searches only the terms outside
their downsets and the half-pairings below the triangle: with both checks
passing, no pair shares a term, and any pair that does is found from those
and gets its literal entry.  The predicted diagonal is one exponent vector
over the Psi_d, turned into a reduced quotient with no gcd.

:func:`bareiss_det` provides the independent fraction-free determinant
oracle, and :func:`det_product` the predicted product form; their exact
agreement cross-checks the diagonalization against the Gram determinant.
Every loop count satisfies c(a, b) = c(a, 0) + c(0, b) + c(0, 0) (mod 2), so
G(q) = diag(q^rho) B(q^2) diag(q^sigma); the oracle finds this split by
testing every entry and eliminates over y = q^2, at half the degree.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
import time
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .diagrams import (
    Matching,
    RestrictedSequence,
    contract,
    enumerate_diagrams,
    insert_arc,
    seq_to_matching,
)
from .markov import DiagramVector, SquareMatrix, _json_rows, gram, gram_exponents, pair_vectors
from .qpoly import (
    _F_ONE,
    _F_ZERO,
    _FROM_FACTORED,
    _PSI_POSITION,
    _PSI_PRODUCTS,
    _TO_FACTORED,
    ONE,
    RF_ONE,
    RF_ZERO,
    ZERO,
    Polynomial,
    RationalFunction,
    _delta_exponents,
    _Factored,
    _from_factored,
    _horner,
    _psi_power,
    _psi_product,
    _to_factored,
    chebyshev,
)

__all__ = [
    "OrthoBasis",
    "CheckResult",
    "VerificationReport",
    "InternalCheckError",
    "orthogonal_vector",
    "change_of_basis",
    "predicted_diagonal",
    "verify_orthogonality",
    "bareiss_det",
    "det_product",
    "det_oracle_check",
    "det_closed_form_check",
    "check_fixture_bases",
    "TRIVALENT_FIXTURES",
]


class InternalCheckError(RuntimeError):
    """A structural guarantee of the construction failed; implementation bug."""


# ---------------------------------------------------------------------------
# The orthogonal vectors.
# ---------------------------------------------------------------------------

class _Stored(NamedTuple):
    """One orthogonal vector: the diagram indices of its terms, in term
    order, and the parallel coefficients, shared ``_Factored`` objects.

    ``outside`` marks a vector written by :func:`_store_vector` with a
    coefficient whose denominator did not factor over the base as grown
    then; that coefficient is kept as its :class:`RationalFunction`.
    """

    indices: array
    values: tuple
    outside: bool


_VECTOR_LOCK = threading.RLock()
# the store: the only copy of the vectors, keyed by sequence entries
_VECTOR_CACHE: dict[tuple[int, ...], _Stored] = {}
# the public DiagramVector of each vector asked for, one object per key
_WRAPPED: dict[tuple[int, ...], DiagramVector] = {}


def orthogonal_vector(s: RestrictedSequence) -> DiagramVector:
    """The orthogonal vector e'_s as a combination of diagram basis vectors.

    The vectors live in an index-keyed store over the factor base
    (:func:`_build_level`); the first request for s wraps its entry into a
    :class:`DiagramVector`, converting each distinct coefficient once, and
    memoizes it, so every call returns the same object.
    """
    if s.size < 1:
        raise ValueError("orthogonal vectors are indexed by nonempty sequences")
    vec = _WRAPPED.get(s.entries)
    if vec is not None:
        return vec
    with _VECTOR_LOCK:
        vec = _WRAPPED.get(s.entries)
        if vec is None:
            stored = _stored(s)
            terms = map(_level(s.size).basis.__getitem__, stored.indices)
            vec = DiagramVector(s.size, dict(zip(terms, map(_rational, stored.values))))
            _WRAPPED[s.entries] = vec
        return vec


def _stored(s: RestrictedSequence) -> _Stored:
    """The store's entry for e'_s.  A miss builds every vector of size s.size
    at once from those one size down, so the recursion is well founded: the
    tail is shorter, and within a level the decremented head comes first."""
    stored = _VECTOR_CACHE.get(s.entries)
    if stored is None:
        with _VECTOR_LOCK:
            if s.entries not in _VECTOR_CACHE:
                _build_level(s.size)
            stored = _VECTOR_CACHE[s.entries]
    return stored


def _store_vector(s: RestrictedSequence, vec: DiagramVector) -> None:
    """Write vec into the store as e'_s, replacing what is there.

    Each coefficient is translated to the factor base; one outside it is
    kept as it is and marks the entry.  The vectors built later in the level
    of s are built from it.
    """
    index = _level(vec.size).index
    values = tuple(_to_factored(value) or value for value in vec.coeffs.values())
    outside = not all(isinstance(value, _Factored) for value in values)
    stored = _Stored(array("I", map(index.__getitem__, vec.coeffs)), values, outside)
    with _VECTOR_LOCK:
        _VECTOR_CACHE[s.entries] = stored
        _WRAPPED.pop(s.entries, None)


def _rational(value: _Factored | RationalFunction) -> RationalFunction:
    """A stored coefficient as a RationalFunction."""
    return _from_factored(value) if isinstance(value, _Factored) else value


def _over_base(stored: _Stored) -> tuple[_Factored | None, ...]:
    """The stored coefficients over the factor base as grown so far; None
    for one whose denominator does not factor over it."""
    if not stored.outside:
        return stored.values
    return tuple(v if isinstance(v, _Factored) else _to_factored(v) for v in stored.values)


_EMPTY = _Stored(array("I", [0]), (_F_ONE,), False)  # e'_() = e_()


def _build_level(k: int) -> None:
    """Store e'_(t,h) for every diagram (t,h) of size k.

    The entry of e'_t one size down is pushed through the lift table of h,
    index by index, and each coefficient of
    e'_(t,h) = l_h(e'_t) - (Delta_{h-2}/Delta_{h-1}) e'_(t,h-1) is computed
    over the factor base once per distinct (h, lifted, previous) triple.  The
    columns go into the store as they are; no RationalFunction is made.  The
    empty diagram's e'_() is e_().  A vector already in the store is kept,
    and the vectors built after it in the level are built from it; a
    coefficient of such a vector outside the factor base raises
    :class:`InternalCheckError`.
    """
    below, level = _level(k - 1), _level(k)
    _delta_exponents(k)  # the factor base holds every Psi_d of Delta_1..Delta_k
    # the coefficients repeat: the 40,898 terms of size 7 hold 2,974 triples
    combined: dict[tuple[int, _Factored, _Factored], _Factored] = {}
    for t in below.basis:
        tail = _stored(t) if t.size else _EMPTY
        values = _base_values(tail, below.basis)
        previous: Mapping[int, _Factored] = {}
        for h in _heads(t):
            column = dict(zip(map(level.lift[h - 1].__getitem__, tail.indices), values))
            # previous is empty for h = 1
            for key, value in previous.items():
                entry = _combined(combined, h, column.get(key, _F_ZERO), value)
                if entry.num:
                    column[key] = entry
                else:
                    column.pop(key, None)
            stored = _Stored(array("I", column), tuple(column.values()), False)
            kept = _VECTOR_CACHE.setdefault(t.entries + (h,), stored)
            if kept is not stored:
                column = dict(zip(kept.indices, _base_values(kept, level.basis)))
            previous = column


def _base_values(stored: _Stored, basis: Sequence[RestrictedSequence]) -> tuple[_Factored, ...]:
    """The stored coefficients over the factor base, for the builder."""
    values = _over_base(stored)
    if stored.outside and None in values:
        i = values.index(None)
        raise InternalCheckError(
            f"coefficient {stored.values[i]} of e_{basis[stored.indices[i]]} has a "
            "denominator outside the Chebyshev factor base"
        )
    return values


def _memo_sizes() -> dict[str, int]:
    """Entries held by each process-wide memo."""
    return {
        "vectors": len(_VECTOR_CACHE),
        "wrapped": len(_WRAPPED),
        "levels": _level.cache_info().currsize,
        "to_factored": len(_TO_FACTORED),
        "from_factored": len(_FROM_FACTORED),
        "psi_products": len(_PSI_PRODUCTS),
    }


def _clear_memos() -> None:
    """Drop the vector store and its wrappers, the level tables, the
    factor-base translations and the Psi products.

    The factor base itself stays, so its positions stay stable.
    """
    with _VECTOR_LOCK:
        _VECTOR_CACHE.clear()
        _WRAPPED.clear()
        _level.cache_clear()
        _TO_FACTORED.clear()
        _FROM_FACTORED.clear()
        _PSI_PRODUCTS.clear()


def predicted_diagonal(s: RestrictedSequence) -> RationalFunction:
    """The predicted self-pairing: the product of Delta_{a_i}/Delta_{a_i-1}.

    It is built from its net exponents over the factor base: the Psi_d are
    distinct monic irreducibles, so the product of the positive powers over
    the product of the negative ones is already reduced, with no gcd.
    """
    exponents = _quotient_exponents(s.entries)
    num = _psi_power(tuple(max(e, 0) for e in exponents))
    den = _psi_power(tuple(max(-e, 0) for e in exponents))
    return RationalFunction._from_normal(num, den)


def _quotient_exponents(entries: Iterable[int]) -> list[int]:
    """The product of Delta_a/Delta_{a-1} over entries a, as net exponents over
    the factor base: each Delta_k counts once per entry k and minus once per
    entry k + 1."""
    counts: dict[int, int] = {}
    for a in entries:
        counts[a] = counts.get(a, 0) + 1
    exponents = [0] * len(_delta_exponents(max(counts, default=0)))
    for k, count in counts.items():
        net = count - counts.get(k + 1, 0)
        for i, e in enumerate(_delta_exponents(k)):
            exponents[i] += net * e
    return exponents


@dataclass(frozen=True)
class OrthoBasis:
    """The orthogonalization at size n: basis order, unitriangular change of
    basis P (row for a holds the coordinates of e'_a), and the predicted
    diagonal."""

    n: int
    basis: tuple[RestrictedSequence, ...]
    P: SquareMatrix
    diagonal: tuple[RationalFunction, ...]

    def to_json(self) -> dict:
        *P, diagonal = _json_rows((*self.P.entries, self.diagonal))
        return {
            "n": self.n,
            "basis": [list(s.head_first) for s in self.basis],
            "P": P,
            "diagonal": diagonal,
        }


def change_of_basis(n: int) -> OrthoBasis:
    """Stack the orthogonal vectors over the canonical basis order.

    Each row of P is filled by index from the store, and each distinct
    coefficient object is converted to a RationalFunction once.
    Unitriangularity and downset support are asserted before returning; a
    failure signals an implementation bug, never expected data.
    """
    if n < 1:
        raise ValueError("change of basis needs n >= 1")
    basis = enumerate_diagrams(n)
    packed, guards = _packed(basis)
    by_position = list(packed.values())
    # the coefficients are few shared objects and hashing one is slow, so
    # each is converted once, looked up by id; holding the object keeps its
    # id from being reused
    converted: dict[int, tuple[object, RationalFunction]] = {}
    rows = []
    for a, s in enumerate(basis):
        stored = _stored(s)
        row = [RF_ZERO] * len(basis)
        for i, value in zip(stored.indices, stored.values):
            seen = converted.get(id(value))
            if seen is None:
                seen = converted[id(value)] = (value, _rational(value))
            row[i] = seen[1]
        if row[a] != RF_ONE:
            raise InternalCheckError(f"coefficient of {s} in e'_{s} is not 1")
        outside = _outside_downset(a, stored.indices, by_position, guards)
        if outside:
            raise InternalCheckError(
                f"e'_{s} has support outside its downset: {basis[outside[0]]}"
            )
        rows.append(tuple(row))
    P = SquareMatrix(basis, tuple(rows))
    diagonal = tuple(predicted_diagonal(s) for s in basis)
    return OrthoBasis(n=n, basis=basis, P=P, diagonal=diagonal)


# ---------------------------------------------------------------------------
# Reports.
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    seconds: float
    details: str = ""

    def to_text(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"{self.name}: {status} ({self.seconds:.3f}s)"
        if self.details:
            line += f" -- {self.details}"
        return line


@dataclass
class VerificationReport:
    label: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = [f"== {self.label} =="]
        lines += [c.to_text() for c in self.checks]
        failed = sum(1 for c in self.checks if not c.passed)
        lines.append(
            f"{self.label}: {len(self.checks)} checks, "
            + ("all passed" if failed == 0 else f"{failed} FAILED")
        )
        return "\n".join(lines)

    def to_json_obj(self) -> dict:
        return {
            "label": self.label,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "seconds": round(c.seconds, 6),
                    "details": c.details,
                }
                for c in self.checks
            ],
        }


# ---------------------------------------------------------------------------
# Exact verification engine.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Level:
    """The diagrams of size k and how they arise from those of size k - 1.

    ``index`` maps each diagram of ``basis`` (B_k) to its position, and
    ``matchings`` each diagram's matching, in the same order.
    ``lift[h - 1][u]`` is the index of l_h(u) in B_k for the u-th diagram of
    B_{k-1}; ``contract[b][h - 1]`` is ``(u, c)`` with u the index of
    tau_h(b) in B_{k-1} and c the loops the contraction closes.  Heads run
    over 1..k.
    """

    basis: tuple[RestrictedSequence, ...]
    index: dict[RestrictedSequence, int]
    matchings: dict[Matching, int]
    lift: tuple[tuple[int, ...], ...]

    @functools.cached_property
    def contract(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        # only the verifier reads it, so orthogonalize never builds it
        k = len(self.lift)
        below = _level(k - 1).matchings if k else {}
        rows = []
        for m in self.matchings:
            row = []
            for h in range(1, k + 1):
                image, loops = contract(m, h)
                row.append((below[image], loops))
            rows.append(tuple(row))
        return tuple(rows)


@functools.cache
def _level(k: int) -> _Level:
    """The tables of size k, built once; ``_level.cache_clear()`` drops them."""
    basis = enumerate_diagrams(k)
    matchings = {seq_to_matching(s): i for i, s in enumerate(basis)}
    below = _level(k - 1).matchings if k else {}
    lift = tuple(
        tuple(matchings[insert_arc(m, h)] for m in below) for h in range(1, k + 1)
    )
    return _Level(basis, {s: i for i, s in enumerate(basis)}, matchings, lift)


def _downset_size(b: RestrictedSequence) -> int:
    """The number of diagrams a <= b, counted position by position by the
    last entry of each prefix of a."""
    counts = {1: 1}
    for top in b.entries[1:]:
        counts = {
            v: sum(c for u, c in counts.items() if v <= u + 1)
            for v in range(1, top + 1)
        }
    return sum(counts.values())


def _packed(basis: Sequence[RestrictedSequence]) -> tuple[dict[RestrictedSequence, int], int]:
    """Each sequence of basis packed into one int, in basis order, and the
    mask of the guard bits.

    Entry i fills the low w bits of field i, with 2^w above every entry, and
    bit w of the field is its guard bit.  Then (P_b | guards) - P_a keeps
    every guard bit exactly when a <= b coordinate-wise: field i borrows its
    guard bit when a_i > b_i, and the borrow stops there.
    """
    n = len(basis[0].entries)
    width = n.bit_length()
    stride = width + 1
    guards = sum(1 << (stride * i + width) for i in range(n))
    packed = {s: sum(a << (stride * i) for i, a in enumerate(s.entries)) for s in basis}
    return packed, guards


def _outside_downset(b, terms: Iterable, packed, guards: int) -> list:
    """The terms t with t <= b false, in order, by one guard-bit subtraction
    per term (:func:`_packed`); packed maps b and every term to its packed
    int, by sequence or by basis position.  terms is read twice when one is
    found."""
    top = packed[b] | guards
    gaps = map(top.__sub__, map(packed.__getitem__, terms))
    if functools.reduce(operator.and_, gaps, guards) == guards:
        return []
    return [t for t in terms if (top - packed[t]) & guards != guards]


def _heads(t: RestrictedSequence) -> range:
    """The heads h with (t, h) a restricted sequence."""
    return range(1, t.entries[-1] + 2 if t.entries else 2)


@functools.cache
def _ratio(h: int) -> _Factored:
    """Delta_{h-2}/Delta_{h-1}, the coefficient of e'_(t,h-1) in e'_(t,h);
    consecutive Delta are coprime."""
    return _Factored(chebyshev(h - 2).coeffs, 1, _delta_exponents(h - 1))


def _combined(
    memo: dict[tuple[int, _Factored, _Factored], _Factored],
    h: int,
    lifted: _Factored,
    previous: _Factored,
) -> _Factored:
    """lifted - (Delta_{h-2}/Delta_{h-1}) * previous, computed once per
    distinct (h, lifted, previous) triple in ``memo``."""
    terms = (h, lifted, previous)
    value = memo.get(terms)
    if value is None:
        value = memo[terms] = lifted.minus(_ratio(h).times(previous))
    return value


def _half_pairings(n: int) -> list[dict[int, RationalFunction]]:
    """The half-pairings H[b][a] = <e_b, e'_a> over enumerate_diagrams(n), as
    sparse columns: column a maps the index of each b with H[b][a] != 0 to
    the entry.

    The recursion of e'_(t,h), pushed through the adjunction
    <e_b, l_h x> = q^c <tau_h e_b, x>, gives each entry in O(1) field
    operations from the level below, starting at H_0 = [[1]]:

        H_k[b][(t,h)] = q^c(b,h) H_{k-1}[tau_h b][t]
                        - (Delta_{h-2}/Delta_{h-1}) H_k[b][(t,h-1)].

    No vector and no Gram entry is read; :func:`verify_orthogonality`
    certifies that the result equals G P^T for the stored vectors.  The
    entries are computed over the factor base and returned as
    :class:`RationalFunction`.
    """
    q = _Factored((0, 1), 1, ())
    # the entries repeat, so each field operation is done once per operands
    raised: dict[_Factored, _Factored] = {}
    combined: dict[tuple[int, _Factored, _Factored], _Factored] = {}
    columns: list[dict[int, _Factored]] = [{0: _F_ONE}]
    for k in range(1, n + 1):
        below, level = _level(k - 1).basis, _level(k)
        preimages: list[list[list[tuple[int, int]]]] = [[[] for _ in below] for _ in range(k)]
        for b, row in enumerate(level.contract):
            for h, (u, loops) in enumerate(row):
                preimages[h][u].append((b, loops))
        # B_k lists each (t, h) after (t, h - 1), tails in the order of B_{k-1}
        upper: list[dict[int, _Factored]] = []
        for t_idx, t in enumerate(below):
            previous: dict[int, _Factored] = {}
            for h in _heads(t):
                column = {}
                for u, value in columns[t_idx].items():
                    for b, loops in preimages[h - 1][u]:
                        if loops:
                            shifted = raised.get(value)
                            if shifted is None:
                                shifted = raised[value] = value.times(q)
                            column[b] = shifted
                        else:
                            column[b] = value
                if h > 1:
                    for b, value in previous.items():
                        entry = _combined(combined, h, column.get(b, _F_ZERO), value)
                        if entry.num:
                            column[b] = entry
                        else:
                            column.pop(b, None)
                upper.append(column)
                previous = column
        columns = upper
    return [{b: _from_factored(value) for b, value in column.items()} for column in columns]


def _adjunction_mismatches(n: int) -> list[str]:
    """Link (i): <e_b, l_h e_u> = q^c <tau_h e_b, e_u> on the pairing
    exponents, for every b of size k <= n, head h and u of size k - 1.

    Each (b, h) compares whole rows: row b of size k gathered through the
    lift table of h, against row tau_h b one size down plus the loops c.
    """
    bad = []
    lower = gram_exponents(0)
    for k in range(1, n + 1):
        below, level = _level(k - 1).basis, _level(k)
        upper = gram_exponents(k)
        # tau_h closes at most one loop
        raised = (lower, [tuple(map((1).__add__, row)) for row in lower])
        gathers = [_gather(lift) for lift in level.lift]
        for b_idx, row in enumerate(level.contract):
            exponents = upper[b_idx]
            for h, (u_idx, loops) in enumerate(row, start=1):
                got = gathers[h - 1](exponents)
                want = raised[loops][u_idx]
                if got != want:
                    b = level.basis[b_idx]
                    for u, x, y in zip(below, got, want):
                        if x != y:
                            bad.append(
                                f"<e_{b}, l_{h} e_{u}> = q^{x} != q^{y} = "
                                f"q^{loops} * <tau_{h} e_{b}, e_{u}>"
                            )
        lower = upper
    return bad


def _gather(indices: Sequence[int]) -> Callable[[Sequence], tuple]:
    """The tuple of a sequence's items at indices, gathered at C level."""
    if len(indices) == 1:
        (i,) = indices
        return lambda row: (row[i],)
    return operator.itemgetter(*indices)


def _recursion_mismatches(n: int) -> list[str]:
    """Link (ii): every stored vector satisfies its defining recursion
    e'_(t,h) = l_h(e'_t) - (Delta_{h-2}/Delta_{h-1}) e'_(t,h-1), through the
    lift table of link (i), and e'_(1) = e_(1).

    The recursion is evaluated over the factor base, keyed by diagram index
    as the store is, with its own memo of combined triples, and compared
    with the stored vector as a whole; only a vector that differs is
    compared term by term, in basis order, for the report.  A stored
    coefficient outside the base is a mismatch, and so is every coefficient
    whose recursion reads one.
    """
    bad = []
    _delta_exponents(n)  # the factor base holds every Psi_d of Delta_1..Delta_n
    # the coefficients repeat: at n = 7 the 46,312 terms hold 3,888 distinct
    # (h, lifted, previous) triples
    combined: dict[tuple[int, _Factored, _Factored], _Factored] = {}
    first = RestrictedSequence((1,))
    if orthogonal_vector(first) != DiagramVector.basis_vector(first):
        bad.append(f"e'_{first} = {orthogonal_vector(first)} != e_{first}")
    for k in range(2, n + 1):
        below, level = _level(k - 1), _level(k)
        # B_k lists each (t, h) after (t, h - 1), tails in the order of B_{k-1}
        a_idx = 0
        for t in below.basis:
            tail = _stored(t)
            tail_values = _over_base(tail)
            tail_outside = tail.outside and None in tail_values
            previous: dict[int, _Factored | None] = {}
            previous_outside = False
            for h in _heads(t):
                a = level.basis[a_idx]
                a_idx += 1
                stored = _stored(a)
                got = dict(zip(stored.indices, _over_base(stored)))
                lift = level.lift[h - 1]
                lifted = dict(zip(map(lift.__getitem__, tail.indices), tail_values))
                outside = tail_outside or previous_outside
                if not outside:
                    want = dict(lifted)
                    for key, value in previous.items():
                        entry = _combined(combined, h, want.get(key, _F_ZERO), value)
                        if entry.num:
                            want[key] = entry
                        else:
                            want.pop(key, None)
                if outside or want != got:
                    recursion = f"l_{h}(e'_{t})"
                    if h > 1:
                        recursion += f" - (Delta_{h - 2}/Delta_{h - 1}) e'_{h - 1},{t}"
                    raw = dict(zip(stored.indices, stored.values))
                    for i in sorted(got.keys() | lifted.keys() | previous.keys()):
                        key = level.basis[i]
                        operands = (lifted.get(i, _F_ZERO), previous.get(i, _F_ZERO))
                        if None in operands:
                            bad.append(
                                f"e'_{a} on e_{key}: {recursion} reads a coefficient "
                                "outside the Chebyshev factor base"
                            )
                            continue
                        value = _combined(combined, h, *operands)
                        if got.get(i, _F_ZERO) != value:
                            bad.append(
                                f"e'_{a} has {_rational(raw.get(i, _F_ZERO))} != "
                                f"{_from_factored(value)} on e_{key} by {recursion}"
                            )
                previous = got
                previous_outside = stored.outside and None in got.values()
    return bad


def verify_orthogonality(n: int) -> VerificationReport:
    """Exactly verify unitriangularity, downset support, the half-pairing
    triangle, orthogonality, and the diagonal product formula at size n."""
    if n < 1:
        raise ValueError("verification needs n >= 1")
    report = VerificationReport(label=f"verify n={n}")
    basis = _level(n).basis
    size = len(basis)
    rows = [_stored(s) for s in basis]

    # unitriangularity
    start = time.perf_counter()
    # P[a][a], found by a scan of the row's indices
    p_diagonal = [
        _rational(row.values[row.indices.index(i)]) if i in row.indices else RF_ZERO
        for i, row in enumerate(rows)
    ]
    failures = [str(basis[i]) for i, p in enumerate(p_diagonal) if p != RF_ONE]
    report.checks.append(
        CheckResult(
            "unitriangular",
            not failures,
            time.perf_counter() - start,
            f"P[a][a] = 1 for all {size} rows" if not failures else f"bad rows: {failures}",
        )
    )

    # support inside the downset, one guard-bit subtraction per term
    start = time.perf_counter()
    packed, guards = _packed(basis)
    by_position = list(packed.values())
    outside = [
        (i, t)
        for i, row in enumerate(rows)
        for t in _outside_downset(i, row.indices, by_position, guards)
    ]
    support_total = sum(len(row.indices) for row in rows)
    downset_total = sum(_downset_size(b) for b in basis)
    if outside:
        details = "; ".join(f"e'_{basis[i]} contains {basis[t]}" for i, t in outside[:5])
    elif support_total == downset_total:
        # observed strict converse: every downset element carries a nonzero
        # coefficient (reported, not required)
        details = (
            f"{support_total} coefficients inside downsets; support exactly "
            "fills every downset"
        )
    else:
        details = (
            f"{support_total} coefficients inside downsets "
            f"(of {downset_total} downset slots)"
        )
    report.checks.append(
        CheckResult(
            "downset-support",
            not outside,
            time.perf_counter() - start,
            details,
        )
    )

    # half-pairings H[b][a] = <e_b, e'_a> by the recursion.  Links (i) and
    # (ii) make H = G P^T for the stored vectors, by induction on the size:
    # (G P^T)[b][(t,h)] expands through (ii) into pairings <e_b, l_h e_u>,
    # which (i) turns into q^c <tau_h e_b, e_u>, the recursion of H.
    start = time.perf_counter()
    link_bad = _adjunction_mismatches(n) + _recursion_mismatches(n)
    half = _half_pairings(n)
    # rank in the head-major lexicographic order (a_n most significant); it
    # refines the coordinate-wise order
    rank = [0] * size
    for r, i in enumerate(sorted(range(size), key=lambda i: basis[i].head_first)):
        rank[i] = r
    predicted = [predicted_diagonal(s) for s in basis]
    triangle: list[tuple[int, int]] = []  # (b, a) with H[b][a] != 0, b before a
    diagonal_bad: list[str] = []
    for a_idx, column in enumerate(half):
        a_rank = rank[a_idx]
        triangle += [(b_idx, a_idx) for b_idx in column if rank[b_idx] < a_rank]
        got = column.get(a_idx, RF_ZERO)
        want = predicted[a_idx]
        if got != want:
            diagonal_bad.append(f"<e_{basis[a_idx]}, e'_{basis[a_idx]}> = {got} != {want}")
    triangle_bad = [
        f"<e_{basis[b]}, e'_{basis[a]}> = {half[a][b]} (expected 0)" for b, a in triangle
    ]
    bad = link_bad + triangle_bad + diagonal_bad
    report.checks.append(
        CheckResult(
            "half-pairing",
            not bad,
            time.perf_counter() - start,
            f"<e_b, e'_a> = 0 for all {size * (size - 1) // 2} pairs below in the "
            "order, and <e_a, e'_a> matches the Chebyshev product"
            if not bad
            else "; ".join(bad[:5]),
        )
    )

    # orthogonality: every off-diagonal entry of the primed Gram matrix is a
    # finite sum of coefficient * half-pairing terms; expanding through the
    # lex-smaller argument, every term was verified zero above
    start = time.perf_counter()

    def primed_pairing(lo: int, hi: int) -> RationalFunction:
        # <e'_lo, e'_hi> = sum_t P[lo][t] * H[t][hi] over the surviving terms
        coeffs, column = dict(zip(rows[lo].indices, rows[lo].values)), half[hi]
        value = RF_ZERO
        for t in coeffs.keys() & column.keys():
            value = value + _rational(coeffs[t]) * column[t]
        return value

    # A term t of e'_lo inside its downset has rank(t) <= rank(lo), and a
    # nonzero row t of column hi that keeps the triangle has
    # rank(t) >= rank(hi).  So e'_lo and column hi, rank(lo) < rank(hi),
    # share a term only through a term outside its downset or an entry that
    # breaks the triangle: the pairs are found from those alone, and each
    # gets the literal entry the full expansion computes.
    shared: set[tuple[int, int]] = set()
    if outside:
        columns_of: dict[int, list[int]] = {}
        for a_idx, column in enumerate(half):
            for b_idx in column:
                columns_of.setdefault(b_idx, []).append(a_idx)
        for lo, t in outside:
            shared.update((lo, hi) for hi in columns_of.get(t, ()) if rank[lo] < rank[hi])
    if triangle:
        rows_of: dict[int, list[int]] = {}
        for lo, row in enumerate(rows):
            for t in row.indices:
                rows_of.setdefault(t, []).append(lo)
        for t, hi in triangle:
            shared.update((lo, hi) for lo in rows_of.get(t, ()) if rank[lo] < rank[hi])
    ortho_bad: list[str] = []
    for lo, hi in sorted(shared, key=sorted):
        value = primed_pairing(lo, hi)
        if not value.is_zero:
            i, j = sorted((lo, hi))
            for x, y in ((i, j), (j, i)):
                ortho_bad.append(f"<e'_{basis[x]}, e'_{basis[y]}> = {value} (expected 0)")
    report.checks.append(
        CheckResult(
            "orthogonality",
            not ortho_bad,
            time.perf_counter() - start,
            f"all {size * size - size} off-diagonal pairings are exactly 0"
            if not ortho_bad
            else "; ".join(ortho_bad[:5]),
        )
    )

    # diagonal formula; by the same two checks the only term of <e'_a, e'_a>
    # that can survive is P[a][a] * H[a][a], unless a row or a column of a
    # breaks one of them
    start = time.perf_counter()
    broken = {i for i, _ in outside} | {a for _, a in triangle}
    diag_bad: list[str] = []
    for i in range(size):
        if i in broken:
            value = primed_pairing(i, i)
        else:
            p, h = p_diagonal[i], half[i].get(i, RF_ZERO)
            value = h if p == RF_ONE else p * h
        want = predicted[i]
        if value != want:
            diag_bad.append(f"<e'_{basis[i]}, e'_{basis[i]}> = {value} != {want}")
    report.checks.append(
        CheckResult(
            "diagonal-formula",
            not diag_bad,
            time.perf_counter() - start,
            f"all {size} diagonal entries equal the Chebyshev quotient products"
            if not diag_bad
            else "; ".join(diag_bad[:5]),
        )
    )
    return report


# ---------------------------------------------------------------------------
# Determinant oracle.
# ---------------------------------------------------------------------------


def bareiss_det(matrix) -> Polynomial:
    """Exact determinant of a polynomial matrix by fraction-free elimination.

    Accepts a :class:`SquareMatrix` whose entries are polynomials (denominator
    1) or a raw square sequence of :class:`Polynomial` rows.  Each row is
    scaled to integer coefficients by the lcm of its denominators, and the
    matrix is reduced to det = q^shift * det B(q^step) before anything is
    evaluated (:func:`_reduce_powers`); step is 2 when the exponents split
    into row and column parities.  The degree of det B is at most D, the sum
    over rows of the largest entry degree, so B is evaluated at D + 1
    integers centred on 0, each value matrix is reduced by Bareiss
    elimination on plain integers, and the values are interpolated exactly,
    unscaled and spread over the powers q^(shift + step * i).  Every division
    of the elimination is exact; an inexact one raises
    :class:`InternalCheckError`.
    """
    rows = _polynomial_rows(matrix)
    if not rows:
        return ONE
    scale = 1
    int_rows = []
    for row in rows:
        factor = math.lcm(*(c.denominator for p in row for c in p.coeffs))
        scale *= factor
        int_rows.append([[int(c * factor) for c in p.coeffs] for p in row])
    reduced = _reduce_powers(int_rows)
    if reduced is None:
        return ZERO
    int_rows, shift, step = reduced
    degree = sum(max(len(cs) for cs in row) - 1 for row in int_rows)
    low = -(degree // 2)
    points = range(low, low + degree + 1)
    values = [
        _integer_det([[_horner(cs, y) for cs in row] for row in int_rows])
        for y in points
    ]
    coeffs = [Fraction(0)] * (shift + step * degree + 1)
    coeffs[shift::step] = [c / scale for c in _interpolate(points, values)]
    return Polynomial(tuple(coeffs))


def _reduce_powers(
    rows: list[list[list]],
) -> tuple[list[list[list]], int, int] | None:
    """Rows of B, shift and step with det = q^shift * det B(q^step), from
    ascending coefficient lists; None when a row or a column is zero.

    The lowest power of q is pulled out of each row, then of each column.
    If the exponents split into row and column parities
    (:func:`_parity_split`), each entry (a, b) is multiplied by
    q^(sigma_b - rho_a), or by its inverse: an entry of parity 1 has
    rho_a != sigma_b, so every exponent becomes even and none negative.  The
    determinant moves by q^(sum rho - sum sigma) or its inverse, whichever
    is a polynomial, and each entry is read in y = q^2 from ``cs[p::2]``.
    """
    shift = 0
    for _ in range(2):  # rows, then columns: each pass ends transposed
        lows = [
            min((next(i for i, c in enumerate(cs) if c) for cs in row if cs), default=None)
            for row in rows
        ]
        if None in lows:
            return None
        shift += sum(lows)
        rows = [[cs[low:] for cs in row] for row, low in zip(rows, lows)]
        rows = [list(col) for col in zip(*rows)]
    split = _parity_split(rows)
    if split is None:
        return rows, shift, 1
    rho, sigma = split
    sign = 1 if sum(rho) >= sum(sigma) else -1
    shift += sign * (sum(rho) - sum(sigma))
    halved = []
    for row, r in zip(rows, rho):
        out = []
        for cs, s in zip(row, sigma):
            if cs:
                # exponents p + 2i move to p + 2i + sign * (s - r), all even
                p = (r + s) % 2
                pad = 1 if sign * (s - r) > 0 else 0
                cs = [0] * pad + cs[p::2]
            out.append(cs)
        halved.append(out)
    return halved, shift, 2


def _parity_split(rows: list[list[list]]) -> tuple[list[int], list[int]] | None:
    """Row and column parities (rho, sigma) such that every nonzero
    coefficient of entry (a, b) sits at an exponent of parity
    rho[a] + sigma[b], or None if there are none.

    Each row not yet reached gets parity 0 and starts a walk through the rows
    and columns joined to it by nonzero entries.  Every entry is checked when
    its row is taken from the walk: it must have one parity, and that parity
    fixes its column's or must agree with it.
    """
    size = len(rows)
    rho, sigma = [None] * size, [None] * size
    for root in range(size):
        if rho[root] is not None:
            continue
        rho[root], todo = 0, [root]
        while todo:
            a = todo.pop()
            for b, cs in enumerate(rows[a]):
                if not cs:
                    continue
                odd = any(cs[1::2])
                if odd and any(cs[::2]):
                    return None
                if sigma[b] is None:
                    sigma[b] = rho[a] ^ odd
                    for other, row in enumerate(rows):
                        if row[b] and rho[other] is None:
                            rho[other] = sigma[b] ^ any(row[b][1::2])
                            todo.append(other)
                elif sigma[b] != rho[a] ^ odd:
                    return None
    return rho, sigma


def _polynomial_rows(matrix) -> list[list[Polynomial]]:
    if isinstance(matrix, SquareMatrix):
        rows = []
        for row in matrix.entries:
            out = []
            for e in row:
                if not e.is_polynomial:
                    raise ValueError("matrix entries must be polynomials")
                out.append(e.num)
            rows.append(out)
        return rows
    rows = [list(row) for row in matrix]
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix must be square")
    for row in rows:
        for e in row:
            if not isinstance(e, Polynomial):
                raise ValueError("matrix entries must be polynomials")
    return rows


def _integer_det(rows: list[list[int]]) -> int:
    """Bareiss elimination on an integer matrix, one column per step."""
    sign, previous = 1, 1
    while len(rows) > 1:
        k = next((r for r, row in enumerate(rows) if row[0]), None)
        if k is None:
            return 0
        if k:
            rows[0], rows[k] = rows[k], rows[0]
            sign = -sign
        pivot, *top = rows[0]
        reduced = []
        for lead, *rest in rows[1:]:
            row = []
            for a, b in zip(rest, top):
                quotient, remainder = divmod(pivot * a - lead * b, previous)
                if remainder:
                    raise InternalCheckError(
                        "fraction-free elimination hit an inexact division"
                    )
                row.append(quotient)
            reduced.append(row)
        rows, previous = reduced, pivot
    return sign * rows[0][0]


def _interpolate(points: Sequence[int], values: list[int]) -> list[Fraction]:
    """Ascending coefficients of the polynomial of degree < len(points)
    through the values, by Newton divided differences."""
    coef = [Fraction(v) for v in values]
    for k in range(1, len(points)):
        for i in range(len(points) - 1, k - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (points[i] - points[i - k])
    poly: list[Fraction] = []
    for c, x in zip(reversed(coef), reversed(points)):
        # poly <- poly * (q - x) + c
        shifted = [Fraction(0)] + poly
        for i, p in enumerate(poly):
            shifted[i] -= x * p
        shifted[0] += c
        poly = shifted
    return poly


def det_product(n: int) -> RationalFunction:
    """The Gram determinant in product form: the product of the predicted
    diagonal over the whole basis, reduced; always a polynomial."""
    return RationalFunction(_psi_product(_det_exponents(n)), ONE)


def _det_exponents(n: int) -> list[int]:
    """The product of the predicted diagonal over the factor base.

    The net counts of Delta_k may be negative (that of Delta_1 = q is -208
    at n = 8), but a polynomial has no negative exponent over the
    irreducible Psi_d.
    """
    if n < 0:
        raise ValueError("diagram size must be >= 0")
    exponents = _quotient_exponents(a for s in enumerate_diagrams(n) for a in s.entries)
    if any(e < 0 for e in exponents):
        raise InternalCheckError("diagonal product is not a polynomial")
    return exponents


def det_oracle_check(n: int) -> CheckResult:
    """Compare the fraction-free determinant of the Gram matrix with the
    product of predicted diagonal entries."""
    start = time.perf_counter()
    direct = bareiss_det(gram(n))
    product = det_product(n)
    passed = product.is_polynomial and product.num == direct
    details = (
        f"bareiss determinant (degree {direct.degree}) equals the diagonal product"
        if passed
        else f"bareiss {direct} != product {product}"
    )
    return CheckResult("determinant-oracle", passed, time.perf_counter() - start, details)


def det_closed_form_check(n: int) -> CheckResult:
    """Compare the product of the predicted diagonal with the meander closed
    form det G_n = prod_j Delta_j^a(n,j), where
    a(n,j) = C(2n,n-j) - 2C(2n,n-j-1) + C(2n,n-j-2) (Di Francesco, Golinelli
    and Guitter), exponent by exponent over the Psi_d; nothing is expanded."""
    start = time.perf_counter()

    def c(k: int) -> int:
        return math.comb(2 * n, k) if k >= 0 else 0

    closed = [0] * len(_delta_exponents(n))
    for j in range(1, n + 1):
        a = c(n - j) - 2 * c(n - j - 1) + c(n - j - 2)
        for i, e in enumerate(_delta_exponents(j)):
            closed[i] += a * e
    product = _det_exponents(n)
    psi = {i: d for d, i in _PSI_POSITION.items()}
    bad = [
        f"Psi_{psi[i]}: product {x} != closed form {y}"
        for i, (x, y) in enumerate(zip(product, closed))
        if x != y
    ]
    details = (
        f"the diagonal product has the closed form's exponent on each of {len(closed)} Psi_d"
        if not bad
        else "; ".join(bad[:5])
    )
    return CheckResult("det-closed-form", not bad, time.perf_counter() - start, details)


# ---------------------------------------------------------------------------
# Reference bases from the colored trivalent-tree calculus (n = 3).
# ---------------------------------------------------------------------------


def _rf(num: Sequence, den: Sequence = (1,)) -> RationalFunction:
    return RationalFunction(Polynomial(tuple(num)), Polynomial(tuple(den)))


_Z = RF_ZERO
_I = RF_ONE
_INV_Q_NEG = _rf((-1,), (0, 1))  # -1/q
_Q3 = _rf((0, 0, 0, 1))  # q^3
_QD2 = _rf((0, -1, 0, 1))  # q(q^2-1) = (q-1)q(q+1)


@dataclass(frozen=True)
class FixtureBasis:
    """A known diagonalizing basis for n = 3: rows are coordinate vectors in
    the canonical diagram basis, with the asserted diagonal pairings.

    ``errata`` records entries that the source table misprints, each as
    ``(row, column, printed)`` with 1-based row and column; ``matrix`` holds
    the corrected entry.
    """

    name: str
    matrix: tuple[tuple[RationalFunction, ...], ...]
    diagonal: tuple[RationalFunction, ...]
    errata: tuple[tuple[int, int, RationalFunction], ...] = ()

    def as_printed(self) -> "FixtureBasis":
        """The table as its source prints it, with every erratum restored."""
        rows = [list(row) for row in self.matrix]
        for r, c, printed in self.errata:
            rows[r - 1][c - 1] = printed
        return FixtureBasis(self.name, tuple(tuple(row) for row in rows), self.diagonal)


TRIVALENT_FIXTURES: tuple[FixtureBasis, ...] = (
    FixtureBasis(
        name="y",
        matrix=(
            (_I, _Z, _Z, _Z, _Z),
            (_INV_Q_NEG, _Z, _I, _Z, _Z),
            (_INV_Q_NEG, _Z, _Z, _Z, _I),
            (_INV_Q_NEG, _I, _Z, _Z, _Z),
            (_rf((2,), (0, 0, 1)), _INV_Q_NEG, _INV_Q_NEG, _I, _INV_Q_NEG),
        ),
        diagonal=(
            _Q3,
            _QD2,
            _QD2,
            _QD2,
            _rf((2, 0, -3, 0, 1), (0, 1)),  # (q^2-1)(q^2-2)/q
        ),
    ),
    FixtureBasis(
        name="same-side",
        matrix=(
            (_I, _Z, _Z, _Z, _Z),
            (_INV_Q_NEG, _I, _Z, _Z, _Z),
            (_INV_Q_NEG, _Z, _I, _Z, _Z),
            (_rf((1,), (0, 0, 1)), _INV_Q_NEG, _INV_Q_NEG, _I, _Z),
            (
                _rf((0, -1), (-1, 0, 1)),
                _rf((1,), (-1, 0, 1)),
                _rf((1,), (-1, 0, 1)),
                _rf((0, -1), (-1, 0, 1)),
                _I,
            ),
        ),
        diagonal=(
            _Q3,
            _QD2,
            _QD2,
            _rf((1, 0, -2, 0, 1), (0, 1)),  # (q^2-1)^2/q
            _rf((0, -2, 0, 1)),  # q^3 - 2q
        ),
    ),
    FixtureBasis(
        name="opposite-side",
        matrix=(
            (_Z, _Z, _I, _Z, _Z),
            (_I, _Z, _INV_Q_NEG, _Z, _Z),
            (_Z, _Z, _INV_Q_NEG, _I, _Z),
            (_INV_Q_NEG, _I, _rf((1,), (0, 0, 1)), _INV_Q_NEG, _Z),
            (
                _rf((0, -1), (-1, 0, 1)),
                _rf((1,), (-1, 0, 1)),
                _rf((1,), (-1, 0, 1)),
                _rf((0, -1), (-1, 0, 1)),  # -q/(q^2-1); the source prints +q/(q^2-1)
                _I,
            ),
        ),
        diagonal=(
            _Q3,
            _QD2,
            _QD2,
            _rf((1, 0, -2, 0, 1), (0, 1)),
            _rf((0, -2, 0, 1)),
        ),
        errata=((5, 4, _rf((0, 1), (-1, 0, 1))),),
    ),
)


def _fixture_mismatches(
    fixture: FixtureBasis, gram3: SquareMatrix
) -> list[tuple[int, int, RationalFunction, RationalFunction]]:
    rows = [DiagramVector.from_terms(3, zip(gram3.basis, row)) for row in fixture.matrix]
    bad = []
    for a in range(len(fixture.matrix)):
        for b in range(len(fixture.matrix)):
            want = fixture.diagonal[a] if a == b else RF_ZERO
            got = pair_vectors(rows[a], rows[b], gram3)
            if got != want:
                bad.append((a, b, got, want))
    return bad


def _erratum_probe(fixture: FixtureBasis, gram3: SquareMatrix) -> str:
    """Look for a single-entry sign correction that makes the fixture verify;
    strong evidence of a print erratum in the source table."""
    hits = []
    for r in range(len(fixture.matrix)):
        for c in range(len(fixture.matrix)):
            entry = fixture.matrix[r][c]
            if entry.is_zero:
                continue
            rows = [list(row) for row in fixture.matrix]
            rows[r][c] = -entry
            candidate = FixtureBasis(fixture.name, tuple(tuple(x) for x in rows), fixture.diagonal)
            if not _fixture_mismatches(candidate, gram3):
                hits.append(f"negating row {r + 1}, column {c + 1} (= {entry}) verifies exactly")
    if hits:
        return "probable erratum in the source table: " + "; ".join(hits)
    return "no single-entry sign correction reconciles the table"


def check_fixture_bases() -> VerificationReport:
    """Check the three reference bases against the size-3 Gram matrix.

    Each basis must satisfy M * G3 * M^T = diagonal as stated, and the
    same-side basis must coincide with the computed change of basis.  A
    mismatch is reported per entry and flagged as a possible erratum in the
    source table; the report still covers the remaining fixtures.

    A table with recorded errata (the opposite-side one) is also rebuilt as
    printed and diagnosed in its details.  It passes only if the corrected
    table verifies, the printed one does not, and the single-entry sign probe
    pins the printed table's misprint to exactly the recorded entries.
    """

    def flagged(mismatches, probe: str) -> str:
        shown = "; ".join(
            f"entry ({a + 1},{b + 1}) got {got} want {want}"
            for a, b, got, want in mismatches[:4]
        )
        return f"{len(mismatches)} mismatched entries [flagged erratum] {shown}. {probe}"

    report = VerificationReport(label="fixture-bases")
    gram3 = gram(3)
    for fixture in TRIVALENT_FIXTURES:
        start = time.perf_counter()
        mismatches = _fixture_mismatches(fixture, gram3)
        passed = not mismatches
        if mismatches:
            details = flagged(mismatches, _erratum_probe(fixture, gram3))
        else:
            details = "M * G3 * M^T equals the stated diagonal"
        if fixture.errata:
            printed = fixture.as_printed()
            printed_mismatches = _fixture_mismatches(printed, gram3)
            probe = _erratum_probe(printed, gram3)
            pinned = "probable erratum in the source table: " + "; ".join(
                f"negating row {r}, column {c} (= {value}) verifies exactly"
                for r, c, value in fixture.errata
            )
            passed = passed and bool(printed_mismatches) and probe == pinned
            if printed_mismatches:
                details += "; as printed in the source: " + flagged(printed_mismatches, probe)
            else:
                details += "; the table also verifies as printed, so its recorded errata are wrong"
        report.checks.append(
            CheckResult(
                f"fixture-{fixture.name}",
                passed,
                time.perf_counter() - start,
                details,
            )
        )
    start = time.perf_counter()
    same_side = next(f for f in TRIVALENT_FIXTURES if f.name == "same-side")
    computed = change_of_basis(3)
    identical = same_side.matrix == computed.P.entries
    report.checks.append(
        CheckResult(
            "fixture-same-side-equals-P",
            identical,
            time.perf_counter() - start,
            "the same-side basis coincides with the computed change of basis"
            if identical
            else "the same-side fixture differs from the computed change of basis",
        )
    )
    return report
