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

The vectors are built all of one size at once from those one size down.  One
generator (:func:`_walk`) walks this recursion over a level for the builder,
check (ii) and the half-pairing table alike, each computing a coefficient
once per distinct (h, lifted, previous) triple.  The builder and the verifier
read the l_h and tau_h images by index from the per-size tables of
:func:`diagrams._level`, built once per process from the size below.

Since G = L D L^T with P = L^-1 unitriangular, every denominator in P and in
the half-pairings divides a product of the Delta_j, j <= n (the Ko-Smolinsky
determinant structure).  So the builder and the whole verifier compute over
the irreducible factors Psi_d of the Delta_k (``qpoly._Factored``): an
integer numerator over a positive integer and a signed exponent vector,
negative entries being Psi_d powers in the numerator.  A product by the
ratio or by q adds exponent vectors; a difference is reduced by exact
division by the Psi_d that divide it, with no polynomial gcd.

One store holds the only copy of the vectors: each is an ``array('I')`` of
diagram indices with a parallel tuple of shared ``_Factored`` values, keyed
by its sequence.  The builder, check (ii), the downset test and the
orthogonality and diagonal checks read it by index.  The ratio, q and the
predicted diagonal come from their net Psi exponents
(``qpoly._from_exponents``).  Stored rows become dense rows only in
:func:`_checked_rows`, after the verifier's unitriangular and
downset-support checks (:func:`_row_checks`), through a converter called
once per distinct value: :func:`change_of_basis` passes the conversion to
:class:`RationalFunction`, and ``orthogonalize`` its renderer.  Elsewhere
values cross to :class:`RationalFunction` only in :func:`orthogonal_vector`
and where a failure message or the text and CSV output of ``orthogonalize``
prints one.  A passing check converts none, and neither does the JSON
output of ``orthogonalize``, which reads ``qpoly._expanded``.

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
subtraction; the downset slots it reports are counted once per size, over
the last entries of the pairs a <= b.  The orthogonality and diagonal
checks share one rule: an entry of the primed Gram matrix can differ from
its value on a passing run only if its row fails a row check or its column
breaks the triangle, so only the entries that touch such a row or column
are expanded, and on a passing run none is.  The predicted
diagonal is one exponent vector over the Psi_d.

:func:`bareiss_det` provides the independent determinant oracle, and
:func:`det_product` the predicted product form; their exact agreement
cross-checks the diagonalization against the Gram determinant.  The oracle
first checks on every entry that G is invariant under the mirror and the
half-turn of the disk, and splits it into four blocks, one per character
of the Klein four-group they generate (16/10/10/6 at size 5); det G is the
product of the block determinants.  Every loop
count satisfies c(a, b) = c(a, 0) + c(0, b) + c(0, 0) (mod 2), so
G(q) = diag(q^rho) B(q^2) diag(q^sigma); the oracle finds this split by
testing every entry and works over y = q^2, at half the degree.  It
eliminates at integer points modulo one Mersenne prime above twice the
Goldstein-Graham bound on the coefficients of det B, interpolates modulo
the prime and lifts to balanced residues; a lifted coefficient beyond the
bound is an internal error.
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
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .diagrams import RestrictedSequence, _heads, _Level, _level, enumerate_diagrams
from .markov import (
    DiagramVector,
    SquareMatrix,
    _json_rows,
    _symmetries,
    gram,
    gram_exponents,
    pair_vectors,
)
from .qpoly import (
    _F_ONE,
    _F_ZERO,
    _PSI_POSITION,
    ONE,
    RF_ONE,
    RF_ZERO,
    ZERO,
    Polynomial,
    RationalFunction,
    _delta_exponents,
    _Factored,
    _from_exponents,
    _from_factored,
    _horner,
    _psi_power,
    _psi_product,
    _to_factored,
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
    order, and the parallel coefficients, shared ``_Factored`` objects.  The
    builder and :func:`_store_vector` write no other value."""

    indices: array
    values: tuple


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
            vec = DiagramVector(s.size, dict(zip(terms, map(_from_factored, stored.values))))
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
    """Write vec into the store as e'_s, replacing what is there; the
    vectors built later in the level of s are built from it.

    The factor base is grown through Delta_{s.size} and each coefficient is
    translated to it.  A vector of another size than s, or a coefficient
    whose denominator does not factor over the base, raises ValueError and
    leaves the store as it was.
    """
    if vec.size != s.size:
        raise ValueError(f"a vector of size {vec.size} cannot be stored as e'_{s}")
    _delta_exponents(s.size)
    values = []
    for key, value in vec.coeffs.items():
        factored = _to_factored(value)
        if factored is None:
            raise ValueError(
                f"coefficient {value} of e_{key} in e'_{s} has a denominator "
                "outside the Chebyshev factor base"
            )
        values.append(factored)
    index = _level(s.size).index
    stored = _Stored(array("I", map(index.__getitem__, vec.coeffs)), tuple(values))
    with _VECTOR_LOCK:
        _VECTOR_CACHE[s.entries] = stored
        _WRAPPED.pop(s.entries, None)


# index 0 with coefficient 1: e'_() = e_() and e'_(1) = e_(1)
_UNIT = _Stored(array("I", [0]), (_F_ONE,))


def _build_level(k: int) -> None:
    """Store e'_(t,h) for every diagram (t,h) of size k.

    The level is walked (:func:`_walk`) with each e'_t one size down pushed
    through the lift table (:func:`_lift`), each coefficient computed over
    the factor base once per distinct (h, lifted, previous) triple.  The
    columns go into the store as they are; no RationalFunction is made.  The
    empty diagram's e'_() is e_().  A vector already in the store is kept,
    and the vectors built after it in the level are built from it.
    """
    below, level = _level(k - 1), _level(k)
    _delta_exponents(k)  # the factor base holds every Psi_d of Delta_1..Delta_k
    tails = [_stored(t) if t.size else _UNIT for t in below.basis]
    # the coefficients repeat: the 40,898 terms of size 7 hold 2,974 triples.
    # Seeded with the values one size down, so equal values of the level are
    # one object too (:func:`_combined`)
    combined: dict = {v: v for tail in tails for v in tail.values}
    for a, column in zip(level.basis, _walk(combined, zip(below.basis, tails), _lift(level))):
        stored = _Stored(array("I", column), tuple(column.values()))
        kept = _VECTOR_CACHE.setdefault(a.entries, stored)
        if kept is not stored:
            column.clear()
            column.update(zip(kept.indices, kept.values))


def _lift(level: _Level) -> Callable[[int, _Stored], dict[int, _Factored]]:
    """The push of the builder and check (ii): a stored vector moved up by l_h
    through the lift table of level, keyed by diagram index."""
    return lambda h, tail: dict(zip(map(level.lift[h - 1].__getitem__, tail.indices), tail.values))


def _memo_sizes() -> dict[str, int]:
    """Entries held by each process-wide memo."""
    return {
        "vectors": len(_VECTOR_CACHE),
        "wrapped": len(_WRAPPED),
        "levels": _level.cache_info().currsize,
        "from_factored": _from_factored.cache_info().currsize,
        "psi_products": _psi_power.cache_info().currsize,
    }


def _clear_memos() -> None:
    """Drop the vector store and its wrappers, the level tables (and the
    enumeration they hold), the RationalFunctions of the factor-base values
    and the Psi products.

    The factor base itself stays, so its positions stay stable.
    """
    with _VECTOR_LOCK:
        _VECTOR_CACHE.clear()
        _WRAPPED.clear()
        _level.cache_clear()
        _from_factored.cache_clear()
        _psi_power.cache_clear()


def predicted_diagonal(s: RestrictedSequence) -> RationalFunction:
    """The predicted self-pairing: the product of Delta_{a_i}/Delta_{a_i-1},
    the value of :func:`_predicted` as a reduced quotient."""
    return _from_factored(_predicted(s))


def _predicted(s: RestrictedSequence) -> _Factored:
    """The predicted self-pairing over the factor base, from its net exponents."""
    return _from_exponents(_quotient_exponents(s.entries))


def _quotient_exponents(entries: Iterable[int]) -> list[int]:
    """The product of Delta_a/Delta_{a-1} over entries a, as net exponents over
    the factor base: each Delta_k, k from 1 to the largest entry, counts once
    per entry k and minus once per entry k + 1."""
    counts: dict[int, int] = {}
    for a in entries:
        counts[a] = counts.get(a, 0) + 1
    top = max(counts, default=0)
    exponents = [0] * len(_delta_exponents(top))
    for k in range(1, top + 1):
        net = counts.get(k, 0) - counts.get(k + 1, 0)
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


def _checked_rows(n: int, convert: Callable[[_Factored], object]) -> tuple[tuple, Iterator[list]]:
    """The basis of size n and the rows of P in basis order, as dense lists of
    convert(coefficient), one row at a time.  Each distinct coefficient, zero
    included, is converted once, and each row is the zero's conversion with
    the store's nonzero entries set by index.

    The rows pass the verifier's unitriangular and downset-support checks
    (:func:`_row_checks`) before returning; the first that fails raises
    :class:`InternalCheckError` with its name and details, since a failure
    signals an implementation bug, never expected data.
    """
    if n < 1:
        raise ValueError("change of basis needs n >= 1")
    basis = _level(n).basis
    rows = [_stored(s) for s in basis]
    for check in _row_checks(basis, rows)[0]:
        if not check.passed:
            raise InternalCheckError(f"{check.name}: {check.details}")
    converted = {_F_ZERO: convert(_F_ZERO)}

    def dense(stored: _Stored) -> list:
        row = [converted[_F_ZERO]] * len(basis)
        for i, value in zip(stored.indices, stored.values):
            entry = converted.get(value)
            if entry is None:
                entry = converted[value] = convert(value)
            row[i] = entry
        return row

    return basis, map(dense, rows)


def _coefficient(row: _Stored, i: int) -> _Factored:
    """The coefficient of diagram i in a stored vector, by a scan of its indices."""
    return row.values[row.indices.index(i)] if i in row.indices else _F_ZERO


def change_of_basis(n: int) -> OrthoBasis:
    """Stack the orthogonal vectors over the canonical basis order.

    The rows of P are the checked rows (:func:`_checked_rows`) with each
    coefficient a RationalFunction; rows that fail a check raise
    :class:`InternalCheckError` first.  This dense form is the public data
    API and the tests' reference; the ``orthogonalize`` command renders the
    checked rows without building it.
    """
    basis, rows = _checked_rows(n, _from_factored)
    P = SquareMatrix(basis, tuple(map(tuple, rows)))
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


def _downset_pairs(n: int) -> int:
    """The number of pairs a <= b of diagrams of size n, the sum of the
    downset sizes: both sequences grow together, one entry at a time, and
    the pairs of prefixes are counted by their last entries (a_i, b_i)."""
    counts = {(1, 1): 1}
    for _ in range(n - 1):
        grown: dict[tuple[int, int], int] = {}
        for (u, w), c in counts.items():
            for x in range(1, w + 2):
                for v in range(1, min(u + 1, x) + 1):
                    grown[v, x] = grown.get((v, x), 0) + c
        counts = grown
    return sum(counts.values())


def _packed(basis: Sequence[RestrictedSequence]) -> tuple[list[int], int]:
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
    packed = [sum(a << (stride * i) for i, a in enumerate(s.entries)) for s in basis]
    return packed, guards


def _outside_downset(b: int, terms: Sequence[int], packed: list[int], guards: int) -> list[int]:
    """The basis positions t in terms with t <= b false, in order, by one
    guard-bit subtraction per term (:func:`_packed`); b is a basis position
    too.  terms is read twice when one is found."""
    top = packed[b] | guards
    gaps = map(top.__sub__, map(packed.__getitem__, terms))
    if functools.reduce(operator.and_, gaps, guards) == guards:
        return []
    return [t for t in terms if (top - packed[t]) & guards != guards]


def _row_checks(
    basis: Sequence[RestrictedSequence], rows: Sequence[_Stored]
) -> tuple[list[CheckResult], set[int]]:
    """The two checks of the stored rows of P, each identity evaluated once:
    ``unitriangular`` (P[a][a] = 1) and ``downset-support`` (every term of
    e'_a lies in the downset of a), and the basis positions of the rows that
    fail either.  A row that passes both has P[a][a] = 1 and no term ranked
    after a in the head-major order.  With no term outside, the details say
    whether the support fills every downset (:func:`_downset_pairs`).
    """
    start = time.perf_counter()
    failures = [i for i, row in enumerate(rows) if _coefficient(row, i) != _F_ONE]
    unitriangular = CheckResult(
        "unitriangular",
        not failures,
        time.perf_counter() - start,
        f"bad rows: {[str(basis[i]) for i in failures]}"
        if failures
        else f"P[a][a] = 1 for all {len(basis)} rows",
    )

    # one guard-bit subtraction per term
    start = time.perf_counter()
    packed, guards = _packed(basis)
    outside = [
        (i, t)
        for i, row in enumerate(rows)
        for t in _outside_downset(i, row.indices, packed, guards)
    ]
    support_total = sum(len(row.indices) for row in rows)
    downset_total = _downset_pairs(len(basis[0].entries))
    if outside:
        details = "; ".join(f"e'_{basis[i]} contains {basis[t]}" for i, t in outside[:5])
    else:
        # observed strict converse: every downset element carries a nonzero
        # coefficient (reported, not required)
        details = f"{support_total} coefficients inside downsets" + (
            "; support exactly fills every downset"
            if support_total == downset_total
            else f" (of {downset_total} downset slots)"
        )
    support = CheckResult("downset-support", not outside, time.perf_counter() - start, details)
    return [unitriangular, support], {*failures, *(i for i, _ in outside)}


@functools.cache
def _ratio(h: int) -> _Factored:
    """Delta_{h-2}/Delta_{h-1}, the coefficient of e'_(t,h-1) in e'_(t,h):
    the inverse of the quotient of the entry h - 1."""
    return _from_exponents([-e for e in _quotient_exponents((h - 1,))])


def _combined(
    memo: dict[tuple[int, _Factored, _Factored], _Factored],
    h: int,
    lifted: _Factored,
    previous: _Factored,
) -> _Factored:
    """lifted - (Delta_{h-2}/Delta_{h-1}) * previous, computed once per
    distinct (h, lifted, previous) triple in ``memo``.

    ``memo`` also maps each result to itself, so equal results of different
    triples are one object; a triple starts with an int and a value with a
    tuple, so the two kinds of key never meet.
    """
    terms = (h, lifted, previous)
    value = memo.get(terms)
    if value is None:
        value = lifted.minus(_ratio(h).times(previous))
        value = memo[terms] = memo.setdefault(value, value)
    return value


def _walk(memo: dict, tails: Iterable[tuple], push: Callable) -> Iterator[dict[int, _Factored]]:
    """The paper's recursion over one level, in basis order: for each
    (t, tail) pair and each head h of t, the column push(h, tail) minus
    (Delta_{h-2}/Delta_{h-1}) times the column of (t, h - 1), entry by entry
    through :func:`_combined` with the caller's own memo, the entries that
    cancel dropped.  A column is the next head's previous as the caller
    leaves it after the yield, and only one tail's columns are held."""
    for t, tail in tails:
        previous: dict[int, _Factored] = {}
        for h in _heads(t):
            column = push(h, tail)
            for key, value in previous.items():
                entry = _combined(memo, h, column.get(key, _F_ZERO), value)
                if entry.num:
                    column[key] = entry
                else:
                    column.pop(key, None)
            yield column
            previous = column


def _half_pairings(n: int) -> list[dict[int, _Factored]]:
    """The half-pairings H[b][a] = <e_b, e'_a> over enumerate_diagrams(n), as
    sparse columns: column a maps the index of each b with H[b][a] != 0 to
    the entry.

    The recursion of e'_(t,h), pushed through the adjunction
    <e_b, l_h x> = q^c <tau_h e_b, x>, gives each entry in O(1) field
    operations from the level below, starting at H_0 = [[1]]:

        H_k[b][(t,h)] = q^c(b,h) H_{k-1}[tau_h b][t]
                        - (Delta_{h-2}/Delta_{h-1}) H_k[b][(t,h-1)].

    Each level is walked (:func:`_walk`) with column t pushed through the
    tau_h preimages.  No vector and no Gram entry is read;
    :func:`verify_orthogonality` certifies that the result equals G P^T for
    the stored vectors.  The entries are over the factor base.
    """
    q = _from_exponents(_delta_exponents(1))
    # the entries repeat, so each field operation is done once per operands
    raised = functools.cache(lambda value: value.times(q))
    combined: dict[tuple[int, _Factored, _Factored], _Factored] = {}
    columns: list[dict[int, _Factored]] = [{0: _F_ONE}]
    for k in range(1, n + 1):
        below, level = _level(k - 1).basis, _level(k)
        preimages: list[list[list[tuple[int, int]]]] = [[[] for _ in below] for _ in range(k)]
        for b, row in enumerate(level.contract):
            for h, (u, loops) in enumerate(row):
                preimages[h][u].append((b, loops))

        def push(h: int, lower: dict[int, _Factored]) -> dict[int, _Factored]:
            column = {}
            for u, value in lower.items():
                for b, loops in preimages[h - 1][u]:
                    column[b] = raised(value) if loops else value
            return column

        columns = list(_walk(combined, zip(below, columns), push))
    return columns


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

    Each level is walked (:func:`_walk`) over the factor base with its own
    memo of combined triples, and each column is compared with the stored
    vector as a whole.  Only a vector that differs is compared term by term,
    in basis order, for the report; the stored vector then stands in the
    column, so the next head is checked against it.  The stored e'_(1) is
    wrapped only when it is not e_(1).
    """
    bad = []
    _delta_exponents(n)  # the factor base holds every Psi_d of Delta_1..Delta_n
    # the coefficients repeat: at n = 7 the 46,312 terms hold 3,888 distinct
    # (h, lifted, previous) triples
    combined: dict[tuple[int, _Factored, _Factored], _Factored] = {}
    first = RestrictedSequence((1,))
    if _stored(first) != _UNIT:
        bad.append(f"e'_{first} = {orthogonal_vector(first)} != e_{first}")
    for k in range(2, n + 1):
        below, level = _level(k - 1).basis, _level(k)
        tails = zip(below, map(_stored, below))
        for a, want in zip(level.basis, _walk(combined, tails, _lift(level))):
            stored = _stored(a)
            got = dict(zip(stored.indices, stored.values))
            if want != got:
                h, t = a.entries[-1], RestrictedSequence(a.entries[:-1])
                recursion = f"by l_{h}(e'_{t})"
                if h > 1:
                    recursion += f" - (Delta_{h - 2}/Delta_{h - 1}) e'_{h - 1},{t}"
                for i in sorted(got.keys() | want.keys()):
                    x, y = got.get(i, _F_ZERO), want.get(i, _F_ZERO)
                    if x != y:
                        bad.append(f"e'_{a} has {x} != {y} on e_{level.basis[i]} {recursion}")
                want.clear()
                want.update(got)
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
    row_checks, broken = _row_checks(basis, rows)
    report.checks += row_checks

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
    predicted = [_predicted(s) for s in basis]
    triangle: list[tuple[int, int]] = []  # (b, a) with H[b][a] != 0, b before a
    diagonal_bad: list[str] = []
    for a_idx, column in enumerate(half):
        a_rank = rank[a_idx]
        triangle += [(b_idx, a_idx) for b_idx in column if rank[b_idx] < a_rank]
        got = column.get(a_idx, _F_ZERO)
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

    # Expand every entry of the primed Gram matrix through the lex-smaller
    # index: <e'_lo, e'_hi> = sum_t P[lo][t] H[t][hi].  A row that passes the
    # row checks has P[lo][lo] = 1 and no term ranked after lo, and a column
    # that keeps the triangle has no nonzero row ranked before hi.  So an
    # entry can differ from its value on a passing run (0 off the diagonal,
    # H[a][a] on it) only if its row or its column is broken: those entries
    # alone get the literal sum, which the full expansion computes.
    start = time.perf_counter()
    broken.update(a for _, a in triangle)

    @functools.cache
    def terms(i: int) -> dict[int, _Factored]:
        return dict(zip(rows[i].indices, rows[i].values))

    def primed_pairing(lo: int, hi: int) -> _Factored:
        # <e'_lo, e'_hi> = 0 - (0 - sum_t P[lo][t] * H[t][hi]), t surviving
        coeffs, column = terms(lo), half[hi]
        negated = _F_ZERO
        for t in coeffs.keys() & column.keys():
            negated = negated.minus(coeffs[t].times(column[t]))
        return _F_ZERO.minus(negated)

    ortho_bad: list[str] = []
    pairs = {(min(b, c), max(b, c)) for b in broken for c in range(size) if c != b}
    for i, j in sorted(pairs):
        value = primed_pairing(*sorted((i, j), key=rank.__getitem__))
        if value.num:
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

    # diagonal formula: H[a][a] unless the row or the column of a is broken
    start = time.perf_counter()
    diag_bad: list[str] = []
    for i in range(size):
        value = primed_pairing(i, i) if i in broken else half[i].get(i, _F_ZERO)
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
    """Exact determinant of a polynomial matrix by elimination modulo one
    Mersenne prime.

    Accepts a :class:`SquareMatrix` whose entries are polynomials (denominator
    1) or a raw square sequence of :class:`Polynomial` rows.  Each row is
    scaled to integer coefficients by the lcm of its denominators, and the
    matrix is reduced to det = q^shift * det B(q^step) before anything is
    evaluated (:func:`_reduce_powers`); step is 2 when the exponents split
    into row and column parities.  By the Goldstein-Graham bound every
    coefficient c of det B has c^2 <= prod_a sum_b |B_ab|_1^2, where
    |B_ab|_1 is the sum of the absolute coefficients of the entry, and the
    degree of det B is at most D, the sum over rows of the largest entry
    degree.  So det B is determined by its residues modulo the least
    Mersenne prime P = 2^p - 1 of a fixed table with P > 2 * bound and
    P > D: B is evaluated at y = 0..D mod P, each value matrix is reduced by
    Gaussian elimination mod P (:func:`_det_mod`), the values are
    interpolated mod P (:func:`_interpolate_mod`) and lifted to balanced
    residues, unscaled and spread over the powers q^(shift + step * i).  A
    lifted coefficient beyond the bound raises :class:`InternalCheckError`;
    a bound beyond the table raises :class:`ValueError`.  On a 2-vCPU VM the
    whole Gram matrix of size 5 (a 114-bit bound, P = 2^127 - 1) takes about
    0.2 s and that of size 6 (465 bits, P = 2^521 - 1) 16-19 s; the oracle
    passes it the four symmetry blocks instead (:func:`det_oracle_check`).
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
    bound_sq = math.prod(
        sum(sum(map(abs, cs)) ** 2 for cs in row) for row in int_rows
    )
    prime = _mersenne_prime(bound_sq, degree)
    # each distinct entry is evaluated once per point
    distinct: dict[tuple, int] = {}
    index_rows = [
        [distinct.setdefault(tuple(cs), len(distinct)) for cs in row] for row in int_rows
    ]
    entries = list(distinct)
    values = []
    for y in range(degree + 1):
        at_y = [_horner(cs, y) % prime for cs in entries]
        values.append(_det_mod([[at_y[i] for i in row] for row in index_rows], prime))
    half = prime // 2
    coeffs = [0] * (shift + step * degree + 1)
    lifted = []
    for c in _interpolate_mod(values, prime):
        c = c - prime if c > half else c
        if c * c > bound_sq:
            raise InternalCheckError(
                "modular determinant coefficient exceeds the Goldstein-Graham bound"
            )
        lifted.append(Fraction(c, scale))
    coeffs[shift::step] = lifted
    return Polynomial(tuple(coeffs))


# Exponents p of Mersenne primes 2^p - 1; the oracle takes the least that
# clears its coefficient bound (114 bits at n = 5 selects 127).
_MERSENNE_EXPONENTS = (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423)


def _mersenne_prime(bound_sq: int, degree: int) -> int:
    """The least tabulated Mersenne prime P with P^2 > 4 * bound_sq, so the
    balanced residues mod P cover every integer of square at most bound_sq,
    and P > degree, so the points 0..degree are distinct mod P."""
    for p in _MERSENNE_EXPONENTS:
        prime = (1 << p) - 1
        if prime * prime > 4 * bound_sq and prime > degree:
            return prime
    raise ValueError(
        f"determinant coefficient bound of {(bound_sq.bit_length() + 1) // 2} bits "
        f"exceeds the largest tabulated Mersenne prime 2^{_MERSENNE_EXPONENTS[-1]} - 1"
    )


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


def _det_mod(rows: list[list[int]], prime: int) -> int:
    """Determinant mod prime of a matrix of residues, by Gaussian
    elimination with a pivot search, one column per step."""
    # each row reversed, so the column eliminated next is popped off its end
    rows = [row[::-1] for row in rows]
    det = 1
    while rows:
        k = next((r for r, row in enumerate(rows) if row[-1]), None)
        if k is None:
            return 0
        if k:
            rows[0], rows[k] = rows[k], rows[0]
            det = -det
        top = rows[0]
        pivot = top.pop()
        det = det * pivot % prime
        inverse = pow(pivot, -1, prime)
        rows = rows[1:]
        for i, row in enumerate(rows):
            lead = row.pop()
            if lead:
                f = lead * inverse % prime
                rows[i] = [(a - f * b) % prime for a, b in zip(row, top)]
    return det


def _interpolate_mod(values: list[int], prime: int) -> list[int]:
    """Ascending coefficients mod prime of the polynomial of degree
    < len(values) through the values at 0, 1, ..., by Newton divided
    differences; the points k apart differ by k, so dividing by k is a
    multiplication by its inverse."""
    count = len(values)
    coef = list(values)
    for k in range(1, count):
        inverse = pow(k, -1, prime)
        for i in range(count - 1, k - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) * inverse % prime
    poly: list[int] = []
    for x in range(count - 1, -1, -1):
        # poly <- poly * (y - x) + coef[x]
        shifted = [0] + poly
        for i, p in enumerate(poly):
            shifted[i] = (shifted[i] - x * p) % prime
        shifted[0] = (shifted[0] + coef[x]) % prime
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


def _symmetry_blocks(rows: list[list], sigma: Sequence[int], rho: Sequence[int]) -> list:
    """The blocks of a matrix invariant under the commuting involutions sigma
    and rho of its indices, one for each character chi of the Klein
    four-group H = {1, sigma, rho, sigma rho}.

    Block chi is indexed by the H-orbits O whose stabilizer lies in the
    kernel of chi, with entry sum_{b in O'} chi(h_b) G[a_O][b], where a_O is
    the least index of O and h_b maps the least index of O' to b.  Over the
    basis S of the signed orbit sums, S^-1 G S is the direct sum of the
    blocks, so det G is the product of their determinants.
    """
    # the least index of each orbit -> (its points b with an h_b, stabilizer);
    # chi(h_b) does not depend on the choice of h_b where chi is used
    orbits = {}
    for a in range(len(rows)):
        images = (a, sigma[a], rho[a], sigma[rho[a]])
        if min(images) == a:
            points = {b: h for h, b in enumerate(images)}
            orbits[a] = points.items(), [h for h, b in enumerate(images) if b == a]
    blocks = []
    for chi in ((1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1)):
        kept = [(a, pts) for a, (pts, fixed) in orbits.items() if all(chi[h] > 0 for h in fixed)]
        block = []
        for a, _ in kept:
            row, out = rows[a], []
            for _, points in kept:
                total = ZERO
                for b, h in points:
                    total = total + row[b] if chi[h] > 0 else total - row[b]
                out.append(total)
            block.append(out)
        blocks.append(block)
    return blocks


def det_oracle_check(n: int) -> CheckResult:
    """Compare the modular determinant of the Gram matrix with the product
    of predicted diagonal entries.

    The mirror and the half-turn of the disk (:func:`markov._symmetries`)
    are commuting involutions of the diagrams.  G[g a][g b] = G[a][b] is
    checked for both on every entry, and a failure fails the check; then
    det G is the product of :func:`bareiss_det` over the four blocks of
    :func:`_symmetry_blocks`.  At size 6 the blocks are 48/28/28/28, at most
    121 points modulo 2^521 - 1 in place of 331, and the check takes about
    1.4 s in one process on a 2-vCPU VM (16-19 s on the whole matrix).
    """
    start = time.perf_counter()
    matrix = gram(n)
    rows, basis = _polynomial_rows(matrix), matrix.basis
    perms = _symmetries(_level(n).partners)
    # only the identity for a single diagram
    sigma, rho = (perms[2 * n], perms[n]) if len(perms) > 1 else perms * 2
    for name, g in (("mirror", sigma), ("half-turn", rho)):
        for a, row in enumerate(rows):
            moved = rows[g[a]]
            if [moved[j] for j in g] != row:
                b = next(b for b, x in enumerate(row) if moved[g[b]] != x)
                details = (
                    f"the Gram matrix is not invariant under the {name}: "
                    f"<e_{basis[a]}, e_{basis[b]}> = {row[b]} != {moved[g[b]]} = "
                    f"<e_{basis[g[a]]}, e_{basis[g[b]]}>"
                )
                return CheckResult(
                    "determinant-oracle", False, time.perf_counter() - start, details
                )
    direct = math.prod(map(bareiss_det, _symmetry_blocks(rows, sigma, rho)), start=ONE)
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
