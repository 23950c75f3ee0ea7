"""The Markov bilinear form on chord diagrams.

Gluing a diagram to the mirror image of another closes the arcs into circles;
the pairing of the two diagrams is q**c where c counts those circles.  Every
point of 1..2n then carries exactly two arc-ends (one from each diagram), so
each circle alternates arcs of the two diagrams and is counted by walking it
once (:func:`_circles`).

The form extends bilinearly to formal combinations of diagrams
(:class:`DiagramVector`) with coefficients in Q(q), and is tabulated over the
canonical diagram basis as a Gram matrix (:class:`SquareMatrix`).  Key
operator identities, exercised by the property suite:

* <l_k a, l_k b> = q * <a, b>          (parallel insertion adds one circle)
* <l_{k+1} a, l_k b> = <a, b>          (staggered insertion adds none)
* q**c * <tau_k a, b> = <a, l_k b>     (adjunction; c from :func:`contract`)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from types import MappingProxyType, SimpleNamespace
from typing import Iterable, Iterator, Mapping, Union

from .diagrams import (
    Matching,
    RestrictedSequence,
    _level,
    _partners,
    enumerate_diagrams,
    insert_arc,
    matching_to_seq,
    seq_to_matching,
)
from .qpoly import RF_ONE, RF_ZERO, Polynomial, RationalFunction, _coerce_ratfun

Scalar = Union[int, Fraction, Polynomial, RationalFunction]

__all__ = [
    "PairingValue",
    "DiagramVector",
    "SquareMatrix",
    "pair_diagrams",
    "gram",
    "gram_exponents",
    "pair_vectors",
]


@dataclass(frozen=True)
class PairingValue:
    """The monomial q**exponent produced by pairing two diagrams."""

    exponent: int

    def __post_init__(self) -> None:
        if self.exponent < 0:
            raise ValueError("pairing exponent must be >= 0")

    @property
    def monomial(self) -> Polynomial:
        return Polynomial.monomial(self.exponent)

    @property
    def as_rational(self) -> RationalFunction:
        return RationalFunction.from_polynomial(self.monomial)

    def __str__(self) -> str:
        return str(self.monomial)


def _circles(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """The circles of a glued to the mirror of b, given as 0-based partner
    tuples: each circle alternates an arc of a and an arc of b, and is walked
    once."""
    seen = [False] * len(a)
    circles = 0
    # enumerate reads each flag when it reaches it, after earlier walks
    for start, done in enumerate(seen):
        if done:
            continue
        circles += 1
        x = start
        while not seen[x]:
            y = a[x]
            seen[x] = seen[y] = True
            x = b[y]
    return circles


def pair_diagrams(a: Matching, b: Matching) -> PairingValue:
    """Count the circles of the glued configuration of a and the mirror of b.

    Symmetric in its arguments; a diagram paired with itself gives q**n.
    """
    if a.size != b.size:
        raise ValueError(f"size mismatch: {a.size} vs {b.size}")
    circles = _circles(_partners(a), _partners(b))
    assert circles <= a.size
    return PairingValue(circles)


def gram_exponents(n: int) -> tuple[tuple[int, ...], ...]:
    """Pairing exponents over enumerate_diagrams(n); the fast integer form of
    the Gram matrix used by verification and the determinant oracle.  The
    diagrams are read as the partner tuples of the level table of size n
    (:func:`diagrams._level`), built once per process.

    Conjugating both matchings of a glued pair by one permutation of the 2n
    points keeps the circle count, and a rotation or a reflection of the
    points (closed into a circle) maps diagrams to diagrams.  So
    G[g a][g b] = G[a][b] for every g of the dihedral group of order 4n
    (:func:`_symmetries`): one row per orbit is walked with :func:`_circles`,
    and every other row of the orbit is gathered from it.  For the pairs it
    does not walk, the table rests on that rotation and reflection lemma;
    the tests compare it with the full walk on every pair for n <= 7.
    """
    partners = _level(n).partners
    rows: list[tuple[int, ...] | None] = [None] * len(partners)
    symmetries = _symmetries(partners)
    # row g a at j is row a at g^-1 j: a gather through the inverse permutation
    gathers = [
        (perm, itemgetter(*sorted(range(len(perm)), key=perm.__getitem__)))
        for perm in symmetries
    ]
    for a, walked in enumerate(partners):
        if rows[a] is None:
            row = rows[a] = tuple([_circles(walked, b) for b in partners])
            for perm, gather in gathers:
                if rows[perm[a]] is None:
                    rows[perm[a]] = gather(row)
    return tuple(rows)


def _symmetries(partners: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The dihedral group of the 2n points, closed into a circle, as
    permutations of the diagrams: entry i of each is the index of the image
    of partners[i].  Entry n is the half-turn x -> x + n and entry 2n the
    mirror x -> 2n - 1 - x.  Only the identity for fewer than two diagrams."""
    identity = tuple(range(len(partners)))
    if len(partners) < 2:
        return [identity]
    index = {p: i for i, p in enumerate(partners)}
    points = len(partners[0])
    # the image of a matching p under a point map g has partner g(p(g^-1 x)) at x
    step = tuple(range(1, points)) + (0,)  # x -> x + 1 (mod 2n)
    mirror = tuple(range(points - 1, -1, -1))  # x -> 2n - 1 - x
    rotate = tuple(index[itemgetter(*(p[-1:] + p[:-1]))(step)] for p in partners)
    reflect = tuple(index[itemgetter(*p[::-1])(mirror)] for p in partners)
    rotations = [identity]
    for _ in range(points - 1):
        rotations.append(itemgetter(*rotations[-1])(rotate))
    return rotations + [itemgetter(*perm)(reflect) for perm in rotations]


def _json_rows(rows: Iterable[Iterable[RationalFunction]]) -> list[list[dict]]:
    """The to_json() of every entry, one dict object per distinct value
    shared by every entry that holds it: at size 8 the Gram matrix's
    2,044,900 entries are then 16 MB of references to at most nine dicts,
    where a dict per entry would take about 2 GB."""
    by_value: dict[RationalFunction, dict] = {}
    # entries are few objects and hashing one is slow, so look up by id first;
    # holding the entry keeps its id from being reused
    by_id: dict[int, tuple[RationalFunction, dict]] = {}
    out = []
    for row in rows:
        json_row = []
        for e in row:
            seen = by_id.get(id(e))
            if seen is None:
                d = by_value.get(e)
                if d is None:
                    d = by_value[e] = e.to_json()
                seen = by_id[id(e)] = (e, d)
            json_row.append(seen[1])
        out.append(json_row)
    return out


@dataclass(frozen=True)
class SquareMatrix:
    """A square matrix over Q(q) indexed by an ordered diagram basis."""

    basis: tuple[RestrictedSequence, ...]
    entries: tuple[tuple[RationalFunction, ...], ...]

    def __post_init__(self) -> None:
        basis = tuple(self.basis)
        entries = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "entries", entries)
        if len(entries) != len(basis) or any(len(r) != len(basis) for r in entries):
            raise ValueError("entries must be square over the basis")

    @property
    def size(self) -> int:
        return len(self.basis)

    def to_json(self, n: int | None = None) -> dict:
        obj = {
            "basis": [list(s.head_first) for s in self.basis],
            "entries": _json_rows(self.entries),
        }
        if n is not None:
            obj["n"] = n
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "SquareMatrix":
        basis = tuple(
            RestrictedSequence.from_head_first(vals) for vals in obj["basis"]
        )
        entries = tuple(
            tuple(RationalFunction.from_json(e) for e in row)
            for row in obj["entries"]
        )
        return cls(basis, entries)

    def to_csv(self) -> str:
        """Rows of rendered entries, labeled by the basis sequences."""
        names = [str(s) for s in self.basis]
        rows = ([s, *map(str, row)] for s, row in zip(names, self.entries))
        return "".join(_csv_lines(chain([["", *names]], rows)))


def _csv_lines(rows: Iterable[Iterable[str]]) -> Iterator[str]:
    """Each row as one line of CSV, as ``csv.writer`` writes it with "\\n"
    line ends."""
    import csv  # here, so that commands which never render CSV do not load it

    # writerow returns what its file's write returns: here the line itself
    return map(csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow, rows)


def gram(n: int) -> SquareMatrix:
    """Gram matrix of the pairing over enumerate_diagrams(n).

    Symmetric with diagonal q**n; an entry q**c is one of n + 1 values, one
    object each, shared by every entry that holds it.
    """
    if n < 0:
        raise ValueError("diagram size must be >= 0")
    values = [PairingValue(c).as_rational for c in range(n + 1)]
    rows = tuple(tuple(map(values.__getitem__, row)) for row in gram_exponents(n))
    return SquareMatrix(enumerate_diagrams(n), rows)


def _coerce_scalar(value: Scalar) -> RationalFunction:
    coerced = _coerce_ratfun(value)
    if coerced is NotImplemented:
        raise TypeError(f"cannot coerce {type(value).__name__} to a coefficient")
    return coerced


@dataclass(frozen=True)
class DiagramVector:
    """A formal Q(q)-combination of equal-size diagrams (sparse; no zeros)."""

    size: int
    coeffs: Mapping[RestrictedSequence, RationalFunction]

    def __post_init__(self) -> None:
        cleaned = {}
        for key, value in self.coeffs.items():
            if key.size != self.size:
                raise ValueError(
                    f"term {key} has size {key.size}, expected {self.size}"
                )
            value = _coerce_scalar(value)
            if not value.is_zero:
                cleaned[key] = value
        object.__setattr__(self, "coeffs", MappingProxyType(cleaned))

    @classmethod
    def zero(cls, size: int) -> "DiagramVector":
        return cls(size, {})

    @classmethod
    def basis_vector(cls, s: RestrictedSequence) -> "DiagramVector":
        return cls(s.size, {s: RF_ONE})

    @classmethod
    def from_terms(
        cls, size: int, terms: Iterable[tuple[RestrictedSequence, Scalar]]
    ) -> "DiagramVector":
        acc: dict[RestrictedSequence, RationalFunction] = {}
        for key, value in terms:
            acc[key] = acc.get(key, RF_ZERO) + _coerce_scalar(value)
        return cls(size, acc)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "DiagramVector") -> "DiagramVector":
        if self.size != other.size:
            raise ValueError(f"size mismatch: {self.size} vs {other.size}")
        acc = dict(self.coeffs)
        for key, value in other.coeffs.items():
            acc[key] = acc.get(key, RF_ZERO) + value
        return DiagramVector(self.size, acc)

    def __sub__(self, other: "DiagramVector") -> "DiagramVector":
        return self + (-other)

    def __neg__(self) -> "DiagramVector":
        return DiagramVector(self.size, {k: -v for k, v in self.coeffs.items()})

    def scaled(self, scalar: Scalar) -> "DiagramVector":
        scalar = _coerce_scalar(scalar)
        if scalar.is_zero:
            return DiagramVector.zero(self.size)
        return DiagramVector(
            self.size, {k: v * scalar for k, v in self.coeffs.items()}
        )

    def apply_insert(self, k: int) -> "DiagramVector":
        """Linear extension of l_k, acting diagram-wise through matchings."""
        terms = {}
        for key, value in self.coeffs.items():
            image = matching_to_seq(insert_arc(seq_to_matching(key), k))
            terms[image] = value
        return DiagramVector(self.size + 1, terms)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = [f"({v})*e[{k}]" for k, v in sorted(self.coeffs.items())]
        return " + ".join(parts)


def pair_vectors(
    v: DiagramVector, w: DiagramVector, matrix: SquareMatrix
) -> RationalFunction:
    """Bilinear extension of the pairing: sum of v[a]*w[b]*<a, b>."""
    index = {s: i for i, s in enumerate(matrix.basis)}
    acc = RF_ZERO
    for a, ca in v.coeffs.items():
        if a not in index:
            raise KeyError(f"{a} is not in the Gram basis")
        row = matrix.entries[index[a]]
        for b, cb in w.coeffs.items():
            if b not in index:
                raise KeyError(f"{b} is not in the Gram basis")
            acc = acc + ca * cb * row[index[b]]
    return acc
