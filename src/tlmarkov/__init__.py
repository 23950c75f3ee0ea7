"""Exact diagonalization of the Markov bilinear form on the Temperley-Lieb
chord-diagram basis.

The package enumerates non-crossing chord diagrams, computes the Markov
pairing symbolically over Q(q), constructs the orthogonal basis by a poset
recursion, and verifies by exact arithmetic that the diagonal entries are
products of Chebyshev quotients.
"""

from .diagrams import (
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
    validate_restricted,
)
from .markov import (
    DiagramVector,
    PairingValue,
    SquareMatrix,
    gram,
    gram_exponents,
    pair_diagrams,
    pair_vectors,
)
from .ortho import (
    OrthoBasis,
    VerificationReport,
    bareiss_det,
    change_of_basis,
    check_fixture_bases,
    det_oracle_check,
    det_product,
    orthogonal_vector,
    predicted_diagonal,
    verify_orthogonality,
)
from .qpoly import (
    PoleError,
    Polynomial,
    RationalFunction,
    chebyshev,
    chebyshev_root,
    eval_at,
    poly_divrem,
    poly_gcd,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # qpoly
    "Polynomial",
    "RationalFunction",
    "PoleError",
    "poly_divrem",
    "poly_gcd",
    "chebyshev",
    "chebyshev_root",
    "eval_at",
    # diagrams
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
    # markov
    "PairingValue",
    "DiagramVector",
    "SquareMatrix",
    "pair_diagrams",
    "gram",
    "gram_exponents",
    "pair_vectors",
    # ortho
    "OrthoBasis",
    "VerificationReport",
    "orthogonal_vector",
    "change_of_basis",
    "predicted_diagonal",
    "verify_orthogonality",
    "bareiss_det",
    "det_product",
    "det_oracle_check",
    "check_fixture_bases",
]
