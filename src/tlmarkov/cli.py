"""Command-line front end.

Subcommands: enumerate, pair, gram, orthogonalize, verify, chebyshev, hasse.
Sequences are written in conventional order, e.g. "3,2,2,1,2,2,1"; the empty
string names the empty diagram.  Exit codes: 0 success, 1 failed
verification, 2 usage or input errors.

``gram`` and ``orthogonalize`` write their matrix in every format through
one writer (:func:`_matrix_chunks`), a row at a time, each row joined from
one text per distinct value; the other commands' documents are small.  It
renders the values that ``qpoly`` builds and expands, and the dense rows of
``ortho._checked_rows``; it reads neither format itself.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Iterable, Iterator

from .diagrams import (
    RestrictedSequence,
    enumerate_diagrams,
    hasse,
    hasse_dot,
    seq_to_matching,
)
from .markov import _csv_lines, gram_exponents, pair_diagrams
from .ortho import (
    _checked_rows,
    _predicted,
    check_fixture_bases,
    det_closed_form_check,
    det_oracle_check,
    verify_orthogonality,
)
from .qpoly import _delta_exponents, _expanded, _Factored, _from_exponents, chebyshev

SCALE_GUARDRAIL = 8  # C_9 = 4862 makes exact Gram work expensive
DET_ORACLE_GUARDRAIL = 5  # at 6, the oracle's four symmetry blocks take about 1.5 s


def _block(texts: list[str], depth: int, brackets: str = "[]") -> str:
    """A JSON list (or object, with brackets "{}") at depth, from the texts of
    its members (keys included), laid out as ``json.dumps(..., indent=2)``
    lays it out."""
    if not texts:
        return brackets
    indent = "\n" + "  " * (depth + 1)
    return brackets[0] + indent + f",{indent}".join(texts) + "\n" + "  " * depth + brackets[1]


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _factored_json(value: _Factored, depth: int) -> str:
    """The text of ``_from_factored(value).to_json()`` as :func:`_dump_json`
    renders it at depth, built from the expanded numerator and denominator;
    no RationalFunction is made."""
    num, den = _expanded(value)
    polynomials = [
        f'"{key}": '
        + _block(['"coeffs": ' + _block([f'"{c!s}"' for c in p.coeffs], depth + 2)], depth + 1, "{}")
        for key, p in (("den", den), ("num", num))
    ]
    return _block(polynomials, depth, "{}")


def _value_text(fmt: str, value: _Factored, depth: int) -> str:
    """One matrix entry or diagonal value as the format writes it: its JSON
    at depth, or its str for text and CSV."""
    return _factored_json(value, depth) if fmt == "json" else str(value)


def _matrix_chunks(args, basis, key: str, label: str, rows, diagonal=None) -> Iterator[str]:
    """The document of a matrix over basis in ``args.format``, in chunks: what
    comes before the rows, one chunk per row joined from its entries' texts,
    and the rest.  key is the matrix's JSON member and label heads its rows
    in text.  diagonal, if given, holds the texts of the diagonal's entries;
    it is read only after the rows, and follows them (in JSON, its key sorts
    after key).  The JSON is that of ``json.dumps(obj, sort_keys=True,
    indent=2)``."""
    if args.format == "json":
        members = {
            "basis": _block([_block(list(map(str, s.head_first)), 2) for s in basis], 1),
            "n": str(args.n),
        }
        before = "".join(f'"{k}": {members[k]},\n  ' for k in sorted(members) if k < key)
        yield "{\n  " + before + f'"{key}": ['
        for a, row in enumerate(rows):
            yield (",\n    " if a else "\n    ") + _block(row, 2)
        if diagonal is not None:
            members["diagonal"] = _block(list(diagonal), 1)
        after = "".join(f',\n  "{k}": {members[k]}' for k in sorted(members) if k > key)
        yield "\n  ]" + after + "\n}\n"
        return
    names = [str(s) for s in basis]
    if args.format == "csv":
        yield "".join(_csv_lines([["", *names]]))
        yield from _csv_lines([s, *row] for s, row in zip(names, rows))
        quoted = [f',"{d}"' for d in diagonal or ()]
        yield "".join(["<diagonal>", *quoted, "\n"]) if diagonal is not None else ""
    else:
        yield f"n {args.n}\nbasis: " + "; ".join(names) + "\n"
        for s, row in zip(names, rows):
            yield f"{label}[{s}]: " + ", ".join(row) + "\n"
        yield "".join(f"D[{s}]: {d}\n" for s, d in zip(names, diagonal or ()))


def _emit(chunks: Iterable[str] | str, out_path: str | None) -> None:
    if isinstance(chunks, str):
        chunks = (chunks,)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _exceeds(n: int, guardrail: int, max_n: int | None) -> bool:
    """Whether n is above a guardrail that --max-n does not lift."""
    return n > guardrail and (max_n is None or n > max_n)


def _check_scale(n: int, max_n: int | None) -> str | None:
    if n < 0:
        return f"n must be >= 0, got {n}"
    if _exceeds(n, SCALE_GUARDRAIL, max_n):
        return (
            f"n = {n} exceeds the desk-scale guardrail ({SCALE_GUARDRAIL}); "
            f"pass --max-n {n} to override"
        )
    return None


def _parse_sequence(text: str) -> RestrictedSequence:
    return RestrictedSequence.parse(text)


def _parse_point(text: str):
    """Exact rationals ("3", "-1/2") stay exact; decimal floats go float."""
    text = text.strip()
    if "/" in text:
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"invalid evaluation point {text!r}") from None
    try:
        return Fraction(int(text))
    except ValueError:
        pass
    try:
        point = float(text)
    except ValueError:
        raise ValueError(f"invalid evaluation point {text!r}") from None
    if not math.isfinite(point):
        raise ValueError(f"invalid evaluation point {text!r}: must be finite")
    return point


def _cmd_enumerate(args) -> int:
    problem = _check_scale(args.n, args.max_n)
    if problem:
        return _fail(problem)
    sequences = enumerate_diagrams(args.n)
    if args.format == "json":
        obj = {
            "n": args.n,
            "count": len(sequences),
            "sequences": [list(s.head_first) for s in sequences],
        }
        _emit(_dump_json(obj), args.out)
    else:
        _emit("".join(f"{s}\n" for s in sequences), args.out)
    return 0


def _cmd_pair(args) -> int:
    try:
        a = _parse_sequence(args.a)
        b = _parse_sequence(args.b)
    except ValueError as exc:
        return _fail(str(exc))
    if a.size != b.size:
        return _fail(f"sequences have different sizes: {a.size} vs {b.size}")
    value = pair_diagrams(seq_to_matching(a), seq_to_matching(b))
    if args.format == "json":
        obj = {
            "a": list(a.head_first),
            "b": list(b.head_first),
            "exponent": value.exponent,
            "value": str(value),
        }
        _emit(_dump_json(obj), args.out)
    else:
        _emit(f"{value}\n", args.out)
    return 0


def _cmd_gram(args) -> int:
    problem = _check_scale(args.n, args.max_n)
    if problem:
        return _fail(problem)
    # an entry q^c is one of n + 1 values: each is rendered once, and a row
    # is gathered from those texts by its exponents
    powers = (_from_exponents([c * e for e in _delta_exponents(1)]) for c in range(args.n + 1))
    texts = [_value_text(args.format, q_c, 3) for q_c in powers]
    rows = (list(map(texts.__getitem__, row)) for row in gram_exponents(args.n))
    basis = enumerate_diagrams(args.n)
    _emit(_matrix_chunks(args, basis, "entries", "G", rows), args.out)
    return 0


def _cmd_orthogonalize(args) -> int:
    problem = _check_scale(args.n, args.max_n)
    if problem:
        return _fail(problem)
    if args.n < 1:
        return _fail("orthogonalize needs n >= 1")
    # every check runs here, before _emit opens --out or writes a byte
    basis, rows = _checked_rows(args.n, lambda value: _value_text(args.format, value, 3))
    diagonal = (_value_text(args.format, _predicted(s), 2) for s in basis)
    _emit(_matrix_chunks(args, basis, "P", "P", rows, diagonal), args.out)
    return 0


def _cmd_verify(args) -> int:
    problem = _check_scale(args.n, args.max_n)
    if problem:
        return _fail(problem)
    if args.n < 1:
        return _fail("verify needs n >= 1")
    if args.det_oracle and _exceeds(args.n, DET_ORACLE_GUARDRAIL, args.max_n):
        return _fail(
            f"--det-oracle at n = {args.n} exceeds its guardrail "
            f"({DET_ORACLE_GUARDRAIL}); pass --max-n {args.n} to override"
        )
    report = verify_orthogonality(args.n)
    if args.n == 3:
        report.checks.extend(check_fixture_bases().checks)
    if args.det_oracle:
        report.checks.append(det_oracle_check(args.n))
        report.checks.append(det_closed_form_check(args.n))
    if args.format == "json":
        _emit(_dump_json(report.to_json_obj()), args.out)
    else:
        _emit(report.to_text() + "\n", args.out)
    return 0 if report.passed else 1


def _cmd_chebyshev(args) -> int:
    if args.k < -1:
        return _fail(f"chebyshev index must be >= -1, got {args.k}")
    poly = chebyshev(args.k)
    value = None
    if args.at is not None:
        try:
            point = _parse_point(args.at)
        except ValueError as exc:
            return _fail(str(exc))
        value = poly.evaluate(point)
    if args.format == "json":
        obj = {"k": args.k, "polynomial": poly.to_json()}
        if value is not None:
            obj["at"] = args.at
            obj["value"] = repr(value) if isinstance(value, float) else str(value)
        _emit(_dump_json(obj), args.out)
    else:
        if value is None:
            _emit(f"{poly}\n", args.out)
        elif isinstance(value, float):
            _emit(f"{value!r}\n", args.out)
        else:
            _emit(f"{value}\n", args.out)
    return 0


def _cmd_hasse(args) -> int:
    problem = _check_scale(args.n, args.max_n)
    if problem:
        return _fail(problem)
    if args.n < 1:
        return _fail("hasse needs n >= 1")
    if args.format == "dot":
        _emit(hasse_dot(args.n), args.out)
    else:
        edges = hasse(args.n)
        _emit("".join(f"{a} -> {b}\n" for a, b in edges), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tlmarkov",
        description="Exact diagonalization of the Markov pairing on "
        "non-crossing chord diagrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=("text", "json"), with_n=True):
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", metavar="PATH", default=None)
        if with_n:
            p.add_argument("--max-n", type=int, default=None, dest="max_n")

    p = sub.add_parser("enumerate", help="list all diagrams of size n")
    p.add_argument("n", type=int)
    add_common(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("pair", help="Markov pairing of two diagrams")
    p.add_argument("a")
    p.add_argument("b")
    add_common(p, with_n=False)
    p.set_defaults(func=_cmd_pair)

    p = sub.add_parser("gram", help="Gram matrix of the pairing at size n")
    p.add_argument("n", type=int)
    add_common(p, formats=("text", "json", "csv"))
    p.set_defaults(func=_cmd_gram)

    p = sub.add_parser(
        "orthogonalize", help="orthogonal basis, change of basis and diagonal"
    )
    p.add_argument("n", type=int)
    add_common(p, formats=("text", "json", "csv"))
    p.set_defaults(func=_cmd_orthogonalize)

    p = sub.add_parser("verify", help="run the exact verification suite at size n")
    p.add_argument("n", type=int)
    p.add_argument("--det-oracle", action="store_true", dest="det_oracle")
    add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("chebyshev", help="the tridiagonal determinant Delta_k")
    p.add_argument("k", type=int)
    p.add_argument(
        "--at",
        metavar="Q0",
        default=None,
        help='evaluation point: exact rational ("3", spelled --at=-1/2 when '
        "negative) or decimal float",
    )
    add_common(p, with_n=False)
    p.set_defaults(func=_cmd_chebyshev)

    p = sub.add_parser("hasse", help="cover relations of the diagram order")
    p.add_argument("n", type=int)
    add_common(p, formats=("text", "dot"))
    p.set_defaults(func=_cmd_hasse)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        return _fail(str(exc))
    except OSError as exc:
        return _fail(f"cannot write {args.out or 'stdout'}: {exc.strerror}")


if __name__ == "__main__":
    sys.exit(main())
