"""Command-line front end.

Subcommands: enumerate, pair, gram, orthogonalize, verify, chebyshev, hasse.
Sequences are written in conventional order, e.g. "3,2,2,1,2,2,1"; the empty
string names the empty diagram.  Exit codes: 0 success, 1 failed
verification, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from itertools import repeat
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator

from .diagrams import (
    RestrictedSequence,
    enumerate_diagrams,
    hasse,
    hasse_dot,
    seq_to_matching,
)
from .markov import gram, pair_diagrams
from .ortho import (
    change_of_basis,
    check_fixture_bases,
    det_closed_form_check,
    det_oracle_check,
    verify_orthogonality,
)
from .qpoly import chebyshev

SCALE_GUARDRAIL = 8  # C_9 = 4862 makes exact Gram work expensive
DET_ORACLE_GUARDRAIL = 5  # at 6, the oracle's 331 elimination points took 309 s in all


def _iter_json(obj) -> Iterator[str]:
    """The text of ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"`` in
    chunks, for JSON values whose dict keys are str.

    The top value and the direct elements of its lists (the rows of a matrix)
    are yielded one at a time; anything deeper is rendered whole, as one
    chunk joined from its members' texts, each dict object once per depth,
    so entries that share one dict are rendered once.
    """
    # depth -> id of a dict -> its text; obj holds every dict, so no id is reused
    memo: dict[int, dict[int, str]] = {}

    def whole(value, depth: int) -> str:
        text = "".join(chunks(value, depth, 0))
        if isinstance(value, dict):
            memo.setdefault(depth, {})[id(value)] = text
        return text

    def chunks(value, depth: int, streamed: int) -> Iterator[str]:
        if isinstance(value, dict):
            brackets = "{}"
            members = [
                (f"{encode_basestring_ascii(k)}: ", v) for k, v in sorted(value.items())
            ]
        elif isinstance(value, (list, tuple)):
            brackets = "[]"
            members = zip(repeat(""), value)
        else:
            yield json.dumps(value)
            return
        if not value:
            yield brackets
            return
        indent = "\n" + "  " * (depth + 1)
        close = "\n" + "  " * depth + brackets[1]
        if not streamed:
            seen = memo.setdefault(depth + 1, {})
            texts = [
                prefix + (seen.get(id(member)) or whole(member, depth + 1))
                for prefix, member in members
            ]
            yield brackets[0] + indent + f",{indent}".join(texts) + close
            return
        yield brackets[0]
        for i, (prefix, member) in enumerate(members):
            yield f",{indent}{prefix}" if i else f"{indent}{prefix}"
            yield from chunks(member, depth + 1, streamed - 1)
        yield close

    yield from chunks(obj, 0, 2)
    yield "\n"


def _dump_json(obj) -> str:
    return "".join(_iter_json(obj))


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


def _check_scale(n: int, max_n: int | None) -> str | None:
    if n < 0:
        return f"n must be >= 0, got {n}"
    if n > SCALE_GUARDRAIL and (max_n is None or n > max_n):
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
        _emit(_iter_json(obj), args.out)
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
        _emit(_iter_json(obj), args.out)
    else:
        _emit(f"{value}\n", args.out)
    return 0


def _cmd_gram(args) -> int:
    problem = _check_scale(args.n, args.max_n)
    if problem:
        return _fail(problem)
    matrix = gram(args.n)
    if args.format == "json":
        _emit(_iter_json(matrix.to_json(n=args.n)), args.out)
    elif args.format == "csv":
        _emit(matrix.to_csv(), args.out)
    else:
        lines = [f"n {args.n}", "basis: " + "; ".join(str(s) for s in matrix.basis)]
        for s, row in zip(matrix.basis, matrix.entries):
            lines.append(f"G[{s}]: " + ", ".join(str(e) for e in row))
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_orthogonalize(args) -> int:
    problem = _check_scale(args.n, args.max_n)
    if problem:
        return _fail(problem)
    if args.n < 1:
        return _fail("orthogonalize needs n >= 1")
    basis = change_of_basis(args.n)
    if args.format == "json":
        _emit(_iter_json(basis.to_json()), args.out)
    elif args.format == "csv":
        text = basis.P.to_csv()
        text += "<diagonal>," + ",".join(f'"{d}"' for d in basis.diagonal) + "\n"
        _emit(text, args.out)
    else:
        lines = [f"n {args.n}", "basis: " + "; ".join(str(s) for s in basis.basis)]
        for s, row in zip(basis.basis, basis.P.entries):
            lines.append(f"P[{s}]: " + ", ".join(str(e) for e in row))
        for s, d in zip(basis.basis, basis.diagonal):
            lines.append(f"D[{s}]: {d}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    problem = _check_scale(args.n, args.max_n)
    if problem:
        return _fail(problem)
    if args.n < 1:
        return _fail("verify needs n >= 1")
    if args.det_oracle and args.n > DET_ORACLE_GUARDRAIL and (
        args.max_n is None or args.n > args.max_n
    ):
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
        _emit(_iter_json(report.to_json_obj()), args.out)
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
        _emit(_iter_json(obj), args.out)
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
