"""Command-line interface: outputs, formats, exit codes, determinism."""

import csv
import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given

from conftest import base_values, stored_vectors
from tlmarkov import qpoly
from tlmarkov.cli import _dump_json, _factored_json, main
from tlmarkov.diagrams import RestrictedSequence
from tlmarkov.markov import DiagramVector, gram
from tlmarkov.ortho import (
    InternalCheckError,
    _checked_rows,
    _clear_memos,
    _level,
    _predicted,
    change_of_basis,
    verify_orthogonality,
)
from tlmarkov.qpoly import _F_ZERO, RF_ZERO, _from_factored, _to_factored


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_import_does_not_load_csv():
    # only `--format csv` renders through the csv module; every other command
    # leaves it unloaded, which keeps it out of their resident size
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", "import sys, tlmarkov.cli; print('csv' in sys.modules)"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60,
    )
    assert result.stdout.strip() == "False", result.stderr


def test_pair_known_value(capsys):
    code, out, _ = run(capsys, "pair", "1,3,2,1,1", "2,1,2,1,1")
    assert code == 0
    assert out == "q^2\n"


def test_pair_json(capsys):
    code, out, _ = run(capsys, "pair", "1,1", "2,1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"a": [1, 1], "b": [2, 1], "exponent": 1, "value": "q"}


def test_pair_rejects_malformed_token(capsys):
    code, out, err = run(capsys, "pair", "1,x,1", "1,1,1")
    assert code == 2
    assert "token 'x'" in err


def test_pair_rejects_invalid_sequence(capsys):
    code, _, err = run(capsys, "pair", "3,1,1", "1,1,1")
    assert code == 2
    assert "a_3" in err


def test_pair_rejects_size_mismatch(capsys):
    code, _, err = run(capsys, "pair", "1,1", "1")
    assert code == 2
    assert "sizes" in err


def test_chebyshev_polynomial(capsys):
    code, out, _ = run(capsys, "chebyshev", "3")
    assert code == 0
    assert out == "q^3 - 2*q\n"


def test_chebyshev_exact_evaluation(capsys):
    code, out, _ = run(capsys, "chebyshev", "3", "--at", "2")
    assert (code, out) == (0, "4\n")
    code, out, _ = run(capsys, "chebyshev", "3", "--at=-1/2")
    assert (code, out) == (0, "7/8\n")


def test_chebyshev_float_evaluation(capsys):
    code, out, _ = run(capsys, "chebyshev", "2", "--at", "1.5")
    assert (code, out) == (0, "1.25\n")


def test_chebyshev_bad_point(capsys):
    code, _, err = run(capsys, "chebyshev", "2", "--at", "wat")
    assert code == 2
    assert "evaluation point" in err


@pytest.mark.parametrize("text", ["inf", "-inf", "nan", "1e400"])
def test_chebyshev_rejects_non_finite_point(capsys, text):
    code, out, err = run(capsys, "chebyshev", "3", f"--at={text}")
    assert (code, out) == (2, "")
    assert err == f"error: invalid evaluation point '{text}': must be finite\n"


def test_enumerate_text(capsys):
    code, out, _ = run(capsys, "enumerate", "3")
    assert code == 0
    assert out == "1,1,1\n2,1,1\n1,2,1\n2,2,1\n3,2,1\n"


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "2", "--format", "json")
    obj = json.loads(out)
    assert obj == {"count": 2, "n": 2, "sequences": [[1, 1], [2, 1]]}


def test_enumerate_round_trips_into_pair(capsys):
    _, out, _ = run(capsys, "enumerate", "4")
    for line in out.splitlines():
        code, pair_out, _ = run(capsys, "pair", line, line)
        assert code == 0
        assert pair_out == "q^4\n"


def test_gram_json_reserialization_is_byte_identical(capsys):
    code, first, _ = run(capsys, "gram", "2", "--format", "json")
    assert code == 0
    reloaded = json.loads(first)
    assert json.dumps(reloaded, sort_keys=True, indent=2) + "\n" == first
    code, second, _ = run(capsys, "gram", "2", "--format", "json")
    assert second == first


def test_gram_csv(capsys):
    code, out, _ = run(capsys, "gram", "1", "--format", "csv")
    assert (code, out) == (0, ",1\n1,q\n")


def test_gram_text(capsys):
    code, out, _ = run(capsys, "gram", "2")
    assert code == 0
    assert out.splitlines() == [
        "n 2",
        "basis: 1,1; 2,1",
        "G[1,1]: q^2, q",
        "G[2,1]: q, q^2",
    ]


def test_orthogonalize_text(capsys):
    code, out, _ = run(capsys, "orthogonalize", "2")
    assert code == 0
    assert out.splitlines() == [
        "n 2",
        "basis: 1,1; 2,1",
        "P[1,1]: 1, 0",
        "P[2,1]: -1/q, 1",
        "D[1,1]: q^2",
        "D[2,1]: q^2 - 1",
    ]


def test_orthogonalize_json(capsys):
    code, out, _ = run(capsys, "orthogonalize", "3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 3
    assert obj["basis"][4] == [3, 2, 1]
    assert obj["P"][4][0] == {
        "den": {"coeffs": ["-1", "0", "1"]},
        "num": {"coeffs": ["0", "-1"]},
    }
    assert obj["diagonal"][4] == {
        "den": {"coeffs": ["1"]},
        "num": {"coeffs": ["0", "-2", "0", "1"]},
    }


def test_orthogonalize_csv(capsys):
    code, out, _ = run(capsys, "orthogonalize", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        ',"1,1","2,1"',
        '"1,1",1,0',
        '"2,1",-1/q,1',
        '<diagonal>,"q^2","q^2 - 1"',
    ]


def reference_text(value, depth):
    """The reference rendering of a factor-base value at depth: the
    to_json() of its RationalFunction through the stdlib encoder, indented."""
    return _dump_json(_from_factored(value).to_json())[:-1].replace("\n", "\n" + "  " * depth)


@pytest.mark.parametrize("n", range(1, 7))
def test_factored_json_is_the_reference_text(n):
    """Every distinct coefficient of P, at the depth of an entry of P, and
    every predicted diagonal entry, at the depth of an entry of the
    diagonal, has the reference text."""
    basis, rows = _checked_rows(n, lambda value: value)
    for value in {v for row in rows for v in row} | {_F_ZERO}:
        assert _factored_json(value, 3) == reference_text(value, 3)
    for s in basis:
        value = _predicted(s)
        assert _factored_json(value, 2) == reference_text(value, 2)


@given(base_values())
@example(RF_ZERO)
def test_factored_json_of_values_in_normal_form(x):
    value = _to_factored(x)
    for depth in (0, 2, 3):
        assert _factored_json(value, depth) == reference_text(value, depth)


def csv_line(row):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(row)
    return buf.getvalue()


def reference_document(command, n, fmt):
    """The output of `command n --format fmt` and the text each row of the
    matrix takes in it, built from the dense gram(n) or change_of_basis(n):
    the stdlib encoder for JSON, and str of every entry for text and CSV."""
    if command == "gram":
        matrix, diagonal, label, key = gram(n), None, "G", "entries"
        obj = matrix.to_json(n=n)
    else:
        result = change_of_basis(n)
        matrix, diagonal, label, key = result.P, result.diagonal, "P", "P"
        obj = result.to_json()
    if fmt == "json":
        rows = [json.dumps(row, sort_keys=True, indent=2).replace("\n", "\n    ") for row in obj[key]]
        return json.dumps(obj, sort_keys=True, indent=2) + "\n", rows
    names = [str(s) for s in matrix.basis]
    entries = [[str(e) for e in row] for row in matrix.entries]
    if fmt == "csv":
        head = csv_line(["", *names])
        rows = [csv_line([s, *row]) for s, row in zip(names, entries)]
        tail = "" if diagonal is None else "<diagonal>," + ",".join(f'"{d}"' for d in diagonal) + "\n"
    else:
        head = f"n {n}\nbasis: " + "; ".join(names) + "\n"
        rows = [f"{label}[{s}]: " + ", ".join(row) + "\n" for s, row in zip(names, entries)]
        tail = "".join(f"D[{s}]: {d}\n" for s, d in zip(names, diagonal or ()))
    return head + "".join(rows) + tail, rows


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
@pytest.mark.parametrize("command", ["gram", "orthogonalize"])
def test_matrix_output_streams_one_chunk_per_row(monkeypatch, command, fmt):
    import tlmarkov.cli as cli_module

    emitted = []
    monkeypatch.setattr(cli_module, "_emit", lambda chunks, out: emitted.append(list(chunks)))
    assert main([command, "3", "--format", fmt]) == 0
    [chunks] = emitted
    document, rows = reference_document(command, 3, fmt)
    assert "".join(chunks) == document
    # what comes before the rows, one chunk per row, and the rest
    assert len(chunks) == 1 + len(rows) + 1
    for chunk, row in zip(chunks[1:], rows):
        assert chunk.endswith(row)


def test_orthogonalize_json_converts_nothing(capsys):
    """The JSON of orthogonalize is built from the factor-base values: from
    cleared memos, n = 1..6 leave no RationalFunction conversion behind."""
    _clear_memos()
    for n in range(1, 7):
        code, _, _ = run(capsys, "orthogonalize", str(n), "--format", "json")
        assert code == 0
        assert not qpoly._from_factored.cache_info().currsize, n


@pytest.mark.parametrize("target", ["json", "text", "csv", "change_of_basis"])
@pytest.mark.parametrize("n", range(4, 7))
def test_each_distinct_stored_value_is_converted_once(monkeypatch, capsys, n, target):
    """The one reader of the stored rows converts each distinct stored value
    once, and zero once, for orthogonalize in every format and for
    change_of_basis."""
    import tlmarkov.cli as cli_module
    from tlmarkov import ortho as ortho_module

    true_checked_rows = ortho_module._checked_rows
    converted = []

    def checked_rows(n, convert):
        def spy(value):
            converted.append(value)
            return convert(value)

        return true_checked_rows(n, spy)

    monkeypatch.setattr(ortho_module, "_checked_rows", checked_rows)
    monkeypatch.setattr(cli_module, "_checked_rows", checked_rows)
    if target == "change_of_basis":
        change_of_basis(n)
    else:
        code, _, _ = run(capsys, "orthogonalize", str(n), "--format", target)
        assert code == 0
    stored = {v for s in _level(n).basis for v in ortho_module._stored(s).values}
    assert _F_ZERO not in stored
    assert len(converted) == len(stored) + 1
    assert set(converted) == stored | {_F_ZERO}


# the one row check each corrupted store below fails, with its details
ROW_CHECK_FAILURES = {
    "3,2,1": ("unitriangular", "bad rows: ['3,2,1']"),
    "2,1,1": ("downset-support", "e'_2,1,1 contains 1,2,1"),
}


@pytest.mark.parametrize(
    "s, terms",
    [
        # P[a][a] = 2 in the last row
        ("3,2,1", {"3,2,1": 2}),
        # the term e_1,2,1 outside the downset of 2,1,1, in the second row;
        # no vector of size 3 is built from e'_2,1,1
        ("2,1,1", {"2,1,1": 1, "1,2,1": 1}),
    ],
)
def test_orthogonalize_json_checks_every_row_before_any_output(tmp_path, capsys, s, terms):
    """In every format, not only JSON: the checks fail before --out is
    opened or a byte is written.  They are the verifier's row checks: the
    store fails exactly one of them in verify_orthogonality, and the error
    of change_of_basis and of the command is that check's name and details."""
    seq = RestrictedSequence.parse
    corrupted = DiagramVector(3, {seq(t): c for t, c in terms.items()})
    name, details = ROW_CHECK_FAILURES[s]
    try:
        with stored_vectors({seq(s): corrupted}, clear=True):
            checks = verify_orthogonality(3).checks[:2]
            with pytest.raises(InternalCheckError) as raised:
                change_of_basis(3)
    finally:
        _clear_memos()
    assert [c.name for c in checks] == ["unitriangular", "downset-support"]
    assert [(c.name, c.details) for c in checks if not c.passed] == [(name, details)]
    assert str(raised.value) == f"{name}: {details}"
    for fmt in ("json", "text", "csv"):
        path = tmp_path / f"p.{fmt}"
        try:
            with stored_vectors({seq(s): corrupted}, clear=True):
                for out in (["--out", str(path)], []):
                    with pytest.raises(InternalCheckError) as raised:
                        main(["orthogonalize", "3", "--format", fmt, *out])
                    assert str(raised.value) == f"{name}: {details}", fmt
        finally:
            _clear_memos()
        assert not path.exists(), fmt
        assert capsys.readouterr().out == "", fmt


def test_verify_small_passes(capsys):
    code, out, _ = run(capsys, "verify", "2")
    assert code == 0
    assert "all passed" in out


def test_verify_with_det_oracle(capsys):
    code, out, _ = run(capsys, "verify", "2", "--det-oracle")
    assert code == 0
    assert "determinant-oracle: PASS" in out


def test_det_oracle_report_gives_the_closed_form_after_the_oracle(capsys):
    code, out, _ = run(capsys, "verify", "2", "--det-oracle", "--format", "json")
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert names[-2:] == ["determinant-oracle", "det-closed-form"]
    code, out, _ = run(capsys, "verify", "2", "--format", "json")
    assert "det-closed-form" not in [c["name"] for c in json.loads(out)["checks"]]


def test_det_oracle_guardrail_exits_before_any_work(capsys, monkeypatch):
    import tlmarkov.cli as cli_module

    def unreachable(n):
        raise AssertionError("the guardrail must stop verify before it starts")

    monkeypatch.setattr(cli_module, "verify_orthogonality", unreachable)
    monkeypatch.setattr(cli_module, "det_oracle_check", unreachable)
    code, out, err = run(capsys, "verify", "6", "--det-oracle")
    assert (code, out) == (2, "")
    assert err == (
        "error: --det-oracle at n = 6 exceeds its guardrail (5); "
        "pass --max-n 6 to override\n"
    )


def test_det_oracle_guardrail_yields_to_max_n(capsys, monkeypatch):
    import tlmarkov.cli as cli_module
    from tlmarkov.ortho import CheckResult

    calls = []

    def stub(n):
        calls.append(n)
        return CheckResult("determinant-oracle", True, 0.0, "stub")

    monkeypatch.setattr(cli_module, "det_oracle_check", stub)
    code, out, _ = run(capsys, "verify", "6", "--det-oracle", "--max-n", "6")
    assert code == 0
    assert calls == [6]
    assert "determinant-oracle: PASS (0.000s) -- stub" in out


def test_verify_n3_flags_fixture_erratum(capsys):
    code, out, _ = run(capsys, "verify", "3")
    assert code == 0
    assert "fixture-opposite-side: PASS" in out
    assert "flagged erratum" in out
    assert "negating row 5, column 4 (= q/(q^2 - 1)) verifies exactly" in out
    assert "unitriangular: PASS" in out
    assert "orthogonality: PASS" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    assert [c["name"] for c in obj["checks"]] == [
        "unitriangular",
        "downset-support",
        "half-pairing",
        "orthogonality",
        "diagonal-formula",
    ]


def test_hasse_dot(capsys):
    code, out, _ = run(capsys, "hasse", "2", "--format", "dot")
    assert code == 0
    assert out == 'digraph hasse_2 {\n  "1,1";\n  "2,1";\n  "1,1" -> "2,1";\n}\n'


def test_hasse_text(capsys):
    code, out, _ = run(capsys, "hasse", "2")
    assert (code, out) == (0, "1,1 -> 2,1\n")


def test_scale_guardrail(capsys):
    code, _, err = run(capsys, "enumerate", "9")
    assert code == 2
    assert "--max-n" in err
    code, out, _ = run(capsys, "enumerate", "9", "--max-n", "9")
    assert code == 0
    assert len(out.splitlines()) == 4862


def test_out_writes_file(tmp_path, capsys):
    path = tmp_path / "out.txt"
    code, out, _ = run(capsys, "chebyshev", "3", "--out", str(path))
    assert code == 0
    assert out == ""
    assert path.read_text() == "q^3 - 2*q\n"


def test_out_write_error_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "orthogonalize", "3", "--format", "json", "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert str(path) in err and os.strerror(errno.ENOENT) in err
    assert "Traceback" not in err


MATRIX_CASES = [("gram", n) for n in range(7)] + [("orthogonalize", n) for n in range(1, 7)]


@pytest.mark.parametrize("n, command", [(n, command) for command, n in MATRIX_CASES])
def test_json_output_is_the_stdlib_rendering(tmp_path, capsys, command, n):
    code, out, _ = run(capsys, command, str(n), "--format", "json")
    assert code == 0
    obj = change_of_basis(n).to_json() if command == "orthogonalize" else gram(n).to_json(n=n)
    assert out == json.dumps(obj, sort_keys=True, indent=2) + "\n"
    path = tmp_path / "out.json"
    code, _, _ = run(capsys, command, str(n), "--format", "json", "--out", str(path))
    assert code == 0
    assert path.read_bytes() == out.encode()


@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize("command, n", MATRIX_CASES)
def test_text_and_csv_output_are_the_dense_rendering(tmp_path, capsys, command, n, fmt):
    code, out, _ = run(capsys, command, str(n), "--format", fmt)
    assert (code, out) == (0, reference_document(command, n, fmt)[0])
    path = tmp_path / "out.txt"
    code, _, _ = run(capsys, command, str(n), "--format", fmt, "--out", str(path))
    assert code == 0
    assert path.read_bytes() == out.encode()


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["enumerate", "3", "--wat"])
    assert info.value.code == 2
