"""Command-line interface: outputs, formats, exit codes, determinism."""

import errno
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import base_values, stored_vectors
from tlmarkov import qpoly
from tlmarkov.cli import _dump_json, _factored_json, _iter_basis_json, _iter_json, main
from tlmarkov.diagrams import RestrictedSequence
from tlmarkov.markov import DiagramVector, gram
from tlmarkov.ortho import (
    InternalCheckError,
    _checked_rows,
    _clear_memos,
    _predicted,
    change_of_basis,
)
from tlmarkov.qpoly import (
    _F_ZERO,
    ONE,
    RF_ZERO,
    Polynomial,
    RationalFunction,
    _from_factored,
    _to_factored,
    chebyshev,
)


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
    to_json() of its RationalFunction through _iter_json, indented."""
    return _dump_json(_from_factored(value).to_json())[:-1].replace("\n", "\n" + "  " * depth)


@pytest.mark.parametrize("n", range(1, 7))
def test_factored_json_is_the_reference_text(n):
    """Every distinct coefficient of P, at the depth of an entry of P, and
    every predicted diagonal entry, at the depth of an entry of the
    diagonal, has the reference text."""
    basis, rows = _checked_rows(n)
    for value in {v for row in rows for v in row.values} | {_F_ZERO}:
        assert _factored_json(value, 3) == reference_text(value, 3)
    for s in basis:
        value = _predicted(s)
        assert _factored_json(value, 2) == reference_text(value, 2)


@given(base_values())
@example(RF_ZERO)
@example(RationalFunction(Polynomial((Fraction(-1, 2), 0, 3)), ONE))
@example(RationalFunction(Polynomial((0, Fraction(2, 3), -1)), chebyshev(2) * chebyshev(3)))
def test_factored_json_of_values_in_normal_form(x):
    value = _to_factored(x)
    for depth in (0, 2, 3):
        assert _factored_json(value, depth) == reference_text(value, depth)


def test_orthogonalize_json_streams_one_chunk_per_row():
    basis, rows = _checked_rows(3)
    chunks = list(_iter_basis_json(3, basis, rows))
    obj = change_of_basis(3).to_json()
    assert "".join(chunks) == json.dumps(obj, sort_keys=True, indent=2) + "\n"
    # the opening, one chunk per row of P, and the rest of the document
    assert len(chunks) == 1 + len(basis) + 1
    for chunk, row in zip(chunks[1:], obj["P"]):
        assert chunk.endswith(json.dumps(row, sort_keys=True, indent=2).replace("\n", "\n    "))


def test_orthogonalize_json_converts_nothing(capsys):
    """The JSON of orthogonalize is built from the factor-base values: from
    cleared memos, n = 1..6 leave no RationalFunction conversion behind."""
    _clear_memos()
    for n in range(1, 7):
        code, _, _ = run(capsys, "orthogonalize", str(n), "--format", "json")
        assert code == 0
        assert not qpoly._FROM_FACTORED, n


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
    seq = RestrictedSequence.parse
    corrupted = DiagramVector(3, {seq(t): c for t, c in terms.items()})
    path = tmp_path / "p.json"
    try:
        with stored_vectors({seq(s): corrupted}, clear=True):
            with pytest.raises(InternalCheckError):
                main(["orthogonalize", "3", "--format", "json", "--out", str(path)])
            with pytest.raises(InternalCheckError):
                main(["orthogonalize", "3", "--format", "json"])
    finally:
        _clear_memos()
    assert not path.exists()
    assert capsys.readouterr().out == ""


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


@pytest.mark.parametrize("command", ["orthogonalize", "gram"])
@pytest.mark.parametrize("n", range(1, 6))
def test_json_output_is_the_stdlib_rendering(tmp_path, capsys, command, n):
    code, out, _ = run(capsys, command, str(n), "--format", "json")
    assert code == 0
    obj = change_of_basis(n).to_json() if command == "orthogonalize" else gram(n).to_json(n=n)
    assert out == json.dumps(obj, sort_keys=True, indent=2) + "\n"
    path = tmp_path / "out.json"
    code, _, _ = run(capsys, command, str(n), "--format", "json", "--out", str(path))
    assert code == 0
    assert path.read_bytes() == out.encode()


def test_json_rows_are_streamed_one_chunk_each():
    obj = change_of_basis(3).to_json()
    chunks = list(_iter_json(obj))
    assert "".join(chunks) == json.dumps(obj, sort_keys=True, indent=2) + "\n"
    # "{", then per key a separator and its value: each of the three lists
    # of five rows as "[", separator and row for each row, "]"; "3" for n;
    # then "}" and the final newline
    assert len(chunks) == 1 + 3 * (1 + 1 + 2 * 5 + 1) + 2 + 1 + 1
    for row in obj["P"]:
        text = json.dumps(row, sort_keys=True, indent=2)
        assert text.replace("\n", "\n    ") in chunks


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=24,
)


@given(json_values, st.dictionaries(st.text(), json_values, max_size=3))
@example({}, {})
@example([], {"": []})
@example({"\u00e9\x00\n": ["\x1f\u2603\"\\", "\ud800"]}, {"k\t": {}})
@example([1.5, -0.0, True, False, None, -3, float("nan"), float("-inf")], {"a": 1e300})
def test_dump_json_matches_the_stdlib_encoder(value, shared):
    # shared appears at two positions at depth 2 and once each at depths 1 and 4;
    # value, when a dict, at depths 1 and 3
    for obj in (
        value,
        [value, shared],
        {"a": shared, "b": [shared, shared, [value, {"c": shared}]], "c": value},
    ):
        assert _dump_json(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["enumerate", "3", "--wat"])
    assert info.value.code == 2
