"""Command-line interface: outputs, formats, exit codes, determinism."""

import errno
import json
import os

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tlmarkov.cli import _dump_json, _iter_json, main
from tlmarkov.markov import gram
from tlmarkov.ortho import change_of_basis


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
