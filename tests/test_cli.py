"""Command-line behavior: outputs, envelopes, exit codes, determinism."""

import contextlib
import io
import json
from pathlib import Path

import pytest

import hyperreal.cli as cli

SCHEMA = json.loads(
    (Path(cli.__file__).resolve().parent / "cli_schema.json").read_text()
)


def run_cli(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Minimal JSON-schema checker (subset used by the shipped schema)


def _resolve(ref: str):
    node = SCHEMA
    for part in ref.lstrip("#/").split("/"):
        node = node[part]
    return node


def _check(instance, schema, path="$"):
    if "$ref" in schema:
        _check(instance, _resolve(schema["$ref"]), path)
        return
    if "enum" in schema:
        assert instance in schema["enum"], f"{path}: {instance!r} not in enum"
    if "oneOf" in schema:
        matches = 0
        for option in schema["oneOf"]:
            try:
                _check(instance, option, path)
                matches += 1
            except AssertionError:
                pass
        assert matches >= 1, f"{path}: no oneOf branch matched"
        return
    kind = schema.get("type")
    if kind is not None:
        kinds = kind if isinstance(kind, list) else [kind]
        ok = any(_type_ok(instance, k) for k in kinds)
        assert ok, f"{path}: {type(instance).__name__} is not {kinds}"
    if isinstance(instance, dict):
        for key in schema.get("required", []):
            assert key in instance, f"{path}: missing key {key!r}"
        for key, subschema in schema.get("properties", {}).items():
            if key in instance:
                _check(instance[key], subschema, f"{path}.{key}")
    if isinstance(instance, list) and "items" in schema:
        for i, item in enumerate(instance):
            _check(item, schema["items"], f"{path}[{i}]")
        if "minItems" in schema:
            assert len(instance) >= schema["minItems"], f"{path}: too few items"
        if "maxItems" in schema:
            assert len(instance) <= schema["maxItems"], f"{path}: too many items"
    if isinstance(instance, str) and "pattern" in schema:
        import re

        assert re.fullmatch(schema["pattern"], instance), f"{path}: pattern mismatch"
    if isinstance(instance, int) and "minimum" in schema:
        assert instance >= schema["minimum"], f"{path}: below minimum"


def _type_ok(instance, kind):
    return {
        "object": lambda: isinstance(instance, dict),
        "array": lambda: isinstance(instance, list),
        "string": lambda: isinstance(instance, str),
        "integer": lambda: isinstance(instance, int) and not isinstance(instance, bool),
        "boolean": lambda: isinstance(instance, bool),
        "null": lambda: instance is None,
    }[kind]()


def check_envelope(payload, result_schema_name):
    _check(payload, {k: v for k, v in SCHEMA.items() if k in ("type", "required", "oneOf")})
    if payload["ok"]:
        _check(payload["result"], SCHEMA["results"][result_schema_name])


# ---------------------------------------------------------------------------
# Text outputs


def test_eval_square_of_one_plus_eps():
    code, out, _ = run_cli("eval", "(1+eps)^2")
    assert code == 0
    assert out == "1 + 2*eps + eps^2\n"


def test_diff_square_at_three():
    code, out, _ = run_cli("diff", "x^2", "--at", "3")
    assert code == 0
    assert out == "6\n"


def test_classify_and_compare_and_shadow():
    assert run_cli("classify", "eps")[1] == "positive-infinitesimal\n"
    assert run_cli("compare", "w", "10^100")[1] == "greater\n"
    assert run_cli("shadow", "3 + 2*eps")[1] == "3\n"


def test_limits_and_continuity():
    assert run_cli("limit", "1/x", "--to", "0", "--side", "right")[1] == "+inf\n"
    assert run_cli("seq-limit", "(2*n^2+1)/(n^2+3)")[1] == "2\n"
    assert run_cli("continuity", "abs(x)", "--at", "0")[1] == "continuous\n"


def test_precision_flag_controls_truncation():
    _, out4, _ = run_cli("eval", "1/(1+eps)", "--precision", "4")
    assert out4 == "1 - eps + eps^2 - eps^3 + O(eps^4)\n"
    _, out2, _ = run_cli("eval", "1/(1+eps)", "--precision", "2")
    assert out2 == "1 - eps + O(eps^2)\n"


def test_precision_env_override(monkeypatch):
    monkeypatch.setenv("HYPERREAL_PRECISION", "3")
    _, out, _ = run_cli("eval", "1/(1+eps)")
    assert out == "1 - eps + eps^2 + O(eps^3)\n"


# ---------------------------------------------------------------------------
# JSON envelopes


def test_json_eval_envelope():
    code, out, _ = run_cli("eval", "(1+eps)^2", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["ok"]
    assert payload["result"]["value"] == "1 + 2*eps + eps^2"
    check_envelope(payload, "eval")


def test_json_filters_enumerate():
    code, out, _ = run_cli("filters", "enumerate", "--size", "3", "--json")
    payload = json.loads(out)
    assert payload["result"]["count"] == 3
    assert payload["result"]["generators"] == [0, 1, 2]
    check_envelope(payload, "filters-enumerate")


def test_json_every_subcommand_validates():
    cases = [
        (("eval", "w + 1"), "eval"),
        (("classify", "eps^2"), "classify"),
        (("compare", "eps", "0"), "compare"),
        (("shadow", "5 - eps"), "shadow"),
        (("diff", "x^3", "--at", "2"), "diff"),
        (("diff", "abs(x)", "--at", "0"), "diff"),
        (("limit", "1/x", "--to", "0"), "limit"),
        (("limit", "x^2", "--to", "+inf"), "limit"),
        (("seq-limit", "1/n"), "seq-limit"),
        (("continuity", "x^2", "--at", "1"), "continuity"),
        (("filters", "enumerate", "--size", "2"), "filters-enumerate"),
        (("filters", "classify", "[[0],[0,1]]", "--size", "2"), "filters-classify"),
        (("filters", "generate", "[[0]]", "--size", "2"), "filters-generate"),
        (("transfer", "forall x in N, x + 1 in N", "--structure", "N", "--star"), "transfer"),
        (("transfer", "x in N", "--structure", "N"), "transfer"),
        (("hilbert", "[eps, eps]"), "hilbert"),
        (("hilbert", "[1, 0]", "[0, 1]"), "hilbert"),
    ]
    for argv, schema_name in cases:
        code, out, _ = run_cli(*argv, "--json")
        assert code == 0, argv
        payload = json.loads(out)
        check_envelope(payload, schema_name)


def test_json_error_envelope():
    code, out, _ = run_cli("shadow", "w", "--json")
    payload = json.loads(out)
    assert code == 1
    assert not payload["ok"]
    assert payload["error"]["type"] == "UnlimitedShadowError"
    check_envelope(payload, "eval")


# ---------------------------------------------------------------------------
# Exit codes and determinism


def test_domain_error_exit_code():
    code, _, err = run_cli("shadow", "w")
    assert code == 1
    assert "UnlimitedShadowError" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        run_cli("diff", "x^2")  # missing --at
    assert info.value.code == 2


def test_unknown_subcommand_exit_code():
    with pytest.raises(SystemExit) as info:
        run_cli("frobnicate")
    assert info.value.code == 2


def test_byte_identical_reruns():
    for argv in [
        ("eval", "(1+eps)^3", "--json"),
        ("filters", "enumerate", "--size", "4", "--json"),
        ("transfer", "forall x in N, x + 1 in N", "--structure", "N", "--star", "--json"),
        ("hilbert", "[1 + eps, 2]", "--json"),
    ]:
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first == second


def test_transfer_directions_via_cli():
    code, out, _ = run_cli(
        "transfer",
        "forall n in *N, |*s(n)| <= omega",
        "--structure",
        "*seq",
        "--direction",
        "backward",
        "--json",
    )
    payload = json.loads(out)
    assert payload["result"]["verdict"] == "not-transferable"
    assert payload["result"]["external_symbols"] == ["omega"]


def test_zero_exponent_denominator_is_a_parse_error():
    code, out, _ = run_cli("eval", "eps^(1/0)", "--json")
    assert code == 1
    assert len(out.splitlines()) == 1
    payload = json.loads(out)
    assert payload["error"] == {
        "type": "ParseError",
        "message": "exponent denominator must be nonzero (at position 7)",
    }
    check_envelope(payload, "eval")
    code, out, err = run_cli("eval", "eps^(0/0)")
    assert (code, out) == (1, "")
    assert err == "error: ParseError: exponent denominator must be nonzero (at position 7)\n"
