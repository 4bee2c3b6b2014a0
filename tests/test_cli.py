import argparse
import hashlib
import json
import socket
import threading
import time

import pytest

from mlmagma.cli import _build_parser, main
from mlmagma.prng import PrngConfig
from mlmagma import Params3, Vector3, make_modulus
from conftest import walk_census


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# README examples whose stdout is deterministic, pinned byte for byte.
# Long outputs are pinned by their SHA-256.
README_STDOUT = [
    ("mul --p 23 --params 9,19,1,1,2 --a 0,1,0 --b 0,0,1", "(0,3,1)\n"),
    ("pow --p 101 --params 1,1,1,1,1 --a 1,0,0 --n 5 --check-iter",
     "(31,0,0)\n"),
    ("check assoc --p 23 --params 9,19,1,1,2 --a 1,1,1 --max-n 6",
     '{"check": "assoc", "counterexample": null, "ok": true}\n'),
    ("check commute --p 23 --params 9,19,1,1,2 --a 2,3,5",
     '{"check": "commute", "counterexample": null, "ok": true}\n'),
    ("check power-identity --p 101 --params 1,1,1,1,1 --a 1,0,0",
     '{"check": "power-identity", "counterexample": null, "ok": true}\n'),
    ("sym count --max-n 6",
     "sha256:b65ce2b0315a0f6308ed562fc53cc85d87173b8adc14902cb8923c9e7f78a25e"),
    ("sym expand --n 3",
     "sha256:8e1605b0786222dbcfcfd16720170c10b1e589cf607cfad0d92f5ca30b69cecf"),
    ("orbit length --p 23 --params 9,19,1,1,2 --a 1,0,0",
     '{"cycle_rep": [0, 0, 0], "period": 11, "start": [1, 0, 0], "tail": 0}\n'),
    ("orbit search --p 61 --params 31,30,1,1,2",
     "sha256:c538ea576f7b55b892bed124ef4c64a43a8300cbeedcef3e2852cd1926cdea44"),
    ("dip solve --p 101 --params 1,1,1,1,1 --base 1,0,0 --target 63,0,0 "
     "--cap 1000", '{"cap": 1000, "exponent": 6, "steps": 6}\n'),
    ("kx demo --p 101 --params 1,1,1,1,1 --base 1,0,0 --bits 16 --seed 7",
     '{"alice_public": [64, 0, 0], "base": [1, 0, 0], "bob_public": '
     '[84, 0, 0], "dim": 3, "match": true, "mode": "multiplicative", '
     '"p": 101, "params": [1, 1, 1, 1, 1], "shared_alice": [86, 0, 0], '
     '"shared_bob": [86, 0, 0]}\n'),
]


# Every leaf subcommand's options in declaration order, with whether each
# is required.  Order fixes the usage line and the missing-argument error.
PARSER_OPTIONS = {
    "mul": [("--p", True), ("--params", True), ("--a", True), ("--b", True)],
    "pow": [("--p", True), ("--params", True), ("--a", True), ("--n", True),
            ("--check-iter", False)],
    "check assoc": [("--p", True), ("--params", True), ("--a", True),
                    ("--max-n", False)],
    "check commute": [("--p", True), ("--params", True), ("--a", True),
                      ("--max-m", False), ("--max-n", False)],
    "check power-identity": [("--p", True), ("--params", True), ("--a", True),
                             ("--max-m", False), ("--max-n", False)],
    "sym expand": [("--n", True), ("--component", False)],
    "sym verify": [],
    "sym count": [("--max-n", False)],
    "orbit length": [("--p", True), ("--params", True), ("--a", True)],
    "orbit scan": [("--p", True), ("--params", True), ("--out", False),
                   ("--json", False), ("--cap", False)],
    "orbit sweep": [("--p", True), ("--c", True), ("--d", True),
                    ("--e", True), ("--a-values", False),
                    ("--b-values", False), ("--out", False),
                    ("--json", False)],
    "orbit search": [("--p", True), ("--params", True), ("--budget", False),
                     ("--second-components", False)],
    "prng run": [("--config", True), ("--count", True), ("--format", False)],
    "prng cycle": [("--config", True), ("--cap", False)],
    "prng uniformity": [("--config", True), ("--samples", True)],
    "prng search": [("--p", True), ("--params", True), ("--pattern", True),
                    ("--trials", False), ("--rng-seed", False),
                    ("--side", False)],
    "dip solve": [("--p", True), ("--params", True), ("--base", True),
                  ("--target", True), ("--cap", True)],
    "dip timing": [("--p", True), ("--params", True), ("--exponents", False),
                   ("--samples", False), ("--out", False)],
    "kx demo": [("--p", True), ("--params", True), ("--base", True),
                ("--bits", False), ("--additive", False), ("--seed", False)],
    "kx listen": [("--p", True), ("--params", True), ("--base", True),
                  ("--bits", False), ("--additive", False),
                  ("--host", False), ("--port", True), ("--once", False)],
    "kx connect": [("--p", True), ("--params", True), ("--base", True),
                   ("--bits", False), ("--additive", False),
                   ("--host", False), ("--port", True)],
}


def _leaf_options(parser, path=()):
    """(command path, [(option, required)]) for every leaf subcommand."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), [(a.option_strings[-1], a.required)
                               for a in parser._actions
                               if not isinstance(a, argparse._HelpAction)]
        return
    for name, child in subs[0].choices.items():
        yield from _leaf_options(child, path + (name,))


def test_parser_options_per_subcommand():
    assert dict(_leaf_options(_build_parser())) == PARSER_OPTIONS


def test_readme_examples_stdout_is_pinned(capsys):
    for command, expected in README_STDOUT:
        code, out, _ = run(capsys, *command.split())
        assert code == 0, command
        if expected.startswith("sha256:"):
            got = "sha256:" + hashlib.sha256(out.encode()).hexdigest()
            assert got == expected, (command, out)
        else:
            assert out == expected, command


def test_mul(capsys):
    code, out, _ = run(capsys, "mul", "--p", "23", "--params", "9,19,1,1,2",
                       "--a", "0,1,0", "--b", "0,0,1")
    assert code == 0
    assert out.strip() == "(0,3,1)"


def test_pow_with_cross_check(capsys):
    code, out, _ = run(capsys, "pow", "--p", "101", "--params", "1,1,1,1,1",
                       "--a", "1,0,0", "--n", "5", "--check-iter")
    assert code == 0
    assert out.strip() == "(31,0,0)"


def test_mul_dim4(capsys):
    code, out, _ = run(capsys, "mul", "--p", "7", "--params", "1,1,1,1,1,1,1,1,1",
                       "--a", "1,1,1,1", "--b", "1,1,1,1")
    assert code == 0
    assert out.strip() == "(2,0,0,0)"


def test_error_exit_code(capsys):
    code, _, err = run(capsys, "mul", "--p", "21", "--params", "1,1,1,1,1",
                       "--a", "1,0,0", "--b", "0,1,0")
    assert code == 2
    assert "not prime" in err


def test_check_commands(capsys):
    code, out, _ = run(capsys, "check", "assoc", "--p", "23",
                       "--params", "9,19,1,1,2", "--a", "1,1,1", "--max-n", "5")
    assert code == 0
    assert json.loads(out)["ok"] is True
    code, out, _ = run(capsys, "check", "power-identity", "--p", "101",
                       "--params", "1,1,1,1,1", "--a", "1,0,0",
                       "--max-m", "6", "--max-n", "6")
    assert code == 0


def test_sym_commands(capsys):
    code, out, _ = run(capsys, "sym", "verify")
    assert code == 0 and json.loads(out)["ok"] is True
    code, out, _ = run(capsys, "sym", "count", "--max-n", "4")
    doc = json.loads(out)
    assert [row["a_monomials"] for row in doc["counts"]] == [1, 5, 13, 26]
    code, out, _ = run(capsys, "sym", "expand", "--n", "2", "--component", "0")
    assert code == 0
    assert out.startswith("# component 0:")


@pytest.mark.parametrize("max_n", ("0", "-1"))
def test_sym_count_below_one_rejected(capsys, max_n):
    code, out, err = run(capsys, "sym", "count", "--max-n", max_n)
    assert (code, out) == (2, "")
    assert err == f"mlmagma: error: max-n must be at least 1, got {max_n}\n"


def test_orbit_commands(capsys, tmp_path):
    code, out, _ = run(capsys, "orbit", "length", "--p", "23",
                       "--params", "9,19,1,1,2", "--a", "1,0,0")
    assert json.loads(out)["period"] == 11
    csv_path, json_path = tmp_path / "census.csv", tmp_path / "census.json"
    code, out, _ = run(capsys, "orbit", "scan", "--p", "7",
                       "--params", "6,1,1,1,2", "--out", str(csv_path),
                       "--json", str(json_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["total_starts"] == 343
    assert csv_path.exists()
    assert json.loads(json_path.read_text()) == doc
    code, out, _ = run(capsys, "orbit", "search", "--p", "23",
                       "--params", "9,19,1,1,2")
    assert code == 0
    assert json.loads(out)["found"]


def test_orbit_scan_stdout_matches_walk_oracle(capsys):
    code, out, _ = run(capsys, "orbit", "scan", "--p", "23",
                       "--params", "9,19,1,1,2")
    assert code == 0
    doc = json.loads(out)
    expected = walk_census(Params3(9, 19, 1, 1, 2, make_modulus(23))).to_dict()
    assert doc.pop("engine") == "plane"
    assert expected.pop("engine") == "walk"
    assert doc == expected


def test_prng_search_at_large_p(capsys):
    """composite_period factors p² + p + 1 (~2^62) by Pollard rho."""
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "prng", "search", "--p", str(2**31 - 1),
                       "--params", "19,18,1,1,2", "--pattern", "0,1",
                       "--trials", "1")
    assert code == 0
    assert time.perf_counter() - t0 < 5.0
    assert len(json.loads(out)["leaderboard"]) == 1


def test_prng_search_rejects_four_components(capsys):
    code, out, err = run(capsys, "prng", "search", "--p", "23",
                         "--params", "1,2,3,4,5,6,7,8,9", "--pattern", "0,1",
                         "--trials", "2")
    assert code == 2 and out == ""
    assert "3-component" in err


def test_prng_search_rejects_four_components_with_zero_trials(capsys):
    code, out, err = run(capsys, "prng", "search", "--p", "23",
                         "--params", "1,2,3,4,5,6,7,8,9", "--pattern", "0,1",
                         "--trials", "0")
    assert code == 2 and out == ""
    assert "3-component" in err


def test_prng_search_rejects_negative_pattern_index(capsys):
    for trials in ("0", "1"):
        code, out, err = run(capsys, "prng", "search", "--p", "23",
                             "--params", "1,2,3,4,5", "--pattern", "-1",
                             "--trials", trials)
        assert code == 2 and out == ""
        assert "pattern index -1 must be non-negative" in err


def test_orbit_four_components(capsys):
    code, out, _ = run(capsys, "orbit", "length", "--p", "5",
                       "--params", "1,2,3,4,0,1,2,3,4", "--a", "0,1,2,3")
    assert code == 0
    assert len(json.loads(out)["cycle_rep"]) == 4
    code, out, err = run(capsys, "orbit", "scan", "--p", "5",
                         "--params", "1,2,3,4,0,1,2,3,4")
    assert code == 2 and out == ""
    assert "3-component" in err


def test_orbit_scan_budget_error(capsys):
    code, _, err = run(capsys, "orbit", "scan", "--p", "131",
                       "--params", "1,1,1,1,2")
    assert code == 2
    assert "cap" in err


def test_orbit_sweep(capsys, tmp_path):
    out_csv = tmp_path / "sweep.csv"
    out_json = tmp_path / "sweep.json"
    code, out, _ = run(capsys, "orbit", "sweep", "--p", "5",
                       "--c", "1", "--d", "1", "--e", "2",
                       "--out", str(out_csv), "--json", str(out_json))
    assert code == 0
    doc = json.loads(out)
    assert doc["pairs"] == 25
    assert out_csv.exists() and out_json.exists()
    assert "aggregate_walk" in doc


def test_orbit_sweep_rejects_empty_values(capsys):
    """`--a-values ,` and `--a-values=` both name no value; neither may
    fall back to sweeping all of Z_p."""
    for flag in ("--a-values", "--b-values"):
        for values in ([flag, ","], [flag + "="], [flag, ""]):
            code, out, err = run(capsys, "orbit", "sweep", "--p", "5",
                                 "--c", "1", "--d", "1", "--e", "2", *values)
            assert code == 2 and out == "", values
            name = flag[2:].replace("-", "_")
            assert err == f"mlmagma: error: {name} must not be empty\n"


def test_empty_list_field_is_refused(capsys):
    """A list that mixes empty and non-empty fields names no instance;
    it is refused, not read as the list without its empty fields."""
    mul = ["mul", "--p", "23", "--params", "9,19,1,1,2",
           "--a", "0,1,0", "--b", "0,0,1"]
    for i, bad in ((4, "9,,19,1,1,2"), (6, "0,1,,0"), (8, "0,0,1,")):
        code, out, err = run(capsys, *mul[:i], bad, *mul[i + 1:])
        assert code == 2 and out == "", bad
        assert err == f"mlmagma: error: empty field in integer list '{bad}'\n"
    code, out, err = run(capsys, "orbit", "sweep", "--p", "5", "--c", "1",
                         "--d", "1", "--e", "2", "--a-values", "1,,2,",
                         "--b-values", ",1")
    assert code == 2 and out == ""
    assert err == "mlmagma: error: empty field in integer list '1,,2,'\n"


def test_orbit_sweep_rejects_repeated_values(capsys):
    for flag, values in (("--a-values", "1,1,2"), ("--b-values", "0,4,0")):
        code, out, err = run(capsys, "orbit", "sweep", "--p", "5", "--c", "1",
                             "--d", "1", "--e", "2", flag, values)
        assert code == 2 and out == ""
        name = flag[2:].replace("-", "_")
        value = values.split(",")[0]
        assert err == f"mlmagma: error: {name} value {value} given twice\n"


def prng_config_file(tmp_path):
    m = make_modulus(37)
    cfg = PrngConfig(Params3(19, 18, 1, 1, 2, m),
                     (Vector3(0, 1, 5, m), Vector3(0, 2, 7, m)),
                     (0, 1), Vector3(3, 1, 4, m))
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json())
    return str(path)


def test_prng_commands(capsys, tmp_path):
    path = prng_config_file(tmp_path)
    code, out, _ = run(capsys, "prng", "run", "--config", path,
                       "--count", "5")
    lines = out.strip().splitlines()
    assert lines[0] == "step,x0,x1,x2"
    assert len(lines) == 6
    code, out, _ = run(capsys, "prng", "cycle", "--config", path)
    doc = json.loads(out)
    assert doc["period"] is not None and doc["period"] % 2 == 0
    code, out, _ = run(capsys, "prng", "uniformity", "--config", path,
                       "--samples", "2000")
    assert "max_relative_deviation" in json.loads(out)
    code, out, _ = run(capsys, "prng", "search", "--p", "37",
                       "--params", "19,18,1,1,2", "--pattern", "0,1",
                       "--trials", "10", "--rng-seed", "3")
    doc = json.loads(out)
    assert doc["max_period"] == 37**3 * 2
    assert len(doc["leaderboard"]) <= 10


@pytest.mark.parametrize("key, value, message", [
    ("seeds", [[0, 1, 5, 2], [0, 2, 7]], "dimension mismatch"),
    ("initial", [3, 1], "expected 3 or 4 components"),
    ("seeds", 5, "seeds a list of vectors"),
    ("pattern", ["a"], "pattern must be a list of integers"),
])
def test_prng_malformed_config(capsys, tmp_path, key, value, message):
    path = prng_config_file(tmp_path)
    with open(path) as fh:
        doc = json.load(fh)
    doc[key] = value
    with open(path, "w") as fh:
        json.dump(doc, fh)
    code, out, err = run(capsys, "prng", "run", "--config", path,
                         "--count", "3")
    assert code == 2 and out == ""
    assert err.startswith("mlmagma: error:") and message in err


def test_prng_cycle_at_large_p(capsys, tmp_path):
    """The exact tail and period come from the pass algebra: a period of
    ~2^32 at p = 2^31 − 1 prints at once, where a walk would not end."""
    path = tmp_path / "cfg.json"
    path.write_text('{"p": 2147483647, "params": [19, 18, 1, 1, 2], '
                    '"seeds": [[0, 1, 5], [0, 2, 7]], "pattern": [0, 1], '
                    '"initial": [3, 1, 4]}')
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "prng", "cycle", "--config", str(path))
    assert code == 0
    assert time.perf_counter() - t0 < 5.0
    assert out == ('{"exceeded_cap": false, "period": 4294967292, '
                   '"state_space": 19807040600895968300706562046, '
                   '"tail": 0}\n')
    code, out, _ = run(capsys, "prng", "cycle", "--config", str(path),
                       "--cap", "4294967291")
    assert json.loads(out)["exceeded_cap"] is True


def test_prng_uniformity_stdout_is_pinned(capsys, tmp_path):
    """C13's config (period 101304 < 10^6, so the count folds whole
    periods): the summary is pinned byte for byte, chi-square floats
    included, since the counts are those of stepping every output."""
    path = tmp_path / "cfg.json"
    path.write_text('{"initial": [32, 8, 33], "p": 37, '
                    '"params": [19, 18, 1, 1, 2], "pattern": [0, 1], '
                    '"seeds": [[0, 1, 0], [0, 2, 24]]}')
    code, out, _ = run(capsys, "prng", "uniformity", "--config", str(path),
                       "--samples", "1000000")
    assert code == 0
    assert out == ('{"chi_square": [0.36663199999999974, 0.6842399999999997, '
                   '0.6566379999999996], "max_relative_deviation": '
                   '0.0015900000000000146, "p": 37, "samples": 1000000}\n')


def test_prng_uniformity_zero_samples(capsys, tmp_path):
    code, out, err = run(capsys, "prng", "uniformity", "--config",
                         prng_config_file(tmp_path), "--samples", "0")
    assert code == 2 and out == ""
    assert "samples must be at least 1" in err


def test_prng_bytes_zero_and_negative_count(capsys, tmp_path):
    path = prng_config_file(tmp_path)
    code, out, err = run(capsys, "prng", "run", "--config", path,
                         "--count", "0", "--format", "bytes")
    assert (code, out, err) == (0, "", "")
    code, out, err = run(capsys, "prng", "run", "--config", path,
                         "--count", "-1", "--format", "bytes")
    assert code == 2 and out == ""
    assert "must be non-negative" in err


def test_prng_negative_count_and_cap(capsys, tmp_path):
    path = prng_config_file(tmp_path)
    code, out, err = run(capsys, "prng", "run", "--config", path,
                         "--count", "-1")
    assert code == 2 and out == ""
    assert err.startswith("mlmagma: error:") and "non-negative" in err
    code, out, err = run(capsys, "prng", "cycle", "--config", path,
                         "--cap", "-5")
    assert code == 2 and out == ""
    assert err.startswith("mlmagma: error:") and "cap must be at least 1" in err


def test_negative_search_counts(capsys):
    for name, argv in (
            ("budget", ("orbit", "search", "--p", "23", "--params",
                        "9,19,1,1,2", "--budget", "-3")),
            ("trials", ("prng", "search", "--p", "37", "--params",
                        "19,18,1,1,2", "--pattern", "0,1", "--trials", "-2"))):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("mlmagma: error:")
        assert f"{name} must be non-negative" in err


def test_dip_commands(capsys, tmp_path):
    code, out, _ = run(capsys, "dip", "solve", "--p", "101",
                       "--params", "1,1,1,1,1", "--base", "1,0,0",
                       "--target", "63,0,0", "--cap", "1000")
    assert code == 0
    assert json.loads(out)["exponent"] == 6
    # not-found exits nonzero
    code, out, _ = run(capsys, "dip", "solve", "--p", "101",
                       "--params", "1,1,1,1,1", "--base", "1,0,0",
                       "--target", "0,0,0", "--cap", "50")
    assert code == 1
    out_csv = tmp_path / "timing.csv"
    code, out, _ = run(capsys, "dip", "timing", "--p", "257",
                       "--params", "129,128,1,1,2",
                       "--exponents", "256,512,1024", "--samples", "1",
                       "--out", str(out_csv))
    assert code == 0
    assert out_csv.exists()
    code, out, err = run(capsys, "dip", "timing", "--p", "101",
                         "--params", "1,1,1,1,1", "--exponents", "4",
                         "--samples", "0")
    assert code == 2 and out == ""
    assert err.startswith("mlmagma: error:")
    assert "samples must be at least 1" in err
    for exponents in ("", "0"):
        code, out, err = run(capsys, "dip", "timing", "--p", "101",
                             "--params", "1,1,1,1,1",
                             "--exponents", exponents)
        assert code == 2 and out == ""
        assert err.startswith("mlmagma: error:")
        assert "exponents must be a non-empty list of integers >= 1" in err


def test_kx_demo(capsys):
    code, out, _ = run(capsys, "kx", "demo", "--p", "101",
                       "--params", "1,1,1,1,1", "--base", "1,0,0",
                       "--bits", "8", "--seed", "7")
    doc = json.loads(out)
    assert code == 0 and doc["match"] is True
    assert doc["shared_alice"] == doc["shared_bob"]
    code, out, _ = run(capsys, "kx", "demo", "--p", "101",
                       "--params", "1,1,1,1,1", "--base", "1,0,0",
                       "--bits", "8", "--seed", "7", "--additive")
    assert json.loads(out)["mode"] == "additive"


@pytest.mark.parametrize("base", ("100,0,0", "96,9,0"))
def test_kx_base_constant_from_the_square_rejected(capsys, base):
    code, out, err = run(capsys, "kx", "demo", "--p", "101", "--params",
                         "1,1,1,1,1", "--base", base, "--seed", "3")
    assert (code, out) == (2, "")
    assert err.startswith("mlmagma: error:") and "a² = a³" in err


def test_kx_bits_above_64_rejected_without_leaking_a_secret(capsys):
    """At --seed 7 the first 65-bit draw would be 35931773795037525048;
    the size is refused before any draw, so no error can print it."""
    base = ("--p", "101", "--params", "1,1,1,1,1", "--base", "1,0,0",
            "--bits", "65")
    for argv in (("kx", "demo", *base, "--seed", "7"),
                 ("kx", "listen", *base, "--port", "0", "--once")):
        code, out, err = run(capsys, *argv)
        # only the error: listen refuses before it announces a listener
        assert (code, out) == (2, "")
        assert err == "mlmagma: error: exponent_bits must be in [2, 64], got 65\n"


@pytest.mark.parametrize("port", ("70000", "-1"))
def test_kx_port_outside_tcp_range_rejected(capsys, port):
    base = ("--p", "101", "--params", "1,1,1,1,1", "--base", "1,0,0",
            "--bits", "8", "--port", port)
    for argv in (("kx", "listen", *base, "--once"),
                 ("kx", "connect", *base, "--host", "127.0.0.1")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"mlmagma: error: port must be in [0, 65535], got {port}\n"


def test_kx_listen_on_port_0_announces_a_free_port(capsys):
    """--port 0 binds a free port, which the stderr announcement names
    and a connect can reach."""
    base = ["--p", "101", "--params", "1,1,1,1,1", "--base", "1,0,0",
            "--bits", "8"]
    server = threading.Thread(
        target=main, args=(["kx", "listen", *base, "--port", "0", "--once"],),
        daemon=True)
    server.start()
    err, deadline = "", time.time() + 5
    while "listening on" not in err and time.time() < deadline:
        time.sleep(0.02)
        err += capsys.readouterr().err
    port = int(err.split("listening on 127.0.0.1:")[1].split()[0])
    assert 0 < port <= 65535
    code = main(["kx", "connect", *base, "--host", "127.0.0.1",
                 "--port", str(port)])
    server.join(timeout=5)
    assert code == 0 and '"shared"' in capsys.readouterr().out


def test_kx_listen_connect(capsys):
    # race-free: grab a free port first, then start the CLI listener on it
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    args = ["kx", "listen", "--p", "101", "--params", "1,1,1,1,1",
            "--base", "1,0,0", "--bits", "8", "--port", str(port), "--once"]
    server = threading.Thread(target=main, args=(args,), daemon=True)
    server.start()
    import time
    deadline = time.time() + 5
    code = None
    while time.time() < deadline:
        # exit code 2 until the listener thread has bound the port
        code = main(["kx", "connect", "--p", "101", "--params", "1,1,1,1,1",
                     "--base", "1,0,0", "--bits", "8", "--host", "127.0.0.1",
                     "--port", str(port)])
        if code == 0:
            break
        time.sleep(0.05)
    server.join(timeout=5)
    out = capsys.readouterr().out
    assert code == 0
    assert '"shared"' in out
