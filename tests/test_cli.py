"""Command-line surface: parsing, envelopes, formats, exit codes.

Every JSON envelope is validated against the bundled schema, and CSV
output is required to agree with the JSON records cell by cell, so the
two formats can never drift apart silently.
"""

import concurrent.futures
import csv
import dataclasses
import hashlib
import importlib.resources
import io
import json
import math
from concurrent.futures.process import BrokenProcessPool

import pytest
import jsonschema

from splitlaw import (
    PolynomialSyntaxError,
    __version__,
    factorize,
    reciprocity,
    sieve_primes,
)
from splitlaw.cli import _cell, main, parse_polynomial


@pytest.fixture(scope="module")
def schema():
    text = (
        importlib.resources.files("splitlaw")
        .joinpath("report.schema.json")
        .read_text()
    )
    return json.loads(text)


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def run_json(capsys, schema, *argv):
    status, out, _ = run_cli(capsys, *argv)
    assert status == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema)
    return doc


# ---------------------------------------------------------------------------
# Polynomial text input
# ---------------------------------------------------------------------------


def test_parse_symbolic_forms():
    assert parse_polynomial("x^3 - 2").coeffs == (-2, 0, 0, 1)
    assert parse_polynomial("x^3-2").coeffs == (-2, 0, 0, 1)
    assert parse_polynomial("3*x^2 - x").coeffs == (0, -1, 3)
    assert parse_polynomial("2x^2+x-7").coeffs == (-7, 1, 2)
    assert parse_polynomial("x").coeffs == (0, 1)
    assert parse_polynomial("-x + x").coeffs == ()
    assert parse_polynomial("5").coeffs == (5,)
    assert parse_polynomial(" - 4 ").coeffs == (-4,)


def test_parse_unicode_minus():
    assert parse_polynomial("x^3 − 2").coeffs == (-2, 0, 0, 1)


def test_parse_coefficient_list():
    assert parse_polynomial("-2,0,0,1").coeffs == (-2, 0, 0, 1)
    assert parse_polynomial(" -2 , 0 , 0 , 1 ").coeffs == (-2, 0, 0, 1)


def test_parse_str_roundtrip():
    for text in ("x^3 - 2", "2*x^5 + x^2 - 3", "x^7 + 11*x - 1"):
        f = parse_polynomial(text)
        assert parse_polynomial(str(f)) == f


@pytest.mark.parametrize(
    "text,position",
    [
        ("x^3 + + 2", 6),
        ("", 0),
        ("x^", 2),
        ("3*y", 2),
        ("x +", 3),
        ("x^3 2", 4),
    ],
)
def test_parse_errors_carry_positions(text, position):
    with pytest.raises(PolynomialSyntaxError) as info:
        parse_polynomial(text)
    assert info.value.position == position


def test_parse_coefficient_list_error_position():
    with pytest.raises(PolynomialSyntaxError) as info:
        parse_polynomial("1, a, 3")
    assert info.value.position == 2


def test_sieve_reexport_counts():
    assert len(sieve_primes(10**5)) == 9592
    assert sieve_primes(13) == [2, 3, 5, 7, 11, 13]


# ---------------------------------------------------------------------------
# Envelope and schema
# ---------------------------------------------------------------------------


def test_schema_is_itself_valid(schema):
    jsonschema.Draft7Validator.check_schema(schema)


def test_factor_envelope(capsys, schema):
    doc = run_json(capsys, schema, "factor", "x^3-2", "-p", "31")
    assert doc["tool"] == "splitlaw"
    assert doc["version"] == __version__
    assert doc["command"] == "factor"
    assert doc["generated_at"] is None
    assert doc["config"]["prime"] == 31
    assert doc["config"]["seed"] == 271828
    assert "workers" not in doc["config"] and "output" not in doc["config"]
    payload = doc["payload"]
    assert payload["all_linear"] is True
    assert [f["coefficients"] for f in payload["factors"]] == [
        [11, 1],
        [24, 1],
        [27, 1],
    ]


def test_all_commands_validate(capsys, schema):
    for argv in (
        ["factor", "x^5+1", "-p", "5"],
        ["torsion", "x^3-2", "-p", "31"],
        ["verify", "x^3-2", "--bound", "100"],
        ["spl", "x^3-2", "--bound", "100"],
        ["density", "x^3-2", "--bound", "200", "--group-order", "6"],
        ["include", "x^3-2", "x^2+3", "--bound", "100"],
        ["frobenius", "x^3-2", "--bound", "50"],
        ["blowup", "--genus", "2", "--coeffs", "1,2,3,4,5", "-p", "7"],
    ):
        run_json(capsys, schema, *argv)


def test_verify_payload_values(capsys, schema):
    doc = run_json(capsys, schema, "verify", "x^3-2", "--bound", "100")
    payload = doc["payload"]
    assert payload["spl"] == [31, 43]
    assert payload["verdict"] is True
    assert payload["violations"] == []
    assert payload["density"] == {
        "numerator": 2,
        "denominator": 23,
        "value": 2 / 23,
    }
    assert payload["good_count"] == len(payload["records"]) == 23


def test_torsion_payload_values(capsys, schema):
    doc = run_json(capsys, schema, "torsion", "x^3-2", "-p", "31")
    payload = doc["payload"]
    assert payload["rank"] == 2 and payload["count"] == 4
    us = sorted(tuple(e["u"]) for e in payload["elements"])
    assert (1,) in us  # the identity class
    assert all(e["v"] == [] for e in payload["elements"])


def test_stamp_opts_into_timestamps(capsys, schema):
    plain = run_json(capsys, schema, "spl", "x^3-2", "--bound", "50")
    stamped = run_json(capsys, schema, "spl", "x^3-2", "--bound", "50", "--stamp")
    assert plain["generated_at"] is None
    assert isinstance(stamped["generated_at"], str)
    assert stamped["config"]["stamp"] is True
    stamped["generated_at"] = None
    stamped["config"]["stamp"] = False
    assert stamped == plain


def test_output_flag_writes_file(tmp_path, capsys, schema):
    target = tmp_path / "report.json"
    status, out, _ = run_cli(
        capsys, "spl", "x^3-2", "--bound", "50", "-o", str(target)
    )
    assert status == 0 and out == ""
    doc = json.loads(target.read_text())
    jsonschema.validate(doc, schema)
    assert doc["payload"]["primes"] == [{"p": 31}, {"p": 43}]


def test_repeated_runs_are_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "verify", "x^3-2", "--bound", "300")
    _, second, _ = run_cli(capsys, "verify", "x^3-2", "--bound", "300")
    assert first == second


# sha256 of each report file, pinned so that any change to report bytes
# fails here; None when the command exits 1 before writing one. The Frobenius
# sweeps run at two seeds because their root order depends on the seed.
PINNED_REPORTS = [
    ("verify x^3-2 --bound 3000", 271828, 0,
     "8279fd4a48889449fda94dbe5d48c1d3b30cd0fd0805e303ec3286580c4e9b42"),
    ("verify 3,1,-4,1,5,-9,1,1 --bound 400", 271828, 0,
     "a79168d166d2204b483fdac80a9fa3061307b73f607dbb20db4d43d6cf2b53c3"),
    ("frobenius x^5-x-1 --bound 100", 271828, 0,
     "45c29130c9411351ec57651da0605d305f13d24d68786706ac417f4923453f07"),
    ("frobenius x^5-x-1 --bound 100", 314159, 0,
     "c378223ee3c54fc20deb44282aec49a9c6a4c5afcd784eebe49302a9f928eabf"),
    ("frobenius 3,1,-4,1,5,-9,1,1 --bound 30", 271828, 0,
     "a58e9bbd495dd263f37eb0a8c9c2dfb665326baf76cece5afa62e9c239c82c1c"),
    ("frobenius 3,1,-4,1,5,-9,1,1 --bound 30", 314159, 0,
     "c66a5216886922515d673fb6c75805dcef069423fe97420e8fbb641f5a6a39a6"),
    ("torsion x^5-x-1 -p 43", 271828, 0,
     "f9c824a8c51d3d6ecb2ebddd826aa1de7c9b7f153053cf2051f05199de7849a0"),
    ("factor x^5-x-1 -p 31", 271828, 0,
     "ed377201f8c651460c9ca6a7e6b02a99b483c8bfa5b09fa374df7afdcbe7e1f1"),
    ("density x^3-2 --group-order 6 --bound 20000", 271828, 0,
     "be4f0d6ba3379532a8bcf1cdf80345c10361a490f8ee4faefa49253a2a6ca57d"),
    ("spl x^3-2 --bound 2000", 271828, 0,
     "c12ef59c58f62c831c30cf524bf042d9ed6ac51ab9b2b087bf763765ff6f68e7"),
    ("include x^6+108 x^3-2 --bound 3000", 271828, 0,
     "d0dd4f050145b8c67487455b0333143d7b111e9dd7510bdb886e4364743ecc1f"),
    ("blowup --genus 3 --coeffs 1,2,3,4,5,6,7 -p 11", 271828, 0,
     "b7cdb3f84a3002915f5805d9e70b3135d7fef206197b3951c24ce46192a2f959"),
    ("frobenius x^5-x-1 --bound 100 --ext-cap 2", 271828, 1, None),
    ("frobenius x^2+1 --bound 50", 271828, 1, None),
]


@pytest.mark.parametrize("command, seed, status, digest", PINNED_REPORTS)
def test_reports_match_pinned_digests(tmp_path, command, seed, status, digest):
    target = tmp_path / "report.json"
    argv = command.split() + ["--seed", str(seed), "-o", str(target)]
    assert main(argv) == status
    if digest is None:
        assert not target.exists()
    else:
        assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


# sha256 of the CSV and text renderings, pinned like the JSON reports above;
# these formats carry no config echo, so they pin the payloads alone.
PINNED_RENDERINGS = [
    ("verify x^3-2 --bound 300", "csv",
     "7dc4e8679590e26c1cd6eef1063c090a45c1fc07763a30f4d2aa71be6b465b00"),
    ("frobenius x^5-x-1 --bound 60", "csv",
     "df070be2357e46fd7c34d5c237e7471732c194c3ec60d63a655b5dacbf460a62"),
    ("factor x^5-x-1 -p 31", "csv",
     "4b59b7570ae738fa73604b8ee5b8202610b16cc19c46cbd6a7a4437882847730"),
    ("torsion x^5-x-1 -p 43", "csv",
     "5cf0d23ecb136b17546433e76b6c2293b425bd18673657b67eadeb53c9951287"),
    ("density x^3-2 --group-order 6 --bound 2000", "csv",
     "f801057436be4d66d51bd767babbc127981bca9b3b8cca141827acbfd2322c0b"),
    ("include x^6+108 x^3-2 --bound 300", "csv",
     "fd6641673e7f3bf6e80e4bc5401fcb2821a1e117206c8e1c65cef23a58dc37ff"),
    ("blowup --genus 3 --coeffs 1,2,3,4,5,6,7 -p 11", "csv",
     "fe4c591899b533bb9fe8470f57a3d53b0307781bbbf336c4f145f002d2d968d0"),
    ("verify x^3-2 --bound 300", "text",
     "b98748e03bf382783cbde53b1840b1e8ddeff0e226a7058ddff8a2d34c786e31"),
    ("frobenius x^5-x-1 --bound 60", "text",
     "982d8c4ebb10587f169506ed69ebb0178a1b7e24f6781f738667768099fb3bb2"),
    ("factor x^5-x-1 -p 31", "text",
     "8181380229bad0938615c91349475b6e3f6b3ee12497d3a10d768f379804cfc0"),
    ("torsion x^5-x-1 -p 43", "text",
     "93cc124a06acf341a3342dcb65e758a3361f534dba2746c6765c4b8dd79b3c0e"),
    ("density x^3-2 --group-order 6 --bound 2000", "text",
     "8c29063b638c214ac0a249f25a8ac4964c330020294eb7a571a584c9d0bf9453"),
    ("include x^6+108 x^3-2 --bound 300", "text",
     "4c49fcc9e34912dc3ddf7b8fd40fce51075c3715fa3a1829bb421beb5aa482d7"),
    ("blowup --genus 3 --coeffs 1,2,3,4,5,6,7 -p 11", "text",
     "539a38d1bcb473a88c226c524200fd7cc994fee754a8f8aac175eb44f62e0177"),
]


@pytest.mark.parametrize("command, fmt, digest", PINNED_RENDERINGS)
def test_renderings_match_pinned_digests(tmp_path, command, fmt, digest):
    target = tmp_path / f"report.{fmt}"
    argv = command.split() + ["--format", fmt, "--seed", "271828", "-o", str(target)]
    assert main(argv) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# CSV and text formats
# ---------------------------------------------------------------------------


def csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


def test_csv_matches_json_records(capsys, schema):
    for argv, key in (
        (["verify", "x^3-2", "--bound", "100"], "records"),
        (["factor", "x^5+1", "-p", "7"], "factors"),
        (["frobenius", "x^3-2", "--bound", "50"], "records"),
        (["density", "x^3-2", "--bound", "100", "--group-order", "6"], "records"),
        (["blowup", "--genus", "3", "--coeffs", "1,2,3,4,5,6,7", "-p", "11"], "charts"),
    ):
        doc = run_json(capsys, schema, *argv)
        status, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert status == 0
        header, *rows = csv_rows(out)
        records = doc["payload"][key]
        assert len(rows) == len(records)
        for row, record in zip(rows, records):
            for name, cell in zip(header, row):
                assert cell == _cell(record[name]), (argv, name)


@pytest.mark.parametrize(
    "command, header",
    [
        ("verify", "p,splitting,torsion_rank,splits_completely,law_consistent"),
        (
            "frobenius",
            "p,splitting_degree,matrix,order,permutation,permutation_order,"
            "is_identity,splits_completely",
        ),
    ],
)
def test_csv_of_an_empty_sweep_is_its_header(capsys, command, header):
    status, out, _ = run_cli(capsys, command, "x^3-2", "--bound", "2", "--format", "csv")
    assert status == 0
    assert out == header + "\n"


@pytest.mark.parametrize(
    "text, bound", [("x^3-2", 200), ("x^5-x-1", 200), ("3,1,-4,1,5,-9,1,1", 60)]
)
def test_frobenius_sweep_is_the_command_records(capsys, schema, text, bound):
    f = parse_polynomial(text)
    records = reciprocity.frobenius_sweep(f, bound, seed=11)
    primes = [r.p for r in records]
    assert primes == sorted(primes) == reciprocity.good_primes(f, bound)
    assert all(r.is_identity == r.splits_completely for r in records)
    doc = run_json(capsys, schema, "frobenius", text, "--bound", str(bound), "--seed", "11")
    # JSON has no tuples; a round trip makes the record fields comparable
    as_json = json.loads(json.dumps([dataclasses.asdict(r) for r in records]))
    assert as_json == doc["payload"]["records"]


def test_text_format_mentions_the_command(capsys):
    status, out, _ = run_cli(
        capsys, "density", "x^3-2", "--bound", "100", "--format", "text"
    )
    assert status == 0
    assert out.startswith("splitlaw density")
    assert "exit: 0" in out


# ---------------------------------------------------------------------------
# Exit codes and diagnostics
# ---------------------------------------------------------------------------


def test_usage_errors_exit_one(capsys):
    status, _, err = run_cli(capsys, "verify", "x^4+1", "--bound", "100")
    assert status == 1 and "EvenDegree" in err

    status, _, err = run_cli(capsys, "verify", "x^3 + + 2", "--bound", "100")
    assert status == 1 and "position 6" in err

    status, _, err = run_cli(capsys, "verify", "x^3-2", "--bound", "1")
    assert status == 1 and "bound" in err

    status, _, err = run_cli(capsys, "factor", "x^3-2", "-p", "9")
    assert status == 1

    status, _, err = run_cli(capsys, "frobenius", "x^4+1", "--bound", "50")
    assert status == 1 and "EvenDegree" in err

    # refused before any prime is visited, so also when the range is empty
    status, _, err = run_cli(capsys, "frobenius", "x^4+1", "--bound", "2")
    assert status == 1 and "EvenDegree" in err

    status, _, err = run_cli(capsys, "frobenius", "x^3-1", "--bound", "20")
    assert status == 1 and "NotIrreducible" in err

    status, _, err = run_cli(capsys, "blowup", "--genus", "2", "--coeffs", "1,q", "-p", "7")
    assert status == 1

    # a polynomial that vanishes mod p has no degree to report on
    for command, poly in (("torsion", "7"), ("torsion", "0"), ("factor", "7")):
        status, _, err = run_cli(capsys, command, poly, "-p", "7")
        assert status == 1 and "polynomial vanishes identically mod 7" in err


def test_bad_limits_are_refused_before_any_work(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a sieve or pool started before the limits were checked")

    monkeypatch.setattr(reciprocity, "sieve_primes", refuse)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    for workers in ("0", "-3"):
        status, _, err = run_cli(
            capsys, "verify", "x^3-2", "--bound", "100", "--workers", workers
        )
        assert status == 1 and "workers" in err
    status, _, err = run_cli(capsys, "verify", "x^3-2", "--bound", "2147483648")
    assert status == 1 and "bound" in err
    for order in ("0", "-3"):
        status, out, err = run_cli(
            capsys, "density", "x^3-2", "--bound", "1000000", "--group-order", order
        )
        assert (status, out, err) == (1, "", "error: group order must be positive\n")
    for cap in ("0", "-1"):
        status, _, err = run_cli(
            capsys, "frobenius", "x^5-x-1", "--bound", "100", "--ext-cap", cap
        )
        assert status == 1 and "ext-cap" in err


# the per-prime entry point each sweep calls, and how to read p off its arguments
PER_PRIME_WORK = [
    ("verify", reciprocity, "two_torsion_points", lambda C, **kw: C.f.ctx.p),
    ("frobenius", reciprocity, "frobenius_permutation", lambda f, p, *a, **kw: p),
]


@pytest.mark.parametrize(
    "error",
    [RuntimeError, BrokenProcessPool, AssertionError, ZeroDivisionError, ValueError],
)
@pytest.mark.parametrize("command, module, name, prime_of", PER_PRIME_WORK)
def test_internal_failure_exits_three(
    monkeypatch, capsys, tmp_path, error, command, module, name, prime_of
):
    real = getattr(module, name)

    def fail_at_7(*args, **kwargs):
        if prime_of(*args, **kwargs) == 7:
            raise error("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, fail_at_7)
    target = tmp_path / "report.json"
    status, out, err = run_cli(
        capsys, command, "x^3-2", "--bound", "50", "--seed", "11", "-o", str(target)
    )
    assert status == 3
    assert err == f"error: internal: {error.__name__}: injected (at p = 7, seed 11:7)\n"
    assert out == "" and not target.exists()


def test_torsion_factor_count_is_checked_against_the_discriminant(monkeypatch, capsys):
    # one factor too many flips (-1)^(deg f - n) away from (disc f / p) at every prime
    real = reciprocity.two_torsion_points

    def one_factor_more(C, seed):
        sub = real(C, seed=seed)
        return dataclasses.replace(sub, n=sub.n + 1)

    monkeypatch.setattr(reciprocity, "two_torsion_points", one_factor_more)
    status, out, err = run_cli(capsys, "verify", "x^3-2", "--bound", "200", "--seed", "11")
    assert status == 3 and out == ""
    assert err.startswith("error: internal: RuntimeError: ")
    assert err.endswith("(at p = 5, seed 11:5)\n")


def test_frobenius_sign_is_checked_against_the_discriminant(monkeypatch, capsys):
    # swapping two images composes with a transposition, so the sign flips
    real = reciprocity.frobenius_permutation

    def swapped(*args, **kwargs):
        perm = real(*args, **kwargs)
        perm[0], perm[1] = perm[1], perm[0]
        return perm

    monkeypatch.setattr(reciprocity, "frobenius_permutation", swapped)
    status, out, err = run_cli(capsys, "frobenius", "x^5-x-1", "--bound", "50", "--seed", "11")
    assert status == 3 and out == ""
    assert err.startswith("error: internal: RuntimeError: ")
    assert err.endswith("(at p = 3, seed 11:3)\n")


@pytest.mark.parametrize("command", ["factor", "torsion"])
def test_a_given_bad_prime_is_refused_input(capsys, command):
    # a ValueError exits 3 only from the work at one prime; -p 9 fails before it
    status, out, err = run_cli(capsys, command, "x^3-2", "-p", "9")
    assert status == 1
    assert err == "error: 9 is not prime\n" and out == ""


@pytest.mark.parametrize("text,p", [("x^3-2", "3"), ("x^3+1", "3"), ("x^3+3x^2+3x+1", "5")])
def test_torsion_refuses_a_repeated_root(capsys, text, p):
    # (x+1)^3 mod p: the refusal comes from the factorization's multiplicities
    status, out, err = run_cli(capsys, "torsion", text, "-p", p)
    assert status == 1
    assert err == "error: NotSquarefree: curve polynomial has a repeated root\n" and out == ""


def test_argparse_misuse_exits_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["factor", "x^3-2"])  # missing required -p
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert "splitlaw factor: error: the following arguments are required: -p" in err
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 1
    assert "invalid choice: 'no-such-command'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        main(["verify", "x^3-2", "--bound", "50", "--ext-cap", "5"])  # frobenius only
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert "splitlaw: error: unrecognized arguments: --ext-cap 5" in err


def test_frobenius_splitting_degree_matches_factorization(capsys, schema):
    # splitting_degree is read off the Frobenius permutation; the lcm of the
    # factor degrees of f mod p is an independent route to the same number
    doc = run_json(capsys, schema, "frobenius", "x^5-x-1", "--bound", "200")
    f = parse_polynomial("x^5-x-1")
    records = doc["payload"]["records"]
    assert len(records) == 43
    for r in records:
        st = factorize(f.reduce_mod(r["p"]), seed=0).splitting_type()
        assert r["splitting_degree"] == math.lcm(*(d for d, _ in st.pairs)), r["p"]
        assert r["order"] == r["permutation_order"], r["p"]


def test_failing_inclusion_still_exits_zero(capsys, schema):
    doc = run_json(capsys, schema, "include", "x^2+3", "x^3-2", "--bound", "100")
    assert doc["payload"]["holds"] is False
    assert doc["payload"]["first_counterexample"] == 7


def test_version_flag():
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


def test_non_monic_warning_on_stderr(capsys):
    status, _, err = run_cli(capsys, "factor", "2x^3-1", "-p", "5")
    assert status == 0
    assert "not monic" in err


# ---------------------------------------------------------------------------
# Seed plumbing
# ---------------------------------------------------------------------------


def test_seed_env_var(monkeypatch, capsys, schema):
    monkeypatch.setenv("SPLITLAW_SEED", "777")
    doc = run_json(capsys, schema, "spl", "x^3-2", "--bound", "50")
    assert doc["config"]["seed"] == 777


def test_seed_flag_beats_env(monkeypatch, capsys, schema):
    monkeypatch.setenv("SPLITLAW_SEED", "777")
    doc = run_json(capsys, schema, "spl", "x^3-2", "--bound", "50", "--seed", "5")
    assert doc["config"]["seed"] == 5


def test_bad_seed_env_warns_and_falls_back(monkeypatch, capsys, schema):
    monkeypatch.setenv("SPLITLAW_SEED", "not-a-number")
    status, out, err = run_cli(capsys, "spl", "x^3-2", "--bound", "50")
    assert status == 0
    assert "SPLITLAW_SEED" in err
    assert json.loads(out)["config"]["seed"] == 271828
