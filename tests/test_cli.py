"""End-to-end runs of the command line front end through main(argv)."""

import dataclasses
import gc
import hashlib
import json
import os
import random
import re
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import uebkit
import uebkit.cli as cli
import uebkit.ueb as ueb
from uebkit.cli import (InputError, RunReport, _basis_fields, _read_basis,
                        _read_json, _write_json, main)
from uebkit.combinat import cyclic_latin, fourier_hadamard, h_alpha
from uebkit.cyclo import MAX_JSON_ORDER, PhasedScalar, scalar_to_json
from uebkit.exactmat import ExactMatrix, matrix_from_json, matrix_to_json
from uebkit.groups import HeisenbergElement
from uebkit.nice import heisenberg_rep, pauli_rep, verify_nice
from uebkit.ueb import (UnitaryErrorBasis, basis_from_fields,
                        basis_from_json, basis_to_json, pauli_basis,
                        shift_and_multiply, verify_ueb)

ONE = PhasedScalar.one()


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    lines = [json.loads(l) for l in captured.out.splitlines()]
    return rc, lines, captured.err


def checks_by_name(lines):
    return {l["check"]: l for l in lines if "check" in l}


def strip_timing(lines):
    out = []
    for l in lines:
        l = dict(l)
        l.pop("seconds", None)
        out.append(l)
    return out


def test_construct_pauli2_and_verify_round_trip(capsys, tmp_path):
    f = str(tmp_path / "pauli2.json")
    rc, lines, err = run(capsys, ["construct", "pauli:2", "--out", f])
    assert rc == 0
    built = checks_by_name(lines)
    assert built["construct"]["details"] == {"spec": "pauli:2", "d": 2,
                                             "members": 4}
    assert built["ueb-definition"]["ok"]
    assert "PASS" in err
    out_hash = lines[-1]["artifacts"][0]["sha256"]

    rc, lines, _ = run(capsys, ["verify", "ueb", f])
    assert rc == 0
    verified = checks_by_name(lines)
    assert verified["ueb-definition"]["details"] == \
        built["ueb-definition"]["details"]
    assert lines[-1]["artifacts"][0]["sha256"] == out_hash


def test_constructed_pauli2_members_are_the_displayed_ones(capsys, tmp_path):
    f = str(tmp_path / "pauli2.json")
    assert main(["construct", "pauli:2", "--out", f]) == 0
    capsys.readouterr()
    basis = basis_from_json(json.loads(Path(f).read_text()))
    by_label = dict(zip(basis.labels, basis.members))
    x = ExactMatrix.from_rows([[0, 1], [1, 0]])
    z = ExactMatrix.diagonal([ONE, -ONE])
    assert by_label[(0, 0)].equal_up_to_phase(ExactMatrix.identity(2))
    assert by_label[(1, 0)].equal_up_to_phase(x)
    assert by_label[(0, 1)].equal_up_to_phase(z)
    assert by_label[(1, 1)].equal_up_to_phase(x @ z)


def test_verify_runs_are_deterministic_modulo_timing(capsys, tmp_path):
    f = str(tmp_path / "pauli3.json")
    assert main(["construct", "pauli:3", "--out", f]) == 0
    capsys.readouterr()
    rc1, lines1, _ = run(capsys, ["verify", "ueb", f])
    rc2, lines2, _ = run(capsys, ["verify", "ueb", f])
    assert rc1 == rc2 == 0
    assert strip_timing(lines1) == strip_timing(lines2)


def test_construct_sam_d3_pins_members(capsys, tmp_path):
    f = str(tmp_path / "sam3.json")
    rc, lines, _ = run(capsys,
                       ["construct", "sam", "cyclic:3", "fourier:3",
                        "--out", f])
    assert rc == 0
    assert checks_by_name(lines)["ueb-definition"]["ok"]
    assert checks_by_name(lines)["construct"]["details"]["spec"] == \
        "sam:cyclic:3,fourier:3"
    basis = basis_from_json(json.loads(Path(f).read_text()))
    by_label = dict(zip(basis.labels, basis.members))
    w = PhasedScalar.zeta(3)
    zero = PhasedScalar.zero(3)
    e01 = ExactMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    e12 = ExactMatrix.from_rows([[zero, zero, w * w],
                                 [ONE, zero, zero],
                                 [zero, w, zero]])
    assert by_label[(0, 1)] == e01
    assert by_label[(1, 2)] == e12


def test_construct_sam_from_files(capsys, tmp_path):
    lf = tmp_path / "latin.json"
    hf = tmp_path / "had.json"
    lf.write_text(json.dumps(cyclic_latin(3).cells))
    hf.write_text(json.dumps(matrix_to_json(fourier_hadamard(3))))
    f = str(tmp_path / "basis.json")
    rc, lines, _ = run(capsys, ["construct", "sam", str(lf), str(hf),
                                "--out", f])
    assert rc == 0
    roles = [a["role"] for a in lines[-1]["artifacts"]]
    assert roles == ["in", "in", "out"]
    # the same files named in a sam spec: its paths do not make it one
    rc, lines, _ = run(capsys, ["analyze", "monomial", f"sam:{lf},{hf}"])
    assert rc == 0
    assert checks_by_name(lines)["construct"]["details"]["members"] == 9


def _rows_permuted(h, perm):
    d = h.rows
    return ExactMatrix(d, d, [h.entries[i * d + k] for i in perm
                              for k in range(d)], h.scale)


def test_construct_sam_from_a_hadamard_sequence(capsys, tmp_path,
                                                monkeypatch):
    # three distinct row permutations of F_3, one per j: each distinct
    # matrix is checked once, so a sequence of d costs d checks and one
    # matrix given for every j costs one
    f3 = fourier_hadamard(3)
    seq = [_rows_permuted(f3, p) for p in ((0, 1, 2), (1, 2, 0), (2, 0, 1))]
    sf = tmp_path / "seq.json"
    sf.write_text(json.dumps([matrix_to_json(h) for h in seq]))
    want = basis_to_json(shift_and_multiply(cyclic_latin(3), seq))
    calls = []
    check = ueb.check_complex_hadamard
    monkeypatch.setattr(ueb, "check_complex_hadamard",
                        lambda h: calls.append(h) or check(h))
    out = tmp_path / "basis.json"
    rc, lines, _ = run(capsys, ["construct", "sam", "cyclic:3", str(sf),
                                "--out", str(out)])
    assert rc == 0 and checks_by_name(lines)["ueb-definition"]["ok"]
    assert len(calls) == 3
    assert json.loads(out.read_text()) == json.loads(json.dumps(want))
    rc, lines, _ = run(capsys, ["analyze", "monomial", f"sam:cyclic:3,{sf}"])
    assert rc == 0 and checks_by_name(lines)["monomial"]["details"][
        "per_matrix_nonzero"] == [3] * 9
    assert len(calls) == 6
    rc, _, _ = run(capsys, ["construct", "sam", "cyclic:3", "fourier:3",
                            "--out", str(out)])
    assert rc == 0 and len(calls) == 7

    for latin, matrices, message in (
            ("cyclic:4", seq, "need 4 Hadamard matrices, got 3"),
            ("cyclic:3", [f3, ExactMatrix.identity(3), seq[2]],
             "matrix 1 is not complex Hadamard: entry (0,1) is not unit "
             "modulus")):
        sf.write_text(json.dumps([matrix_to_json(h) for h in matrices]))
        out.unlink(missing_ok=True)
        rc, lines, _ = run(capsys, ["construct", "sam", latin, str(sf),
                                    "--out", str(out)])
        assert rc == 2 and not out.exists()
        assert lines == [{"error": "cannot build shift-and-multiply basis: "
                          + message, "ok": False}]


def test_construct_sam_reads_a_latin_path_with_a_comma(capsys, tmp_path):
    lf = tmp_path / "lat,in.json"
    lf.write_text(json.dumps(cyclic_latin(3).cells))
    f = str(tmp_path / "basis.json")
    rc, lines, _ = run(capsys, ["construct", "sam", str(lf), "fourier:3",
                                "--out", f])
    assert rc == 0
    assert checks_by_name(lines)["construct"]["details"] == {
        "spec": f"sam:{lf},fourier:3", "d": 3, "members": 9}
    assert lines[-1]["artifacts"][0]["path"] == str(lf)


_EMPTY_LATIN_COMMANDS = {
    "verify-latin": lambda lf, out: ["verify", "latin", lf],
    "construct-sam": lambda lf, out: ["construct", "sam", lf, "fourier:1",
                                      "--out", out],
}


@pytest.mark.parametrize("command", sorted(_EMPTY_LATIN_COMMANDS))
def test_empty_latin_square_exits_2(capsys, tmp_path, command):
    lf = tmp_path / "empty.json"
    lf.write_text("[]")
    out = tmp_path / "out.json"
    rc, lines, err = run(capsys,
                         _EMPTY_LATIN_COMMANDS[command](str(lf), str(out)))
    assert rc == 2
    (line,) = lines
    assert line["ok"] is False
    assert "latin square order must be positive, got 0" in line["error"]
    assert err.startswith("error: ")
    assert not out.exists()


def test_construct_nice_heisenberg_is_nice_and_verifiable(capsys, tmp_path):
    f = str(tmp_path / "nice3.json")
    rc, lines, _ = run(capsys, ["construct", "nice:heisenberg:3", "--out", f])
    assert rc == 0
    named = checks_by_name(lines)
    assert named["niceness"]["ok"]
    assert named["niceness"]["details"]["pair_mode"] == "all"
    assert named["niceness"]["details"]["pair_route"] == "phase"
    assert named["construct"]["details"]["members"] == 9

    rc, lines, _ = run(capsys, ["verify", "nice", f])
    assert rc == 0
    details = checks_by_name(lines)["niceness"]["details"]
    assert details["trace_ok"]
    assert details["pair_route"] == "phase"


def _section_route_rep(spec):
    """nice:heisenberg:<d> as the CLI built it before it was a
    representation: the z = 0 section of heisenberg_rep as a basis, read
    back as a representation of Z_d x Z_d by its (x, y) labels."""
    d = int(spec.partition(":")[2])
    rep = heisenberg_rep(d)
    labels = [(x, y) for x in range(d) for y in range(d)]
    section = UnitaryErrorBasis(d, [rep.matrix(HeisenbergElement(d, x, y, 0))
                                    for x, y in labels], labels)
    return cli._pair_indexed_rep(section, label=f"{spec}/center")


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_nice_heisenberg_matches_the_section_route(capsys, tmp_path,
                                                   monkeypatch, d):
    f = tmp_path / "nice.json"
    argv = ["construct", f"nice:heisenberg:{d}", "--out", str(f)]
    rc, lines, _ = run(capsys, argv)
    got = f.read_bytes()
    monkeypatch.setattr(cli, "_rep_from_spec", _section_route_rep)
    rc2, lines2, _ = run(capsys, argv)
    assert rc == rc2 == 0
    assert f.read_bytes() == got
    assert strip_timing(lines) == strip_timing(lines2)
    label = checks_by_name(lines)["niceness"]["details"]["label"]
    assert label == f"heisenberg:{d}/center"


def test_verify_latin_distinguishes_failure_from_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[[0, 1], [0, 1]]")
    rc, lines, err = run(capsys, ["verify", "latin", str(bad)])
    assert rc == 1
    row = checks_by_name(lines)["latin"]
    assert not row["ok"]
    assert row["witness"] == "('col', 0, 0)"
    assert "FAIL" in err

    wrong_shape = tmp_path / "shape.json"
    wrong_shape.write_text("[[0, 1], [0]]")
    rc, lines, err = run(capsys, ["verify", "latin", str(wrong_shape)])
    assert rc == 2
    assert "error" in lines[0]

    truncated = tmp_path / "float.json"
    truncated.write_text("[[0, 1.9], [1, 0]]")   # not read as [[0, 1], [1, 0]]
    rc, lines, err = run(capsys, ["verify", "latin", str(truncated)])
    assert rc == 2
    assert "must be an integer" in lines[0]["error"]

    good = tmp_path / "good.json"
    good.write_text(json.dumps(cyclic_latin(3).cells))
    assert main(["verify", "latin", str(good)]) == 0
    capsys.readouterr()


def test_verify_hadamard(capsys, tmp_path):
    f = tmp_path / "had.json"
    f.write_text(json.dumps(matrix_to_json(fourier_hadamard(3))))
    assert main(["verify", "hadamard", str(f)]) == 0
    capsys.readouterr()
    f.write_text(json.dumps(matrix_to_json(ExactMatrix.identity(3))))
    rc, lines, _ = run(capsys, ["verify", "hadamard", str(f)])
    assert rc == 1
    assert "witness" in checks_by_name(lines)["hadamard"]


def test_verify_ueb_failure_exits_1(capsys, tmp_path):
    f = str(tmp_path / "pauli2.json")
    assert main(["construct", "pauli:2", "--out", f]) == 0
    capsys.readouterr()
    obj = json.loads(Path(f).read_text())
    obj["members"][1] = obj["members"][2]
    Path(f).write_text(json.dumps(obj))
    rc, lines, _ = run(capsys, ["verify", "ueb", f])
    assert rc == 1
    details = checks_by_name(lines)["ueb-definition"]["details"]
    assert not details["orthogonality_ok"]
    assert details["failures"]


def test_verify_nice_needs_pair_labels(capsys, tmp_path):
    f = tmp_path / "odd.json"
    x = ExactMatrix.from_rows([[0, 1], [1, 0]])
    f.write_text(json.dumps({
        "d": 2,
        "members": [matrix_to_json(m) for m in
                    (ExactMatrix.identity(2), x)],
        "labels": ["e", "x"]}))
    rc, lines, _ = run(capsys, ["verify", "nice", str(f)])
    assert rc == 2
    assert "members" in lines[0]["error"]


def test_analyze_monomial_pauli3(capsys):
    rc, lines, _ = run(capsys, ["analyze", "monomial", "pauli:3"])
    assert rc == 0
    details = checks_by_name(lines)["monomial"]["details"]
    assert details["is_monomial"] is True
    assert details["zero_fraction"] == "2/3"
    assert details["per_matrix_nonzero"] == [3] * 9


def test_analyze_induce_then_sparsity(capsys, tmp_path):
    f = str(tmp_path / "induced.json")
    rc, lines, _ = run(capsys, ["analyze", "induce", "heisenberg:3",
                                "--out", f])
    assert rc == 0
    named = checks_by_name(lines)
    assert named["block-structure"]["details"] == {"index": 9, "dim": 9,
                                                   "degree": 1}
    assert named["character-match"]["ok"]
    assert named["sparsity"]["details"]["min_zero_fraction"] == "8/9"

    rc, lines, _ = run(capsys, ["analyze", "sparsity", f])
    assert rc == 0
    details = checks_by_name(lines)["sparsity"]["details"]
    assert details["min_zero_fraction"] == "8/9"
    assert details["max_zero_fraction"] == "8/9"


def test_analyze_induce_from_spec_file(capsys, tmp_path):
    spec = tmp_path / "ind.json"
    spec.write_text(json.dumps({"group": "heisenberg:3", "power": 2}))
    rc, lines, _ = run(capsys, ["analyze", "induce", str(spec)])
    assert rc == 0
    assert checks_by_name(lines)["character-match"]["ok"]
    for power in ("x", 1.7, True):
        spec.write_text(json.dumps({"group": "heisenberg:3", "power": power}))
        rc, lines, err = run(capsys, ["analyze", "induce", str(spec)])
        assert rc == 2
        assert "'power' must be an integer" in lines[0]["error"]
        assert "error:" in err


def test_analyze_wickedness(capsys):
    rc, lines, _ = run(capsys, ["analyze", "wickedness", "sam:cyclic:4,alpha"])
    assert rc == 0
    details = checks_by_name(lines)["wickedness"]["details"]
    assert details["witness_found"] is True
    assert details["ratio_position"] == 2
    assert len(details["diagonal"]) == 4

    rc, lines, _ = run(capsys, ["analyze", "wickedness", "pauli:3"])
    assert rc == 0
    assert checks_by_name(lines)["wickedness"]["details"] == {
        "witness_found": False}


def test_analyze_cocycle_small_group_emits_table(capsys):
    rc, lines, _ = run(capsys, ["analyze", "cocycle", "pauli:2"])
    assert rc == 0
    details = checks_by_name(lines)["cocycle"]["details"]
    assert details["identity_holds"] is True
    assert details["pairs"] == 16
    assert len(details["table"]) == 16


def test_analyze_cocycle_proves_the_identity_unsampled(capsys):
    rc, lines, _ = run(capsys, ["analyze", "cocycle", "pauli:6", "--seed", "7"])
    assert rc == 0
    assert lines[0]["seed"] == 7
    details = checks_by_name(lines)["cocycle"]["details"]
    assert details == {"pairs": 1296, "identity_holds": True}


def test_analyze_cocycle_fails_on_a_zero_member(capsys, tmp_path):
    f = tmp_path / "zero.json"
    x, z = ExactMatrix.from_rows([[0, 1], [1, 0]]), ExactMatrix.zeros(2, 2)
    f.write_text(json.dumps({
        "d": 2,
        "members": [matrix_to_json(m) for m in
                    (ExactMatrix.identity(2), x, z, z)],
        "labels": [[0, 0], [1, 0], [0, 1], [1, 1]]}))
    rc, lines, _ = run(capsys, ["analyze", "cocycle", str(f)])
    assert rc == 1
    check = checks_by_name(lines)["cocycle"]
    assert not check["ok"] and "zero matrix" in check["witness"]


def test_analyze_cocycle_rejects_wrong_member_count(capsys, tmp_path):
    f = tmp_path / "three.json"
    x = ExactMatrix.from_rows([[0, 1], [1, 0]])
    f.write_text(json.dumps({
        "d": 2,
        "members": [matrix_to_json(m) for m in
                    (ExactMatrix.identity(2), x, x @ x)],
        "labels": [[0, 0], [1, 0], [0, 1]]}))
    rc, lines, _ = run(capsys, ["analyze", "cocycle", str(f)])
    assert rc == 2


def test_parse_and_spec_errors_exit_2(capsys, tmp_path):
    junk = tmp_path / "junk.json"
    junk.write_text("{not json")
    rc, lines, err = run(capsys, ["verify", "ueb", str(junk)])
    assert rc == 2
    assert "error" in lines[0]
    assert "error:" in err

    assert main(["analyze", "monomial", "frobnicate:9"]) == 2
    capsys.readouterr()
    assert main(["verify", "ueb", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()
    assert main(["construct", "pauli:0", "--out", str(tmp_path / "x")]) == 2
    capsys.readouterr()
    assert main(["construct", "pauli:2", "extra",
                 "--out", str(tmp_path / "x")]) == 2
    capsys.readouterr()
    assert main(["construct", "pauli:2", "--factors-only",
                 "--out", str(tmp_path / "x")]) == 2
    capsys.readouterr()


def _duplicate_label_file(path):
    obj = basis_to_json(pauli_basis(2))
    obj["labels"][1] = obj["labels"][0]
    path.write_text(json.dumps(obj))
    return str(path)


def _text_file(path, text):
    path.write_text(text)
    return str(path)


def _missing_dir_message(t):
    p = t / "missing" / "x.json"
    return f"cannot write {p}: [Errno 2] No such file or directory: '{p}'"


# argv for a temporary directory t, and the error line's message
_INPUT_ERROR_LINES = {
    "out-in-a-missing-dir": (
        lambda t: ["construct", "pauli:2", "--out",
                   str(t / "missing" / "x.json")], _missing_dir_message),
    "pauli-not-an-integer": (
        lambda t: ["analyze", "monomial", "pauli:x"],
        "pauli dimension must be an integer, got 'x'"),
    "unknown-latin-spec": (
        lambda t: ["analyze", "monomial", "sam:frob:3,fourier:3"],
        "unknown latin spec 'frob:3' (cyclic:<d> or a file)"),
    "unknown-hadamard-spec": (
        lambda t: ["analyze", "monomial", "sam:cyclic:3,frob:3"],
        "unknown hadamard spec 'frob:3' (fourier:<d>, alpha, or a file)"),
    "unknown-representation-spec": (
        lambda t: ["analyze", "monomial", "nice:frob:3"],
        "unknown representation spec 'frob:3'"),
    "unknown-induce-spec": (
        lambda t: ["analyze", "induce", "frob:3"],
        "unknown induce spec 'frob:3' (heisenberg:<d>)"),
    "heisenberg-modulus-1": (
        lambda t: ["analyze", "monomial", "nice:heisenberg:1"],
        "heisenberg modulus must be at least 2"),
    "sam-spec-without-comma": (
        lambda t: ["analyze", "monomial", "sam:cyclic:3"],
        "sam spec needs <latin>,<hadamard>"),
    "duplicate-labels": (
        lambda t: ["verify", "nice", _duplicate_label_file(t / "dup.json")],
        "duplicate labels in basis"),
    "counterexample165-with-a-parameter": (
        lambda t: ["construct", "counterexample165", "x",
                   "--out", str(t / "out.json")],
        "counterexample165 takes no extra parameters"),
    "sam-with-one-spec": (
        lambda t: ["construct", "sam", "cyclic:3",
                   "--out", str(t / "out.json")],
        "construct sam needs <latin> <hadamard>"),
    "bundle-holding-a-list": (
        lambda t: ["verify", "counterexample165",
                   _text_file(t / "bundle.json", "[]")],
        "bundle file must hold a JSON object"),
    "induce-file-without-group": (
        lambda t: ["analyze", "induce", _text_file(t / "induce.json", "{}")],
        'induce file needs {"group": "heisenberg:<d>"}'),
}


@pytest.mark.parametrize("fmt", ["json", "pretty"])
@pytest.mark.parametrize("kind", sorted(_INPUT_ERROR_LINES))
def test_input_errors_exit_2_with_their_error_line(capsys, tmp_path, kind,
                                                   fmt):
    argv, message = _INPUT_ERROR_LINES[kind]
    if callable(message):
        message = message(tmp_path)
    rc = main(argv(tmp_path) + ["--format", fmt])
    out, err = capsys.readouterr()
    assert rc == 2
    assert json.loads(out) == {"error": message, "ok": False}
    # json: one line; pretty: one indented object
    assert out.count("\n") == (1 if fmt == "json" else 4)
    assert err == f"error: {message}\n"
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--seed", str(2 ** 64), "seed must fit in 64 bits"),
    ("--jobs", "0", "jobs must be at least 1")])
def test_out_of_range_flags_are_refused_by_the_parser(capsys, flag, value,
                                                      message):
    rc = main(["analyze", "monomial", "pauli:2", flag, value])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert f"argument {flag}: {message}" in err


_MALFORMED = {
    "coeffs-list": lambda e: dict(e, coeffs=[1]),
    "symbols-list": lambda e: dict(e, symbols=[["t", 1]]),
    "order-missing": lambda e: {k: v for k, v in e.items() if k != "order"},
    "order-zero": lambda e: dict(e, order=0),
    # 1.0 and true equal the order 1 of entry 0, also as memo keys
    "order-float": lambda e: dict(e, order=float(e["order"])),
    "order-bool": lambda e: dict(e, order=True),
    "symbol-exp-float": lambda e: dict(e, symbols={"t": 1.9}),
    "bad-rational": lambda e: dict(e, coeffs={"0": "x/y"}),
    "zero-denominator": lambda e: dict(e, coeffs={"0": "1/0"}),
    # scalar_to_json writes string coefficients and decimal exponent keys;
    # Fraction() and int() would read these as 1 and as exponent 0
    "coeff-float": lambda e: dict(e, coeffs={"0": 1.0}),
    "key-underscore": lambda e: dict(e, coeffs={"0_0": "1"}),
    "key-space": lambda e: dict(e, coeffs={" 0": "1"}),
    # and only str(k): int() reads "0" and "00" alike, so 1 + 1 read as 1
    "key-leading-zero": lambda e: dict(e, coeffs={"0": "1", "00": "1"}),
    # symbols need no declaration, but a name must be an identifier
    "bad-symbol": lambda e: dict(e, symbols={"1bad": 1}),
    "symbol-empty": lambda e: dict(e, symbols={"": 1}),
    "int-entry": lambda e: 5,
}


def _verify_edited_pauli2(capsys, tmp_path, edit, command=("verify", "ueb")):
    """Write a pauli:2 basis file, let edit change its JSON, run command
    on it."""
    f = str(tmp_path / "pauli2.json")
    assert main(["construct", "pauli:2", "--out", f]) == 0
    capsys.readouterr()
    obj = json.loads(Path(f).read_text())
    edit(obj)
    Path(f).write_text(json.dumps(obj))
    return run(capsys, [*command, f])


@pytest.mark.parametrize("where", [0, 3])
@pytest.mark.parametrize("kind", sorted(_MALFORMED))
def test_malformed_basis_entry_exits_2(capsys, tmp_path, kind, where):
    # Entry 3 of the identity repeats entry 0, so the matrix decoder has
    # already seen the value that the malformed copy stands in for.
    def edit(obj):
        entries = obj["members"][0]["entries"]
        assert entries[3] == entries[0]
        entries[where] = _MALFORMED[kind](entries[0])

    rc, lines, err = _verify_edited_pauli2(capsys, tmp_path, edit)
    assert rc == 2
    assert "basis file" in lines[0]["error"]
    assert "error:" in err


_NON_INTEGER_SHAPE = {
    "rows-2.0": lambda obj: obj["members"][1].update(rows=2.0),
    "rows-1.9": lambda obj: obj["members"][1].update(rows=1.9),
    "cols-2.0": lambda obj: obj["members"][1].update(cols=2.0),
    "d-2.0": lambda obj: obj.update(d=2.0),
    "d-true": lambda obj: obj.update(d=True),
}


@pytest.mark.parametrize("scale", ["1/0", 1.0], ids=["zero-denominator",
                                                    "float"])
def test_malformed_member_scale_exits_2(capsys, tmp_path, scale):
    rc, lines, err = _verify_edited_pauli2(
        capsys, tmp_path, lambda obj: obj["members"][1].update(scale=scale))
    assert rc == 2
    assert "basis file" in lines[0]["error"]
    assert "error:" in err


@pytest.mark.parametrize("command", [("verify", "nice"),
                                     ("analyze", "cocycle")])
def test_boolean_pair_label_exits_2(capsys, tmp_path, command):
    # true and false are JSON booleans, not the indices 1 and 0
    def edit(obj):
        k = obj["labels"].index([1, 0])
        obj["labels"][k] = [True, False]

    rc, lines, err = _verify_edited_pauli2(capsys, tmp_path, edit, command)
    assert rc == 2
    assert "does not index" in lines[0]["error"]
    assert "error:" in err


@pytest.mark.parametrize("kind", sorted(_NON_INTEGER_SHAPE))
def test_non_integer_basis_shape_exits_2(capsys, tmp_path, kind):
    rc, lines, err = _verify_edited_pauli2(capsys, tmp_path,
                                           _NON_INTEGER_SHAPE[kind])
    assert rc == 2
    assert "must be an integer" in lines[0]["error"]
    assert "error:" in err


def _negative_shapes(d):
    def edit(obj):
        obj["d"] = d
        for m in obj["members"]:  # (-2) * (-2) matches the 4 entries
            m.update(rows=-2, cols=-2)
    return edit


_DEGENERATE_DIMENSION = {
    "d-0": lambda obj: obj.update(d=0, members=[], labels=[]),
    "shape-negative-d-2": _negative_shapes(2),
    "shape-negative-d-minus-2": _negative_shapes(-2),
    "shape-0x0": lambda obj: obj["members"][1].update(rows=0, cols=0,
                                                       entries=[]),
}


@pytest.mark.parametrize("command", [("verify", "ueb"), ("verify", "nice"),
                                     ("analyze", "sparsity")],
                         ids="-".join)
@pytest.mark.parametrize("kind", sorted(_DEGENERATE_DIMENSION))
def test_degenerate_dimension_exits_2(capsys, tmp_path, kind, command):
    rc, lines, err = _verify_edited_pauli2(
        capsys, tmp_path, _DEGENERATE_DIMENSION[kind], command)
    assert rc == 2
    assert "basis file" in lines[0]["error"]
    assert "error:" in err


def _mixed_shapes(obj):
    # one 3 x 3 member in a d = 2 file
    obj["members"][1] = matrix_to_json(ExactMatrix.identity(3))


@pytest.mark.parametrize("command", [("verify", "ueb"),
                                     ("analyze", "wickedness")],
                         ids="-".join)
def test_mixed_shapes_fail_the_cardinality_check(capsys, tmp_path, command):
    rc, lines, err = _verify_edited_pauli2(capsys, tmp_path, _mixed_shapes,
                                           command)
    assert rc == 1
    check = checks_by_name(lines)["ueb-definition"]
    assert not check["ok"]
    assert check["details"]["cardinality_ok"] is False
    assert check["details"]["pairs_checked"] == 0
    assert "FAIL" in err


@pytest.mark.parametrize("command", [("verify", "nice"),
                                     ("analyze", "cocycle")],
                         ids="-".join)
def test_mixed_shapes_exit_2_where_members_are_indexed(capsys, tmp_path,
                                                       command):
    rc, lines, err = _verify_edited_pauli2(capsys, tmp_path, _mixed_shapes,
                                           command)
    assert rc == 2
    assert lines[0]["error"] == "every member must be 2 x 2"
    assert "error:" in err


_MALFORMED_ZERO = {
    "order-float": (lambda e: dict(e, order=1.0),
                    "'order' must be an integer, not 1.0"),
    "order-bool": (lambda e: dict(e, order=True),
                   "'order' must be an integer, not True"),
    "symbols-null": (lambda e: dict(e, symbols=None),
                     "'coeffs' and 'symbols' must be JSON objects"),
    "symbols-list": (lambda e: dict(e, symbols=[]),
                     "'coeffs' and 'symbols' must be JSON objects"),
    "coeffs-list": (lambda e: dict(e, coeffs=[]),
                    "'coeffs' and 'symbols' must be JSON objects"),
}


@pytest.mark.parametrize("kind", sorted(_MALFORMED_ZERO))
def test_malformed_zero_after_a_valid_zero_exits_2(capsys, tmp_path, kind):
    # the decoder memoizes entry 1, a zero of order 1, before it meets the
    # malformed copy in entry 2; 1.0 and true equal 1 as dict keys
    malform, message = _MALFORMED_ZERO[kind]

    def edit(obj):
        entries = obj["members"][0]["entries"]
        assert entries[1] == entries[2] == {"order": 1, "coeffs": {},
                                            "symbols": {}}
        entries[2] = malform(entries[1])

    rc, lines, err = _verify_edited_pauli2(capsys, tmp_path, edit)
    assert rc == 2
    assert lines[0]["error"] == f"cannot interpret basis file: {message}"
    assert "error:" in err


def test_sparsity_of_a_basis_without_members_exits_2(capsys, tmp_path):
    # an empty basis has no zero fraction, and is not monomial either
    for kind in ("sparsity", "monomial"):
        rc, lines, err = _verify_edited_pauli2(
            capsys, tmp_path, lambda obj: obj.update(members=[], labels=[]),
            ("analyze", kind))
        assert rc == 2, kind
        assert "basis file has no members" in lines[0]["error"]
        assert "error:" in err


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_read_json_keeps_the_callers_gc_state(capsys, tmp_path, enabled,
                                              monkeypatch):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text('{"a": [1, {"b": "c"}]}')
    bad.write_text('{"a": [1, ')
    basis = _pauli_file(capsys, tmp_path, 3)
    text = basis.read_text()
    cut = tmp_path / "cut.json"  # a syntax error after member 2
    cut.write_text(text[:_member_end(text, 2)] + ";")
    refused = tmp_path / "refused.json"  # member 2 is refused
    obj = json.loads(text)
    member_2 = dict(obj["members"][2])
    obj["members"][2]["rows"] = "x"
    refused.write_text(json.dumps(obj))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        report = RunReport(command=[], seed=0, jobs=1)
        assert _read_json(str(good), report) == {"a": [1, {"b": "c"}]}
        assert gc.isenabled() is enabled
        with pytest.raises(InputError, match="not valid JSON"):
            _read_json(str(bad), report)
        assert gc.isenabled() is enabled
        assert main(["verify", "ueb", str(bad)]) == 2
        assert gc.isenabled() is enabled
        assert len(_read_basis(str(basis), report).members) == 9
        assert gc.isenabled() is enabled
        for f, match in ((cut, "not valid JSON"),
                         (refused, "cannot interpret basis file")):
            with pytest.raises(InputError, match=match):
                _read_basis(str(f), report)
            assert gc.isenabled() is enabled
            assert main(["verify", "ueb", str(f)]) == 2
            assert gc.isenabled() is enabled

        member_from_text = cli._member_from_text

        def raise_on_member_2(text, i, *read):
            if json.JSONDecoder().raw_decode(text, i)[0] == member_2:
                raise RuntimeError("member 2")
            return member_from_text(text, i, *read)

        monkeypatch.setattr(cli, "_member_from_text", raise_on_member_2)
        with pytest.raises(RuntimeError, match="member 2"):
            _read_basis(str(basis), report)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


# ---------------------------------------------------------------------------
# basis files decoded member by member


def _pauli_file(capsys, tmp_path, d):
    f = tmp_path / f"pauli{d}.json"
    assert main(["construct", f"pauli:{d}", "--out", str(f)]) == 0
    capsys.readouterr()
    return f


def _member_end(text, k):
    """The index past member k in a basis file written by the CLI."""
    i = text.index('"members":[') + len('"members":')  # at the '['
    for _ in range(k + 1):
        i = json.JSONDecoder().raw_decode(text, i + 1)[1]  # past '[' or ','
    return i


def _old_route(path):
    """The basis, or the error line, of json.loads and basis_from_json."""
    try:
        obj = json.loads(Path(path).read_bytes())
    except json.JSONDecodeError as e:
        return f"{path} is not valid JSON: {e}"
    try:
        return basis_from_json(obj)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        return f"cannot interpret basis file: {e}"


def _streamed(path):
    """The basis in the UTF-8 file at path, checking that its members were
    decoded one at a time by the walk, not by the whole-text fallback."""
    fields, member = _basis_fields(Path(path).read_bytes().decode("utf-8"))
    assert member is not matrix_from_json
    assert all(type(m) is ExactMatrix for m in fields["members"])
    return basis_from_fields(fields, member)


def _same_basis(a, b):
    return (a.d == b.d and a.labels == b.labels
            and len(a.members) == len(b.members)
            and all(x == y and x.scale == y.scale
                    for x, y in zip(a.members, b.members)))


@pytest.mark.parametrize("argv", [
    ["construct", "pauli:2"], ["construct", "pauli:3"],
    ["construct", "pauli:12"], ["construct", "sam", "cyclic:3", "fourier:3"],
    ["construct", "sam", "cyclic:4", "alpha"],
    ["construct", "nice:heisenberg:3"], ["analyze", "induce", "heisenberg:3"],
    ["analyze", "induce", "heisenberg:7"],
], ids=" ".join)
def test_streamed_basis_matches_json_loads(capsys, tmp_path, argv,
                                          monkeypatch):
    f = tmp_path / "basis.json"
    assert main(argv + ["--out", str(f)]) == 0
    capsys.readouterr()
    calls = []  # every member the CLI writes is read from its text
    monkeypatch.setattr(cli, "matrix_from_json",
                        lambda *a: calls.append(a) or matrix_from_json(*a))
    assert _same_basis(_streamed(f), _old_route(f))
    assert calls == []


def _edit_member(text, k, edit):
    """text with member k (k >= 1) of a CLI-written basis file replaced by
    edit(its text)."""
    start, end = _member_end(text, k - 1) + 1, _member_end(text, k)
    return text[:start] + edit(text[start:end]) + text[end:]


def _reordered(member):
    obj = json.loads(member)
    return json.dumps({k: obj[k] for k in ("rows", "scale", "entries",
                                           "cols")}, separators=(",", ":"))


_ONE_PLUS_T = json.dumps(scalar_to_json(ONE + PhasedScalar.symbol("t")),
                         sort_keys=True, separators=(",", ":"))

# one edit per guard of the text route; each must meet json.loads
_TEXT_ROUTE_EDITS = {
    "space-after-comma": lambda m: m.replace("}},{", "}}, {", 1),
    "brace-after-an-entry": lambda m: m.replace("}},{", "}} }},{", 1),
    "cols-arabic-3": lambda m: m.replace('"cols":3', '"cols":\u0663'),
    "reordered-keys": _reordered,
    "rows-0": lambda m: m.replace('"rows":3', '"rows":0'),
    "rows-arabic-3": lambda m: m.replace('"rows":3', '"rows":\u0663'),
    "scale-1/0": lambda m: m.replace('"scale":"1"', '"scale":"1/0"'),
    "scale-with-a-tab": lambda m: m.replace('"scale":"1"', '"scale":"1\t"'),
    "entry-count": lambda m: m.replace(
        m[m.index("[") + 1:m.index("}},") + 3], "", 1),
    "terms-entry": lambda m: m.replace(
        m[m.index("[") + 1:m.index("}},") + 2], _ONE_PLUS_T, 1),
    "string-holding-}},": lambda m: m.replace(
        '"order":3,"symbols":{}', '"order":3,"symbols":{"}},":1}', 1),
    "non-canonical-then-canonical": lambda m: json.dumps(json.loads(m)),
    "order-4099": lambda m: m.replace('"order":3', '"order":4099', 1),
}


@pytest.mark.parametrize("edit", sorted(_TEXT_ROUTE_EDITS))
def test_text_route_edits_decode_as_json_loads(capsys, tmp_path, edit,
                                               monkeypatch):
    text = _pauli_file(capsys, tmp_path, 3).read_text()
    g = tmp_path / "edited.json"
    g.write_text(_edit_member(text, 1, _TEXT_ROUTE_EDITS[edit]))
    assert g.read_text() != text
    want = _old_route(g)
    calls = []
    member_from_text = cli._member_from_text
    monkeypatch.setattr(cli, "_member_from_text", lambda *a: calls.append(
        a[1]) or member_from_text(*a))
    try:
        got = _read_basis(str(g), RunReport(command=[], seed=0, jobs=1))
    except InputError as e:
        assert str(e) == want
    else:
        assert _same_basis(got, want)
    # member 0 is read from its text, and member 1 too if a space is the
    # only edit; else it is declined, and no member after it is tried
    assert len(calls) == (9 if edit == "space-after-comma" else 2)
    rc, lines, _ = run(capsys, ["verify", "ueb", str(g)])
    if isinstance(want, str):
        assert (rc, lines[0]["error"]) == (2, want)


def test_near_canonical_file_tries_the_text_route_once(tmp_path,
                                                       monkeypatch):
    # 50 members in json.dumps's default layout: ", " and ": " separators
    members = [ExactMatrix.diagonal([ONE, PhasedScalar.zeta(4, k)])
               for k in range(50)]
    basis = UnitaryErrorBasis(2, tuple(members), tuple(range(50)))
    g = tmp_path / "spaced.json"
    g.write_text(json.dumps(basis_to_json(basis), sort_keys=True))
    calls = []
    member_from_text = cli._member_from_text
    monkeypatch.setattr(cli, "_member_from_text", lambda *a: calls.append(
        a[1]) or member_from_text(*a))
    got = _read_basis(str(g), RunReport(command=[], seed=0, jobs=1))
    assert _same_basis(got, basis)
    assert len(calls) == 1


def test_each_distinct_entry_is_decoded_once_per_file(capsys, tmp_path,
                                                     monkeypatch):
    f = _pauli_file(capsys, tmp_path, 5)
    obj = json.loads(f.read_text())
    entries = [cli._DUMPS(e) for m in obj["members"] for e in m["entries"]]
    decoded = []
    real = cli.scalar_from_json
    monkeypatch.setattr(cli, "scalar_from_json", lambda e, orders: (
        decoded.append(cli._DUMPS(e)) or real(e, orders)))
    got = _streamed(f)
    assert _same_basis(got, basis_from_json(obj))
    # 625 entries, 7 distinct: zero, 1 at order 1 (in the permutation
    # members) and the five fifth roots of unity at order 5, decoded in
    # the order they first occur in the file, whatever the hash seed
    assert len(entries) == 625
    assert decoded == list(dict.fromkeys(entries)) and len(decoded) == 7
    assert len({id(e) for m in got.members for e in m.entries}) == 7


def _first_two_members(text):
    """_member_from_text on members 0 and 1 of text with one orders set
    and one memo: member 1's result, and both after each member."""
    orders, memo, states = set(), {}, []
    i = text.index('"members":[') + len('"members":[')
    for _ in range(2):
        got = cli._member_from_text(text, i, orders, memo)
        states.append((set(orders), dict(memo)))
        i = got and got[1] + 1
    return got, states


@pytest.mark.parametrize("edit", ["entry-count", "order-4099", "scale-1/0"])
def test_a_refused_second_member_leaves_the_memo_unchanged(capsys, tmp_path,
                                                           edit):
    text = _pauli_file(capsys, tmp_path, 3).read_text()
    # unedited, member 1 (Z) brings its order-3 entries to the memo
    got, (first, second) = _first_two_members(text)
    assert got and first[0] == {1} and second[0] == {1, 3}
    assert len(second[1]) > len(first[1])
    # member 1 decodes its new pieces, then is refused: nothing joins
    edited = _edit_member(text, 1, _TEXT_ROUTE_EDITS[edit])
    got, (first, second) = _first_two_members(edited)
    assert got is None and first == second
    g = tmp_path / "edited.json"
    g.write_text(edited)
    want = _old_route(g)
    try:
        got = _read_basis(str(g), RunReport(command=[], seed=0, jobs=1))
    except InputError as e:
        assert str(e) == want
    else:
        assert _same_basis(got, want)


def test_an_lcm_a_later_member_brings_is_refused(tmp_path, monkeypatch):
    # member 2 meets the memoised order-1 piece and a new order-2029 one
    members = [_diag_of_orders(1, 2039), _diag_of_orders(2039, 1),
               _diag_of_orders(1, 2029), _diag_of_orders(1, 1)]
    g = tmp_path / "late-lcm.json"
    g.write_text(cli._DUMPS({"d": 2, "members": members, "labels": [
        [0, 0], [0, 1], [1, 0], [1, 1]]}))
    calls = []
    member_from_text = cli._member_from_text
    monkeypatch.setattr(cli, "_member_from_text", lambda *a: calls.append(
        a[1]) or member_from_text(*a))
    with pytest.raises(InputError) as e:
        _read_basis(str(g), RunReport(command=[], seed=0, jobs=1))
    assert str(e.value) == _old_route(g) == (
        f"cannot interpret basis file: entry orders have lcm {_LCM}, above "
        f"{MAX_JSON_ORDER}")
    assert len(calls) == 3  # members 0 and 1 read from their text


_LAYOUTS = {
    "indent-2": lambda obj: json.dumps(obj, indent=2).encode(),
    "members-first": lambda obj: json.dumps(
        {"members": obj["members"], "d": obj["d"],
         "labels": obj["labels"]}).encode(),
    "members-last": lambda obj: json.dumps(
        {"labels": obj["labels"], "d": obj["d"],
         "members": obj["members"]}).encode(),
    "utf-8-bom": lambda obj: b"\xef\xbb\xbf" + json.dumps(obj).encode(),
    "utf-16": lambda obj: json.dumps(obj).encode("utf-16"),
    "utf-32-le": lambda obj: json.dumps(obj).encode("utf-32-le"),
}


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
def test_basis_file_layouts_decode_the_same(capsys, tmp_path, layout):
    f = _pauli_file(capsys, tmp_path, 3)
    rc, want, _ = run(capsys, ["verify", "ueb", str(f)])
    g = tmp_path / "variant.json"
    g.write_bytes(_LAYOUTS[layout](json.loads(f.read_text())))
    got = _read_basis(str(g), RunReport(command=[], seed=0, jobs=1))
    assert _same_basis(got, _old_route(f))
    if layout.startswith(("indent", "members")):
        assert _same_basis(_streamed(g), got)
    rc2, lines, _ = run(capsys, ["verify", "ueb", str(g)])
    assert rc == rc2 == 0
    assert strip_timing(lines[1:-1]) == strip_timing(want[1:-1])
    (artifact,) = lines[-1]["artifacts"]
    assert artifact["sha256"] == hashlib.sha256(g.read_bytes()).hexdigest()


_FIRST_MEMBERS = {
    "empty": lambda members: [],
    "int": lambda members: 5,
    "object": lambda members: {},
    "one-good-member": lambda members: members[:1],
    "malformed-member": lambda members: [members[0],
                                         dict(members[1], rows=1.5)],
}


@pytest.mark.parametrize("first", sorted(_FIRST_MEMBERS))
def test_repeated_members_key_last_wins(capsys, tmp_path, first):
    f = _pauli_file(capsys, tmp_path, 2)
    text = f.read_text()
    first_members = _FIRST_MEMBERS[first](json.loads(text)["members"])
    g = tmp_path / "repeated.json"
    g.write_text('{"members":' + json.dumps(first_members) + "," + text[1:])
    want = _old_route(f)
    assert _same_basis(_read_basis(str(g), RunReport(command=[], seed=0,
                                                     jobs=1)), want)
    if first == "one-good-member":
        assert _same_basis(_streamed(g), want)
    rc, lines, _ = run(capsys, ["verify", "ueb", str(g)])
    assert rc == 0


def test_repeated_members_key_last_malformed_exits_2(capsys, tmp_path):
    f = _pauli_file(capsys, tmp_path, 2)
    text = f.read_text()
    bad = json.loads(text)["members"]
    bad[3] = dict(bad[3], rows=1.5)
    g = tmp_path / "repeated.json"
    g.write_text(text[:-2] + ',"members":' + json.dumps(bad) + "}\n")
    rc, lines, err = run(capsys, ["verify", "ueb", str(g)])
    assert rc == 2
    assert lines[0]["error"] == _old_route(g)
    assert "'rows' must be an integer" in lines[0]["error"]


_MALFORMED_FILES = {
    "top-level-array": lambda text, obj: json.dumps([obj]),
    "trailing-data": lambda text, obj: text + "{}",
    "cut-after-member-2": lambda text, obj: text[:_member_end(text, 2)],
    "missing-labels": lambda text, obj: json.dumps(
        {"d": obj["d"], "members": obj["members"]}),
    "members-not-a-list": lambda text, obj: json.dumps(
        dict(obj, members={"a": 1})),
    "trailing-comma": lambda text, obj: text[:_member_end(text, 8)] + ",]}",
    "bad-d-before-a-bad-member": lambda text, obj: json.dumps(
        dict(obj, d="x", members=[{"rows": 1}] + obj["members"])),
    "empty-object": lambda text, obj: "{}",
}


@pytest.mark.parametrize("kind", sorted(_MALFORMED_FILES))
def test_malformed_basis_file_exits_2_as_json_loads(capsys, tmp_path, kind):
    text = _pauli_file(capsys, tmp_path, 3).read_text()
    g = tmp_path / "malformed.json"
    g.write_text(_MALFORMED_FILES[kind](text, json.loads(text)))
    want = _old_route(g)
    assert isinstance(want, str)
    for command in (["verify", "ueb"], ["verify", "nice"],
                    ["analyze", "sparsity"]):
        rc, lines, err = run(capsys, [*command, str(g)])
        assert rc == 2
        assert lines[0]["error"] == want
        assert "error:" in err


@pytest.mark.parametrize("command", [("verify", "ueb"), ("verify", "latin"),
                                     ("analyze", "sparsity")])
def test_file_that_is_not_text_exits_2(capsys, tmp_path, command):
    # no NUL byte, so it reads as UTF-8, where 0xff starts no sequence
    g = tmp_path / "not-text.json"
    g.write_bytes(b'{"d": "\xff"}')
    rc, lines, err = run(capsys, [*command, str(g)])
    assert rc == 2
    assert lines[0]["error"].startswith(
        f"{g} is not UTF-8, UTF-16 or UTF-32 text: ")
    assert "error:" in err


@pytest.mark.parametrize("command", [("verify", "ueb"), ("verify", "latin"),
                                     ("analyze", "sparsity")])
def test_deeply_nested_file_exits_2(capsys, tmp_path, command):
    # json's decoder recurses once per level
    g = tmp_path / "deep.json"
    g.write_text("[" * 200_000)
    rc, lines, err = run(capsys, [*command, str(g)])
    assert rc == 2
    assert lines[0]["error"].startswith(f"{g} nests too deeply to decode: ")
    assert "error:" in err


def test_deeply_nested_label_exits_2(capsys, tmp_path):
    # json.loads reads a label 600 lists deep, but rebuilding it as nested
    # tuples (ueb._label_from_json) recurses past the interpreter's limit
    label = [0, 0]
    for _ in range(599):
        label = [label]
    rc, lines, err = _verify_edited_pauli2(
        capsys, tmp_path, lambda obj: obj["labels"].__setitem__(0, label))
    assert rc == 2
    assert lines[0]["error"].startswith("cannot interpret basis file: ")
    assert "error:" in err


_TOKEN = re.compile(rb'"(?:[^"\\]|\\.)*"|-?[0-9]+|[][{}:,]|true|false|null')


def _mutants(data: bytes, rng, n):
    """n seeded mutants of data, (kind, bytes): a bit flipped in one byte,
    a span of 1 to 16 bytes deleted or duplicated, or two JSON tokens
    swapped."""
    tokens = [m.span() for m in _TOKEN.finditer(data)]
    out = []
    for _ in range(n):
        kind = rng.choice(("flip", "delete", "duplicate", "swap"))
        i = rng.randrange(len(data))
        j = min(len(data), i + rng.randint(1, 16))
        if kind == "flip":
            flipped = bytes([data[i] ^ 1 << rng.randrange(8)])
            m = data[:i] + flipped + data[i + 1:]
        elif kind == "delete":
            m = data[:i] + data[j:]
        elif kind == "duplicate":
            m = data[:j] + data[i:j] + data[j:]
        else:
            (a, b), (c, d) = sorted(rng.sample(tokens, 2))
            m = data[:a] + data[c:d] + data[b:c] + data[a:b] + data[d:]
        out.append((kind, m))
    return out


def _member_mutants(data: bytes, rng, n):
    """n seeded mutants of a basis file, (kind, bytes), in the layout the
    CLI writes: one whole member dropped with its label, or repeated with
    it right after."""
    obj = json.loads(data)
    out = []
    for _ in range(n):
        kind = rng.choice(("drop-member", "repeat-member"))
        k = rng.randrange(len(obj["members"]))
        keep = 2 if kind == "repeat-member" else 0
        edited = {key: v[:k] + [v[k]] * keep + v[k + 1:]
                  if key in ("members", "labels") else v
                  for key, v in obj.items()}
        out.append((kind, (cli._DUMPS(edited) + "\n").encode()))
    return out


def _padded_key_mutants(data: bytes, rng, n):
    """n seeded mutants of a file, (kind, bytes): one coefficient's exponent
    key k written as "0k", which scalar_to_json never writes."""
    keys = [m.start(1) for m in re.finditer(rb'"([0-9]+)":"', data)]
    return [("pad-key", data[:i] + b"0" + data[i:])
            for i in rng.sample(keys, n)]


def _member_count_refused(command, rc, out, data):
    """A basis of d = 3 with a member count off 9: the Z_3 x Z_3 index
    refuses it, and verify ueb's cardinality check fails."""
    lines = [json.loads(l) for l in out.splitlines()]
    got = len(json.loads(data)["members"])
    if command in (("verify", "nice"), ("analyze", "cocycle")):
        return rc == 2 and lines[0]["error"] == \
            f"need 9 members for a Z_3 x Z_3 index, got {got}"
    if command == ("verify", "ueb"):
        details = checks_by_name(lines)["ueb-definition"]["details"]
        return rc == 1 and details["cardinality_ok"] is False
    return True


def _reference(path):
    """_old_route's basis or error line; bytes that json.loads cannot read
    as text give the CLI's not-text line with the reason json.loads gives."""
    try:
        return _old_route(path)
    except UnicodeDecodeError as e:
        return f"{path} is not UTF-8, UTF-16 or UTF-32 text: {e}"


_BASIS_COMMANDS = [("verify", "ueb"), ("verify", "nice"),
                   ("analyze", "monomial"), ("analyze", "sparsity"),
                   ("analyze", "wickedness"), ("analyze", "cocycle")]


@pytest.mark.parametrize("source", ["pauli:3", "sam cyclic:3 fourier:3",
                                    "hadamard fourier:3"])
def test_mutated_files_exit_cleanly(capsys, tmp_path, source):
    # seeded byte-, token-, key- and member-level mutants of a small file:
    # every command exits 0, 1 or 2 without raising, exit 2 comes with an
    # error line, a basis file reads as json.loads plus basis_from_json
    # does, a zero-padded exponent key is refused, and a basis missing or
    # repeating a member is refused by its count
    f = tmp_path / "file.json"
    is_basis = not source.startswith("hadamard")
    if is_basis:
        assert main(["construct", *source.split(), "--out", str(f)]) == 0
        commands = _BASIS_COMMANDS
    else:
        _write_json(str(f), matrix_to_json(fourier_hadamard(3)),
                    RunReport(command=[], seed=0, jobs=1))
        commands = [("verify", "hadamard")]
    capsys.readouterr()
    rng = random.Random(f"mutants {source}")
    g = tmp_path / "mutant.json"
    bad, codes = [], set()
    mutants = _mutants(f.read_bytes(), rng, 120)
    if is_basis:
        mutants += _member_mutants(f.read_bytes(), rng, 8)
    mutants += _padded_key_mutants(f.read_bytes(), rng, 8)
    for k, (kind, data) in enumerate(mutants):
        g.write_bytes(data)
        want = None
        if is_basis:
            want = _reference(g)
            try:
                got = _read_basis(str(g), RunReport(command=[], seed=0,
                                                    jobs=1))
            except InputError as e:
                got = str(e)
            if not (got == want if isinstance(want, str)
                    else not isinstance(got, str) and _same_basis(got, want)):
                bad.append((k, kind, "reader", got))
        for command in commands:
            try:
                rc = main([*command, str(g)])
            except Exception as e:   # a traceback on the command line
                bad.append((k, kind, command, repr(e)))
                continue
            out, err = capsys.readouterr()
            first = json.loads(out.splitlines()[0]) if out else {}
            if (rc not in (0, 1, 2) or (rc == 2) != ("error" in first)
                    or "Traceback" in out + err):
                bad.append((k, kind, command, rc))
            elif isinstance(want, str) and first.get("error") != want:
                bad.append((k, kind, command, first))
            elif kind == "pad-key" and rc != 2:
                bad.append((k, kind, command, rc))
            elif kind.endswith("-member") and not _member_count_refused(
                    command, rc, out, data):
                bad.append((k, kind, command, rc, first))
            codes.add(rc)
    assert bad == []
    assert {kind for kind, _ in mutants} >= (
        {"drop-member", "repeat-member", "pad-key"} if is_basis
        else {"pad-key"})
    # the mutants reach both outcomes: refused files and files that run
    assert codes >= {0, 2}


def test_zero_padded_exponent_key_exits_2(capsys, tmp_path):
    # int() reads "0" and "00" alike, so the entry 1 + 1 = 2 was read as 1
    # and this 1 x 1 basis passed verify ueb; the text route (the layout
    # the CLI writes) and the whole decode (any other) now both refuse it
    entry = {"coeffs": {"0": "1", "00": "1"}, "order": 1, "symbols": {}}
    obj = {"d": 1, "labels": [[0, 0]], "members": [
        {"cols": 1, "entries": [entry], "rows": 1, "scale": "1"}]}
    text = cli._DUMPS(obj)
    i = text.index('{"cols"')
    assert cli._member_from_text(text.replace('"00"', '"1"'), i, set(), {})
    assert cli._member_from_text(text, i, set(), {}) is None
    g = tmp_path / "padded.json"
    for layout in (text + "\n", json.dumps(obj, indent=1)):
        g.write_text(layout)
        rc, lines, err = run(capsys, ["verify", "ueb", str(g)])
        assert rc == 2 and "error:" in err
        assert lines[0]["error"] == _old_route(g) == (
            "cannot interpret basis file: exponent key '00' has a leading "
            "zero")


def _unit_of_order(order):
    return {"rows": 1, "cols": 1, "scale": "1",
            "entries": [{"order": order, "coeffs": {"0": "1"}, "symbols": {}}]}


@pytest.mark.parametrize("kind", ["ueb", "hadamard"])
def test_order_above_the_bound_exits_2(capsys, tmp_path, kind):
    # 2,053 is the least prime above the bound; Phi_2053 reduces x^2052
    # alone, so a reader without the bound would accept the file at once
    assert MAX_JSON_ORDER < 2053
    assert not any(2053 % q == 0 for q in range(2, 46))
    member = _unit_of_order(2053)
    obj = {"ueb": {"d": 1, "members": [member], "labels": [[0, 0]]},
           "hadamard": member}[kind]
    g = tmp_path / "order.json"
    g.write_text(json.dumps(obj))
    rc, lines, err = run(capsys, ["verify", kind, str(g)])
    assert rc == 2
    assert lines[0]["error"].endswith(
        f"'order' 2053 is above {MAX_JSON_ORDER}")
    assert "error:" in err
    g.write_text(json.dumps(obj).replace("2053", str(MAX_JSON_ORDER)))
    assert run(capsys, ["verify", kind, str(g)])[0] == 0


def _run_bounded(argv):
    """The CLI on argv in a child process capped at 1 GiB and 20 s, so that
    a reader which lets products promote to a huge order fails the test
    instead of filling the machine's memory."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = os.path.dirname(os.path.dirname(uebkit.__file__))
    return subprocess.run([sys.executable, "-m", "uebkit.cli", *argv],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=20,
                          preexec_fn=cap)


def _diag_of_orders(*orders):
    return matrix_to_json(ExactMatrix.diagonal(
        [PhasedScalar.zeta(n) for n in orders]))


_LCM = 2039 * 2029  # both primes below the bound, their lcm far above it
_LAYOUTS_BY_ROUTE = {
    "text": lambda obj: json.dumps(obj, sort_keys=True, separators=(",", ":")),
    "json": json.dumps,
}


@pytest.mark.parametrize("route", sorted(_LAYOUTS_BY_ROUTE))
@pytest.mark.parametrize("mixed", ["in-one-member", "across-members"])
def test_entry_orders_with_lcm_above_the_bound_exit_2(tmp_path, route,
                                                      mixed):
    # products would promote to order 2039 * 2029 and build its tables
    first = ([_diag_of_orders(2039, 2029), _diag_of_orders(1, 1)]
             if mixed == "in-one-member"
             else [_diag_of_orders(2039, 2039), _diag_of_orders(2029, 2029)])
    members = first + [_diag_of_orders(1, 1)] * 2
    g = tmp_path / "mixed.json"
    g.write_text(_LAYOUTS_BY_ROUTE[route](
        {"d": 2, "labels": [[0, 0], [0, 1], [1, 0], [1, 1]],
         "members": members}))
    h = tmp_path / "hadamard.json"
    h.write_text(json.dumps(first[0] if mixed == "in-one-member" else first))
    message = f"entry orders have lcm {_LCM}, above {MAX_JSON_ORDER}"
    for argv, what in (
            (["verify", "ueb", str(g)], "basis file"),
            (["verify", "nice", str(g)], "basis file"),
            (["analyze", "sparsity", str(g)], "basis file"),
            (["verify", "hadamard", str(h)] if mixed == "in-one-member" else
             ["construct", "sam", "cyclic:2", str(h), "--out",
              str(tmp_path / "out.json")],
             "matrix file" if mixed == "in-one-member"
             else "hadamard sequence")):
        t0 = time.perf_counter()
        done = _run_bounded(argv)
        assert time.perf_counter() - t0 < 1, argv
        assert done.returncode == 2, (argv, done.stderr[-500:])
        assert json.loads(done.stdout)["error"] == \
            f"cannot interpret {what}: {message}"
        assert "error:" in done.stderr
    assert not (tmp_path / "out.json").exists()


def test_index_group_too_large_for_a_full_sweep_exits_2(capsys, tmp_path):
    # 23^4 pairs exceed nice.MAX_FULL_PAIRS.  The file's members are all
    # the identity: its size and labels are what the refusal reads.
    f = tmp_path / "d23.json"
    ident = ExactMatrix.identity(23)
    labels = tuple((i, j) for i in range(23) for j in range(23))
    f.write_text(json.dumps(basis_to_json(
        UnitaryErrorBasis(23, (ident,) * len(labels), labels))))
    for argv in (["analyze", "cocycle", "pauli:23"],
                 ["construct", "nice:pauli:23", "--out",
                  str(tmp_path / "out.json")],
                 ["verify", "nice", str(f)]):
        rc, lines, err = run(capsys, argv)
        assert rc == 2, argv
        assert lines[0]["error"] == (
            "index group of order 529 has 279841 pairs, more than the "
            "250000 of a full pair sweep")
        assert "error:" in err
    assert not (tmp_path / "out.json").exists()


def test_spec_bound_admits_the_largest_spec_in_use():
    # analyze induce heisenberg:7 builds 7^7 = 823,543 dense entries, and
    # pauli:31 builds 31^4 = 923,521; one more is refused
    assert cli._positive_int("7", "modulus", 7) == 7
    assert cli._positive_int("31", "dimension", 4) == 31
    with pytest.raises(TypeError):  # no default power leaves a spec unbounded
        cli._positive_int("10", "dimension")
    for text, power in (("8", 7), ("32", 4)):
        with pytest.raises(InputError, match="more than 1000000 dense"):
            cli._positive_int(text, "size", power)


def test_inline_specs_above_the_entry_bound_exit_2(tmp_path):
    # each spec asks for just over MAX_SPEC_ENTRIES dense entries and is
    # refused before it allocates them
    induce = tmp_path / "induce.json"
    induce.write_text(json.dumps({"group": "heisenberg:8"}))
    out = str(tmp_path / "out.json")
    for argv, message in (
            (["construct", "pauli:32", "--out", out], "pauli dimension 32"),
            (["construct", "nice:pauli:32", "--out", out],
             "pauli dimension 32"),
            (["construct", "nice:heisenberg:32", "--out", out],
             "heisenberg modulus 32"),
            (["construct", "sam", "cyclic:32", "fourier:3", "--out", out],
             "latin order 32"),
            (["construct", "sam", "cyclic:3", "fourier:32", "--out", out],
             "fourier order 32"),
            (["analyze", "wickedness", "sam:cyclic:32,alpha"],
             "latin order 32"),
            (["analyze", "induce", "heisenberg:8"], "heisenberg modulus 8"),
            (["analyze", "induce", str(induce)], "heisenberg modulus 8")):
        t0 = time.perf_counter()
        done = _run_bounded(argv)
        assert time.perf_counter() - t0 < 1, argv
        assert done.returncode == 2, (argv, done.stderr[-500:])
        assert json.loads(done.stdout)["error"] == (
            f"{message} would build more than {cli.MAX_SPEC_ENTRIES} "
            "dense entries")
        assert "error:" in done.stderr
    assert not os.path.exists(out)


def _sam_files(tmp_path, d):
    """A cyclic Latin square file and a Fourier matrix file of order d."""
    latin, had = tmp_path / f"latin{d}.json", tmp_path / f"fourier{d}.json"
    latin.write_text(json.dumps([list(r) for r in cyclic_latin(d).cells]))
    had.write_text(json.dumps(matrix_to_json(fourier_hadamard(d))))
    return str(latin), str(had)


def test_sam_files_above_the_entry_bound_exit_2(tmp_path):
    # files carry no spec to bound: order 32 asks for 32^4 dense entries,
    # just over MAX_SPEC_ENTRIES, and is refused before the Hadamard check
    latin, had = _sam_files(tmp_path, 32)
    out = str(tmp_path / "out.json")
    for argv in (["construct", "sam", latin, had, "--out", out],
                 ["analyze", "monomial", f"sam:{latin},{had}"]):
        t0 = time.perf_counter()
        done = _run_bounded(argv)
        assert time.perf_counter() - t0 < 1, argv
        assert done.returncode == 2, (argv, done.stderr[-500:])
        assert json.loads(done.stdout)["error"] == (
            f"latin order 32 would build more than {cli.MAX_SPEC_ENTRIES} "
            "dense entries")
        assert "error:" in done.stderr
    assert not os.path.exists(out)


def test_sam_file_bound_admits_order_31(capsys, tmp_path, monkeypatch):
    # 31^4 = 923,521 dense entries pass the bound and reach
    # shift_and_multiply, stubbed so that nothing is built; 32 does not
    seen = []

    def stub(latin, had):
        seen.append((latin.d, had.rows))
        raise ValueError("not built")

    monkeypatch.setattr(cli, "shift_and_multiply", stub)
    for d, error in ((31, "cannot build shift-and-multiply basis: not built"),
                     (32, "latin order 32 would build more than 1000000 "
                          "dense entries")):
        rc, lines, _ = run(capsys, ["analyze", "monomial",
                                    "sam:%s,%s" % _sam_files(tmp_path, d)])
        assert rc == 2 and lines[0]["error"] == error
    assert seen == [(31, 31)]


def test_members_are_decoded_before_a_later_syntax_error(capsys, tmp_path,
                                                         monkeypatch):
    text = _pauli_file(capsys, tmp_path, 3).read_text()
    members = json.loads(text)["members"]
    g = tmp_path / "late-error.json"
    end = _member_end(text, 2)  # at the ',' after member 2
    g.write_text(text[:end] + ";" + text[end + 1:])
    seen = []
    member_from_text = cli._member_from_text

    def hook(text, i, *read):
        seen.append(json.JSONDecoder().raw_decode(text, i)[0])
        return member_from_text(text, i, *read)

    monkeypatch.setattr(cli, "_member_from_text", hook)
    rc, lines, _ = run(capsys, ["verify", "ueb", str(g)])
    assert rc == 2
    assert lines[0]["error"] == _old_route(g)
    assert "not valid JSON" in lines[0]["error"]
    assert seen == members[:3]


def test_reading_a_basis_file_peaks_below_four_times_its_size(capsys,
                                                                tmp_path):
    f = tmp_path / "induced5.json"
    assert main(["analyze", "induce", "heisenberg:5", "--out", str(f)]) == 0
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert main(["analyze", "sparsity", str(f)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    size = f.stat().st_size
    assert size > 2_500_000
    assert peak < 4 * size, f"peak {peak} is {peak / size:.1f}x the file"


@pytest.mark.parametrize("argv, sha256", [
    (["construct", "pauli:3"],
     "025d9dce5a3c970f4019cefb8364e7a03ff124bb109f57d87897bd6327e854cf"),
    (["construct", "sam", "cyclic:4", "alpha"],
     "dbdea2dd068f4f5bb43585f08e8e4f525bde0d28fd7cf95910782b03eba3593d"),
    (["analyze", "induce", "heisenberg:3"],
     "6ced9780ca3f61fb1c1929f320ecd1f3fcd39fad18a33965976da81e7f9b6368"),
    (["construct", "pauli:12"],
     "3ca45981b42baf9a79a0c34b7ef2cfb0d072ed9b918839ad7191664a47c28d49"),
    (["analyze", "induce", "heisenberg:7"],
     "3bd4031bf557e239636978d4f3795d35019b56048d4be9756f0c3036dcd36356"),
])
def test_written_file_bytes_are_pinned(capsys, tmp_path, argv, sha256):
    f = tmp_path / "out.json"
    assert main(argv + ["--out", str(f)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(f.read_bytes()).hexdigest() == sha256


def _bundle_like():
    """Nested dicts that hold no list, a list of strings, and matrices
    shared between two places, as in export_bundle."""
    f = matrix_to_json(fourier_hadamard(3))
    return {"dim": 3, "pools": {"3": {"0,1": f, "1,0": f}, "5": {}},
            "conj": {"F": f, "order": 2, "action": [[1, 2], [0, 1]]},
            "names": ["a", "b"], "note": "text \u00e9", "ratio": "1/3"}


@pytest.mark.parametrize("obj", [
    basis_to_json(shift_and_multiply(cyclic_latin(4), h_alpha())),
    _bundle_like(),
    {"d": 2, "labels": [], "members": []},
], ids=["basis", "bundle-like", "no-members"])
def test_streamed_writer_matches_json_dumps(tmp_path, obj):
    f = tmp_path / "out.json"
    report = RunReport(command=[], seed=0, jobs=1)
    _write_json(str(f), obj, report)
    want = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    assert f.read_bytes() == want.encode()
    (artifact,) = report.artifacts
    assert artifact["sha256"] == hashlib.sha256(f.read_bytes()).hexdigest()


def _nested_pools():
    """A dict of dicts of matrix dicts coded with one shared memo, so the
    matrices share entry objects, as export_bundle's pools do; one entry
    has two terms and so holds a "terms" list."""
    t = PhasedScalar.symbol("t")
    two_terms = ExactMatrix(2, 2, [ONE + t, ONE, PhasedScalar.zero(3),
                                   PhasedScalar.zeta(3)], 1)
    memo = {}
    pools = {p: {f"{k},0": matrix_to_json(m, memo) for k, m in enumerate(ms)}
             for p, ms in (("3", [fourier_hadamard(3), two_terms]),
                           ("5", [fourier_hadamard(5), fourier_hadamard(3)]),
                           ("7", []))}
    return {"pools": pools, "labels": [[0, 1], [1, 0]], "empty": [],
            "none": {}, "nested": {"a": {"b": []}, "c": {"d": {}}},
            "caveat": "text [with brackets]"}


def test_json_pieces_match_dumps_on_nested_shapes():
    obj = _nested_pools()
    entries = [e for ms in obj["pools"].values() for m in ms.values()
               for e in m["entries"]]
    # one object per distinct entry across all the matrices
    assert len({id(e) for e in entries}) == len(
        {json.dumps(e, sort_keys=True) for e in entries})
    assert any("terms" in e for e in entries)
    for x in (obj, {"pools": obj["pools"]}, {"labels": [[]]}, {}):
        assert "".join(cli._json_pieces(x)) == cli._DUMPS(x) + "\n"


def test_usage_errors_exit_2(capsys):
    assert main(["verify", "not-a-kind", "x"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()


def test_pretty_format_is_one_document(capsys):
    rc = main(["analyze", "monomial", "pauli:2", "--format", "pretty"])
    captured = capsys.readouterr()
    assert rc == 0
    doc = json.loads(captured.out)
    assert doc["ok"] is True
    assert {"command", "seed", "jobs", "checks", "artifacts"} <= set(doc)


def _monomial_details(request):
    rc, lines, _ = run(request.getfixturevalue("capsys"),
                       ["analyze", "monomial", "pauli:2"])
    assert rc == 0
    return checks_by_name(lines)["monomial"]["details"]


# each report's keys as built from its fields: a field added later changes
# a report only through an edit here
_REPORT_KEYS = {
    "niceness": (lambda request: verify_nice(pauli_rep(2)).summary(),
                 "cocycle_exhaustive cocycle_ok dim elements_checked failures "
                 "group_order identity_ok label ok pair_mode pair_route "
                 "pairs_checked seed trace_ok unitary_ok"),
    "ueb": (lambda request: verify_ueb(pauli_basis(2)).summary(),
            "cardinality_ok d failures ok orthogonality_ok pair_route "
            "pairs_checked unitary_ok"),
    "counterexample": (
        lambda request: request.getfixturevalue("report").summary(),
        "caveat center_cyclic center_order center_scalars_ok cross_checks "
        "cross_ok dim group_order identity_trace_ok monomial_members niceness "
        "nonmonomial_members nonmonomial_witness ok quotient_order "
        "trace_zero_count"),
    "run-report": (lambda request: RunReport(["uebkit"], 1, 1).document(),
                   "artifacts checks command jobs ok seed"),
    "analyze-monomial": (_monomial_details,
                         "is_monomial per_matrix_nonzero zero_fraction"),
}


@pytest.mark.parametrize("name", sorted(_REPORT_KEYS))
def test_report_keys_are_pinned(request, name):
    build, keys = _REPORT_KEYS[name]
    assert sorted(build(request)) == keys.split()


def test_report_fields_reach_the_default_header(capsys):
    # the JSON-lines header is document() less checks, artifacts and ok,
    # so a field added to RunReport reaches both layouts
    @dataclasses.dataclass
    class Tagged(RunReport):
        tag: str = "extra"

    report = Tagged(["uebkit", "x"], 7, 2)
    started = time.perf_counter()
    report.check("probe", True, started)
    cli._emit(report, "json")
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert lines[0] == {"command": ["uebkit", "x"], "seed": 7, "jobs": 2,
                        "tag": "extra"}
    assert lines[1]["check"] == "probe"
    assert lines[2] == {"ok": True, "artifacts": []}
    cli._emit(report, "pretty")
    doc = json.loads(capsys.readouterr().out)
    assert {k: doc[k] for k in lines[0]} == lines[0]


def test_jobs_flag_does_not_change_results(capsys):
    rc1, lines1, _ = run(capsys, ["analyze", "monomial", "pauli:3",
                                  "--jobs", "1"])
    rc2, lines2, _ = run(capsys, ["analyze", "monomial", "pauli:3",
                                  "--jobs", "4"])
    assert rc1 == rc2 == 0
    body1 = strip_timing([l for l in lines1 if "check" in l])
    body2 = strip_timing([l for l in lines2 if "check" in l])
    assert body1 == body2


# ---------------------------------------------------------------------------
# the 165-dimensional pipeline, exercised once through the CLI


def test_cli_counterexample_construct(counterexample_bundle, capsys):
    capsys.readouterr()
    obj = json.loads(Path(counterexample_bundle).read_text())
    assert obj["group_order"] == 4_492_125
    assert obj["center_order"] == 165
    assert "generators_full" not in obj
    assert len(obj["factor_pools"]["11"]) == 363
    # the bundle's bytes: a change to them must be deliberate
    with open(counterexample_bundle, "rb") as f:
        assert hashlib.sha256(f.read()).hexdigest() == (
            "a7476a69b2583f2dae3fb230b5fd036b663ce06b595804f3dd7f21556da86655")


def test_cli_counterexample_verify(counterexample_bundle, capsys):
    rc, lines, _ = run(capsys, ["verify", "counterexample165",
                                counterexample_bundle])
    assert rc == 0
    named = checks_by_name(lines)
    assert named["bundle-matches-rebuild"]["ok"]
    details = named["counterexample"]["details"]
    assert details["trace_zero_count"] == 27_224
    assert details["nonmonomial_members"] == 24_200
    assert details["niceness"]["ok"] is True


def test_cli_counterexample_bundle_missing_key_exits_2(counterexample_bundle,
                                                       capsys, tmp_path):
    obj = json.loads(Path(counterexample_bundle).read_text())
    del obj["dim"]
    f = tmp_path / "trimmed.json"
    f.write_text(json.dumps(obj))
    rc, lines, _ = run(capsys, ["verify", "counterexample165", str(f)])
    assert rc == 2
    assert "dim" in lines[0]["error"]


def test_import_leaves_numpy_unloaded():
    # numpy serves only the packed check route (uebkit.fastcyc), which
    # the program never runs
    src = os.path.dirname(os.path.dirname(uebkit.__file__))
    code = ("import sys, uebkit, uebkit.cli; "
            "assert 'numpy' not in sys.modules, 'numpy was imported'")
    done = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
