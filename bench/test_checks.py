"""The benchmark's own checks: each accepts a right output and rejects a
corrupted one.  Run with `python3 -m pytest bench` from the repository
root."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402
from uebkit.cli import main as cli_main  # noqa: E402
from uebkit.combinat import fourier_hadamard  # noqa: E402
from uebkit.cyclo import scalar_to_json  # noqa: E402
from uebkit.exactmat import ExactMatrix, matrix_to_json  # noqa: E402
from uebkit.nice import (clock_matrix, extract_cocycle, pauli_rep,  # noqa: E402
                         quadratic_diag, shift_matrix, verify_nice)
from uebkit.ueb import basis_to_json, pauli_basis  # noqa: E402

ONE = {"order": 1, "coeffs": {"0": "1"}, "symbols": {}}


def cli(argv: list) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        assert cli_main(argv) == 0
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    return {c["check"]: c.get("details", {}) for c in lines if "check" in c}


@pytest.fixture(scope="module")
def g165_bundle():
    """Factor pools as export_bundle writes them, built by the exact route,
    and the report figures that go with them."""
    pools = {}
    for p in (3, 5, 11):
        x, z = shift_matrix(p), clock_matrix(p)
        word = quadratic_diag(p) @ (z ** 3) @ fourier_hadamard(p)
        r = (word @ word).scalar_mul(Fraction(1, p))
        powers = [ExactMatrix.identity(p), r, r @ r] if p != 3 else [None]
        pool = {}
        for xx in range(p):
            for yy in range(p):
                base = (z ** yy) @ (x ** xx)
                for k, rk in enumerate(powers):
                    key = f"{xx},{yy},{k}" if rk is not None else f"{xx},{yy}"
                    pool[key] = matrix_to_json(base @ rk if k else base)
        pools[str(p)] = pool
    details = {"monomial_members": 3025, "trace_zero_count": 27224,
               "niceness": {"pairs_checked": 336_700}}
    return {"factor_pools": pools}, details


def test_g165_check_accepts_the_pools(g165_bundle):
    bundle, details = g165_bundle
    assert checks.check_g165(bundle, details) == []


def test_g165_check_rejects_a_flipped_sign(g165_bundle):
    bundle, details = g165_bundle
    bad = copy.deepcopy(bundle)
    entry = bad["factor_pools"]["11"]["4,5,1"]
    entry["scale"] = str(-Fraction(entry["scale"]))
    problems = checks.check_g165(bad, details)
    assert any("pool 11 entry 4,5,1" in p for p in problems)


def test_g165_check_rejects_wrong_counts(g165_bundle):
    bundle, details = g165_bundle
    for key, value in (("monomial_members", 3024),
                       ("trace_zero_count", 27225),
                       ("niceness", {"pairs_checked": 336_699})):
        assert checks.check_g165(bundle, {**details, key: value})


def pauli_outputs(d: int):
    rep = pauli_rep(d)
    report = verify_nice(rep, pair_mode="all")
    members = {g: matrix_to_json(rep.matrix(g)) for g in rep.group.elements()}
    pairs = [((1, 2), (2, 1)), ((0, 1), (1, 0)), ((2, 2), (2, 2))]
    cocycles = {(g, h): scalar_to_json(extract_cocycle(rep, g, h))
                for g, h in pairs}
    return members, report.pairs_checked, cocycles


def test_pauli_check_accepts_and_rejects_an_added_entry():
    members, pairs, cocycles = pauli_outputs(3)
    assert checks.check_pauli(3, members, pairs, cocycles) == []
    bad = copy.deepcopy(members)
    bad[(1, 2)]["entries"][0] = ONE  # X Z^2 is zero at (0, 0)
    assert checks.check_pauli(3, bad, pairs, cocycles) == [
        "d=3: member (1, 2) is not X^1 Z^2"]
    assert checks.check_pauli(3, members, pairs - 1, cocycles)
    wrong = dict(cocycles)
    wrong[((1, 2), (2, 1))] = ONE
    assert checks.check_pauli(3, members, pairs, wrong)


def test_basis_check_rejects_a_repeated_member():
    obj = basis_to_json(pauli_basis(3))
    assert checks.check_basis_file(obj) == []
    bad = copy.deepcopy(obj)
    bad["members"][2] = bad["members"][1]
    assert checks.check_basis_file(bad) == ["Gram matrix is not 3 I"]
    assert checks.check_basis_file({**obj, "members": obj["members"][:8]})


def test_induced_check_rejects_an_extra_nonzero(tmp_path):
    path = tmp_path / "induce3.json"
    cli(["analyze", "induce", "heisenberg:3", "--out", str(path)])
    obj = json.loads(path.read_text())
    assert checks.check_induced_file(obj, 9) == []
    bad = copy.deepcopy(obj)
    zero = next(n for n, e in enumerate(bad["members"][5]["entries"])
                if not e["coeffs"])
    bad["members"][5]["entries"][zero] = ONE
    problems = checks.check_induced_file(bad, 9)
    assert problems and problems[0].startswith("member 5 has 10 nonzero")


def test_alpha_wickedness_check():
    details = cli(["analyze", "wickedness", "sam:cyclic:4,alpha"])["wickedness"]
    assert checks.check_alpha_wickedness(details) == []
    swapped = {**details, "diagonal": details["diagonal"][::-1]}
    assert checks.check_alpha_wickedness(swapped)
    other = {**details, "pair": ["(1, 0)", "(0, 0)"]}
    assert checks.check_alpha_wickedness(other)
    assert checks.check_alpha_wickedness({"witness_found": False})


def test_tracer_self_times_add_up_and_uninstall_restores():
    import uebkit.nice
    original = uebkit.nice.verify_nice
    tr = Tracer()
    tr.install()
    try:
        tr.start()
        report = uebkit.nice.verify_nice(uebkit.nice.pauli_rep(3))
        tr.stop()
    finally:
        tr.uninstall()
    assert report.ok
    assert uebkit.nice.verify_nice is original
    total = sum(tr.module_self.values()) + tr.unattributed_s()
    assert total == pytest.approx(tr.check_s(), abs=1e-9)
    assert tr.edges[("nice.verify_nice", "nice.extract_cocycle")] == 81
    assert tr.calls("cyclo.Cyclotomic.__mul__") > 0
    assert [s[2] for s in tr.spans][-1] == "nice.verify_nice"
