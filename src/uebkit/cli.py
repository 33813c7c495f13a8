"""Command line front end: construct, verify, analyze.

Machine-readable reports go to stdout (JSON lines by default, one
indented document with --format pretty) and a short human summary goes
to stderr.  Exit status: 0 when every check passed, 1 when a check
failed, 2 when arguments or input files could not be interpreted.

Basis files use the JSON layout of basis_to_json.  Niceness and cocycle
analysis additionally require the labels to be (i, j) pairs indexing
Z_d x Z_d, which is what the construct command writes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .combinat import (
    cyclic_latin,
    check_complex_hadamard,
    fourier_hadamard,
    h_alpha,
    hadamard_seq_from_json,
    latin_from_json,
    validate_latin,
)
from .counterexample165 import (
    DEFAULT_SEED,
    build_g165,
    export_bundle,
    verify_counterexample,
)
from .cyclo import PhasedScalar, json_int, scalar_from_json
from .exactmat import ExactMatrix, matrix_from_json
from .groups import (
    CyclicGroup,
    DirectProduct,
    HeisenbergElement,
    HeisenbergGroup,
    SubgroupView,
)
from .induce import (
    character_rep,
    class_function,
    induce_character,
    induce_representation,
    sparsity_check,
)
from .nice import (
    MAX_FULL_PAIRS,
    CocycleError,
    ProjectiveRep,
    cocycle_table,
    pauli_rep,
    verify_nice,
    weyl_matrix,
)
from .ueb import (
    UebReport,
    UnitaryErrorBasis,
    basis_from_fields,
    basis_from_rep,
    basis_to_json,
    pauli_basis,
    shift_and_multiply,
    verify_ueb,
    wickedness_witness,
)


class InputError(Exception):
    """Arguments or input files could not be interpreted (exit 2)."""


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, Fraction):
        return str(x)
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    return str(x)


@dataclass
class RunReport:
    """Echo of the invocation plus timed per-check results and the
    sha256 of every file read or written."""

    command: list
    seed: int
    jobs: int
    checks: list = field(default_factory=list)
    artifacts: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.checks)

    def check(self, name: str, ok, started: float, witness=None,
              details=None) -> bool:
        entry = {"check": name, "ok": bool(ok),
                 "seconds": round(time.perf_counter() - started, 3)}
        if witness is not None:
            entry["witness"] = str(witness)
        if details:
            entry["details"] = _jsonable(details)
        self.checks.append(entry)
        return bool(ok)

    def document(self) -> dict:
        return {**vars(self), "ok": self.ok}


_DUMPS = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _emit(report: RunReport, fmt: str) -> None:
    if fmt == "pretty":
        print(json.dumps(report.document(), indent=2, sort_keys=True))
    else:
        head = report.document()
        checks = head.pop("checks")
        tail = {k: head.pop(k) for k in ("ok", "artifacts")}
        print(_DUMPS(head))
        for c in checks:
            print(_DUMPS(c))
        print(_DUMPS(tail))
    for c in report.checks:
        line = f"  {c['check']}: {'pass' if c['ok'] else 'FAIL'}" \
               f" ({c['seconds']:.3f}s)"
        if not c["ok"] and "witness" in c:
            line += f"  [{c['witness']}]"
        print(line, file=sys.stderr)
    print(f"{'PASS' if report.ok else 'FAIL'} seed={report.seed} "
          f"checks={len(report.checks)}", file=sys.stderr)


def _emit_input_error(message: str, fmt: str) -> None:
    obj = {"error": message, "ok": False}
    if fmt == "pretty":
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        print(_DUMPS(obj))
    print(f"error: {message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# file plumbing


_DECODER = json.JSONDecoder()
_WS = json.decoder.WHITESPACE.match
_INPUT_ERRORS = (KeyError, TypeError, ValueError, ZeroDivisionError,
                 RecursionError)  # the decoders recurse once per level


def _read_json(path: str, report: RunReport, decode=_DECODER.decode):
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}")
    sha256 = hashlib.sha256(data).hexdigest()
    try:
        text = data.decode(json.detect_encoding(data), "surrogatepass")
    except UnicodeDecodeError as e:
        raise InputError(f"{path} is not UTF-8, UTF-16 or UTF-32 text: {e}")
    del data
    # the decoders build acyclic objects: a collection mid-decode frees nothing
    enabled = gc.isenabled()
    gc.disable()
    try:
        obj = decode(text)
    except json.JSONDecodeError as e:
        raise InputError(f"{path} is not valid JSON: {e}")
    except RecursionError as e:
        raise InputError(f"{path} nests too deeply to decode: {e}")
    finally:
        if enabled:
            gc.enable()
    report.artifacts.append({"role": "in", "path": path, "sha256": sha256})
    return obj


def _expect(text: str, i: int, chars: str):
    """The next non-whitespace character, one of chars, and the index past
    it and the whitespace after it."""
    i = _WS(text, i).end()
    if not text.startswith(tuple(chars), i):
        raise json.JSONDecodeError(f"Expecting one of {chars!r}", text, i)
    return text[i], _WS(text, i + 1).end()


# a member in the layout _DUMPS gives matrix_to_json ([0-9]: \d is Unicode)
_HEAD = re.compile(r'\{"cols":([1-9][0-9]*),"entries":\[')
_TAIL = re.compile(r'}}],"rows":([1-9][0-9]*),"scale":"([^"\\\x00-\x1f]*)"}')


def _member_from_text(text: str, i: int, orders: set, memo: dict):
    """matrix_from_json(m, orders) and the index past m, for the member m
    at text[i] as the CLI writes it, or None.  Its entries, up to the first
    '}}],"rows":', are split on '}},'; each distinct piece with '}}' put
    back must decode as one whole value, which ends in '}' and so is an
    object.  json reads a value from its first character to its last, so
    the pieces are exactly the items json.loads reads from the array.  The
    patterns fix the keys, their order, positive integer shapes and a scale
    string with no escape or control character.  Anything else, or any
    error, gives None: the caller's matrix_from_json then gives the same
    matrix or error.  memo maps each piece of the file's members read so
    far to its scalar; it gains a member's new pieces only once the member
    is read, when their orders join orders."""
    head = _HEAD.match(text, i)
    end = text.find('}}],"rows":', head.end()) if head else -1
    if end < 0 or not (tail := _TAIL.match(text, end)):
        return None
    pieces = text[head.end():end].split("}},")
    local = dict.fromkeys(pieces)
    seen = set(orders)  # joins orders only if the member is read here
    try:
        for piece in local:
            local[piece] = memo[piece] if piece in memo else scalar_from_json(
                _DECODER.decode(piece + "}}"), seen)
        m = ExactMatrix(int(tail[1]), int(head[1]),
                        map(local.__getitem__, pieces), tail[2])
    except _INPUT_ERRORS:
        return None
    orders |= seen
    memo.update(local)
    return m, tail.end()


def _basis_fields(text: str):
    """json.loads(text) of a basis file and the function decoding a member.
    If "members" is a nonempty list, each member is decoded once it is read:
    by _member_from_text up to a decline, then by matrix_from_json.  Other
    text, a syntax error or a refused member stops the walk, and the text
    is decoded whole: json.loads and basis_from_json meet what stopped it."""
    with contextlib.suppress(*_INPUT_ERRORS):  # json's errors are ValueErrors
        fields, (c, i) = {}, _expect(text, 0, "{")
        while c != "}" and text.startswith('"', i):
            key, i = json.decoder.scanstring(text, i + 1)
            _, i = _expect(text, i, ":")
            if key == "members":
                c, i = _expect(text, i, "[")
                fields[key], orders, memo, got = [], set(), {}, True
                while c != "]":
                    got = got and _member_from_text(text, i, orders, memo)
                    item, i = got or _DECODER.raw_decode(text, i)
                    fields[key].append(
                        item if got else matrix_from_json(item, orders))
                    del item
                    c, i = _expect(text, i, ",]")
            else:
                fields[key], i = _DECODER.raw_decode(text, i)
            c, i = _expect(text, i, ",}")
        if c == "}" and i == len(text):
            return fields, lambda m: m
    orders = set()
    return _DECODER.decode(text), lambda m: matrix_from_json(m, orders)


def _read_basis(path: str, report: RunReport) -> UnitaryErrorBasis:
    obj, member = _read_json(path, report, _basis_fields)
    return _parse(lambda o: basis_from_fields(o, member), obj, "basis file")


def _holds_list(x) -> bool:
    return type(x) is list or (type(x) is dict
                               and any(map(_holds_list, x.values())))


def _json_text(x, memo: dict) -> str:
    """_DUMPS(x) for string-keyed x.  A value holding no list at any depth
    is coded once per object, as matrix_to_json shares entry objects
    across an export; memo holds ids of objects that x keeps alive.
    Memoizing containers too raised the 165 bundle's peak RSS by 13%."""
    text = memo.get(id(x))
    if text is None:
        if type(x) is list:
            return "[" + ",".join([_json_text(v, memo) for v in x]) + "]"
        if _holds_list(x):
            return "{" + ",".join([_DUMPS(k) + ":" + _json_text(v, memo)
                                   for k, v in sorted(x.items())]) + "}"
        text = memo[id(x)] = _DUMPS(x)
    return text


def _json_pieces(obj: dict):
    """_DUMPS(obj) and a newline in pieces, one per item of a list in obj, as
    for a basis member, so the whole text is never held.  Each piece gets
    its own memo: one memo for a whole induced basis left 12 MiB of heap
    that the next decode did not reuse, and raised its peak by 6 MiB."""
    for n, (k, v) in enumerate(sorted(obj.items())):
        yield ("," if n else "{") + _DUMPS(k) + ":"
        if type(v) is not list:
            yield _json_text(v, {})
            continue
        for i, item in enumerate(v):
            yield ("," if i else "[") + _json_text(item, {})
        yield "]" if v else "[]"
    yield "}\n" if obj else "{}\n"


def _write_json(path: str, obj: dict, report: RunReport) -> None:
    digest = hashlib.sha256()
    try:
        with open(path, "wb") as f:
            for piece in _json_pieces(obj):
                data = piece.encode()
                f.write(data)
                digest.update(data)
    except OSError as e:
        raise InputError(f"cannot write {path}: {e}")
    report.artifacts.append({"role": "out", "path": path,
                             "sha256": digest.hexdigest()})


def _parse(fn, obj, what: str):
    try:
        return fn(obj)
    except _INPUT_ERRORS as e:
        raise InputError(f"cannot interpret {what}: {e}")


def _looks_like_path(target: str) -> bool:
    return (os.path.exists(target) or target.endswith(".json")
            or os.sep in target)


# ---------------------------------------------------------------------------
# spec strings


# the most dense entries (members x d^2), n ** power for _bounded's n,
# that an inline spec or a sam basis from files may build: above analyze
# induce heisenberg:7's 7^7 = 343 x 49^2 = 823,543, the largest the tests
# and benchmark use
MAX_SPEC_ENTRIES = 1_000_000


def _positive_int(text: str, what: str, power: int) -> int:
    try:
        n = int(text)
    except ValueError:
        raise InputError(f"{what} must be an integer, got {text!r}")
    if n < 1:
        raise InputError(f"{what} must be positive, got {n}")
    return _bounded(n, what, power)


def _bounded(n: int, what: str, power: int) -> int:
    if n ** power > MAX_SPEC_ENTRIES:
        raise InputError(f"{what} {n} would build more than "
                         f"{MAX_SPEC_ENTRIES} dense entries")
    return n


def _latin_from_spec(spec: str, report: RunReport):
    if _looks_like_path(spec):
        return _parse(latin_from_json, _read_json(spec, report), "latin square")
    head, _, rest = spec.partition(":")
    if head == "cyclic":
        return cyclic_latin(_positive_int(rest, "latin order", 4))
    raise InputError(f"unknown latin spec {spec!r} (cyclic:<d> or a file)")


def _hadamard_from_spec(spec: str, report: RunReport):
    if _looks_like_path(spec):
        obj = _read_json(spec, report)
        if isinstance(obj, list):
            return _parse(hadamard_seq_from_json, obj, "hadamard sequence")
        return _parse(matrix_from_json, obj, "hadamard matrix")
    head, _, rest = spec.partition(":")
    if head == "fourier":
        return fourier_hadamard(_positive_int(rest, "fourier order", 4))
    if spec == "alpha":
        return h_alpha()
    raise InputError(
        f"unknown hadamard spec {spec!r} (fourier:<d>, alpha, or a file)")


def _heisenberg_modulus(text: str, power: int) -> int:
    d = _positive_int(text, "heisenberg modulus", power)
    if d < 2:
        raise InputError("heisenberg modulus must be at least 2")
    return d


def _rep_from_spec(spec: str) -> ProjectiveRep:
    head, _, rest = spec.partition(":")
    if head == "heisenberg":
        # one member per central coset: the z = 0 section, over Z_d x Z_d
        d = _heisenberg_modulus(rest, 4)
        return ProjectiveRep(DirectProduct(CyclicGroup(d), CyclicGroup(d)), d,
                             lambda g: weyl_matrix(d, *g),
                             label=f"{spec}/center")
    d = _positive_int(rest, f"{head or spec} dimension", 4)
    if head == "pauli":
        return pauli_rep(d)
    raise InputError(f"unknown representation spec {spec!r}")


def _basis_from_spec(spec: str, report: RunReport) -> UnitaryErrorBasis:
    """Build a basis from an inline spec, appending construction checks."""
    head, _, rest = spec.partition(":")
    if head == "sam":
        latin_spec, sep, had_spec = rest.partition(",")
        if not sep:
            raise InputError("sam spec needs <latin>,<hadamard>")
        return _sam_basis(latin_spec, had_spec, report)
    t0 = time.perf_counter()
    if head == "pauli":
        basis = pauli_basis(_positive_int(rest, "pauli dimension", 4))
    elif head == "nice":
        rep = _rep_from_spec(rest)
        basis = basis_from_rep(rep)
        nr = verify_nice(_full_sweep(rep), pair_mode="all")
        report.check("niceness", nr.ok, t0, details=nr.summary())
        t0 = time.perf_counter()
    else:
        raise InputError(f"unknown basis spec {spec!r}")
    return _constructed(spec, basis, t0, report)


def _sam_basis(latin_spec: str, had_spec: str, report: RunReport):
    """The shift-and-multiply basis of two specs, each inline or a file
    path taken as given, commas included."""
    t0 = time.perf_counter()
    latin = _latin_from_spec(latin_spec, report)
    # a file's order passed no spec bound: d^2 members of d x d
    _bounded(latin.d, "latin order", 4)
    had = _hadamard_from_spec(had_spec, report)
    try:
        basis = shift_and_multiply(latin, had)
    except ValueError as e:
        raise InputError(f"cannot build shift-and-multiply basis: {e}")
    return _constructed(f"sam:{latin_spec},{had_spec}", basis, t0, report)


def _constructed(spec: str, basis: UnitaryErrorBasis, t0: float,
                 report: RunReport) -> UnitaryErrorBasis:
    report.check("construct", True, t0, details={
        "spec": spec, "d": basis.d, "members": len(basis.members)})
    return basis


def _load_basis(target: str, report: RunReport) -> UnitaryErrorBasis:
    # a sam spec may name files, so only an existing file takes its place
    if os.path.exists(target) or (_looks_like_path(target)
                                  and not target.startswith("sam:")):
        return _read_basis(target, report)
    return _basis_from_spec(target, report)


def _pair_indexed_rep(basis: UnitaryErrorBasis, label: str) -> ProjectiveRep:
    """Reinterpret a basis whose labels are (i, j) pairs as a projective
    representation of Z_d x Z_d."""
    d = basis.d
    if len(basis.members) != d * d:
        raise InputError(f"need {d * d} members for a Z_{d} x Z_{d} index, "
                         f"got {len(basis.members)}")
    if any(m.rows != d or m.cols != d for m in basis.members):
        raise InputError(f"every member must be {d} x {d}")
    table = {}
    for lab, m in zip(basis.labels, basis.members):
        if not (isinstance(lab, tuple) and len(lab) == 2
                and all(type(v) is int and 0 <= v < d for v in lab)):
            raise InputError(f"label {lab!r} does not index Z_{d} x Z_{d}")
        table[lab] = m
    if len(table) != d * d:
        raise InputError("duplicate labels in basis")
    group = DirectProduct(CyclicGroup(d), CyclicGroup(d))
    return ProjectiveRep(group, d, table.__getitem__, label=label)


def _ueb_check(basis: UnitaryErrorBasis, report: RunReport) -> UebReport:
    t0 = time.perf_counter()
    ub = verify_ueb(basis)
    report.check("ueb-definition", ub.ok, t0, details=ub.summary())
    return ub


def _full_sweep(rep: ProjectiveRep) -> ProjectiveRep:
    """rep, unless its pairs are too many to check one by one."""
    if (n := rep.group.order) ** 2 > MAX_FULL_PAIRS:
        raise InputError(f"index group of order {n} has {n * n} pairs, more "
                         f"than the {MAX_FULL_PAIRS} of a full pair sweep")
    return rep


# ---------------------------------------------------------------------------
# construct


def _g165_checks(args, report: RunReport, bundle=None):
    """The build-g165 and counterexample checks, with bundle-matches-rebuild
    between them when a bundle file's object is given.  Returns the build."""
    t0 = time.perf_counter()
    g = build_g165(seed=args.seed)
    report.check("build-g165", True, t0, details={
        "group_order": g.group.order, "center_order": len(g.center),
        "seed": args.seed, "checks": g.checks})
    if bundle is not None:
        t0 = time.perf_counter()
        fresh = export_bundle(g, factors_only="generators_full" not in bundle)
        same = json.loads(json.dumps(fresh)) == bundle
        report.check("bundle-matches-rebuild", same, t0,
                     witness=None if same else "file differs from rebuilt bundle")
    t0 = time.perf_counter()
    rep = verify_counterexample(g, seed=args.seed)
    report.check("counterexample", rep.ok, t0,
                 details={"seed": args.seed, **rep.summary()})
    return g


def cmd_construct(args, report: RunReport) -> None:
    if args.kind == "counterexample165":
        if args.params:
            raise InputError("counterexample165 takes no extra parameters")
        g = _g165_checks(args, report)
        bundle = export_bundle(g, factors_only=args.factors_only)
        _write_json(args.out, bundle, report)
        return
    if args.factors_only:
        raise InputError("--factors-only only applies to counterexample165")
    if args.kind == "sam":
        if len(args.params) != 2:
            raise InputError("construct sam needs <latin> <hadamard>")
        basis = _sam_basis(*args.params, report)
    elif args.params:
        raise InputError(f"construct {args.kind} takes no extra parameters")
    else:
        basis = _basis_from_spec(args.kind, report)
    _ueb_check(basis, report)
    _write_json(args.out, basis_to_json(basis), report)


# ---------------------------------------------------------------------------
# verify


def _verify_counterexample_file(args, report: RunReport) -> None:
    obj = _read_json(args.path, report)
    if not isinstance(obj, dict):
        raise InputError("bundle file must hold a JSON object")
    for key in ("dim", "group_order", "conjugators", "factor_pools",
                "generators"):
        if key not in obj:
            raise InputError(f"bundle is missing key {key!r}")
    _g165_checks(args, report, obj)


def cmd_verify(args, report: RunReport) -> None:
    if args.kind == "counterexample165":
        _verify_counterexample_file(args, report)
        return
    if args.kind == "ueb":
        _ueb_check(_read_basis(args.path, report), report)
    elif args.kind == "nice":
        basis = _read_basis(args.path, report)
        rep = _pair_indexed_rep(basis, label=f"file:{os.path.basename(args.path)}")
        t0 = time.perf_counter()
        nr = verify_nice(_full_sweep(rep), pair_mode="all")
        report.check("niceness", nr.ok, t0, details=nr.summary())
    elif args.kind == "hadamard":
        m = _parse(matrix_from_json, _read_json(args.path, report), "matrix file")
        t0 = time.perf_counter()
        hc = check_complex_hadamard(m)
        report.check("hadamard", hc.ok, t0, witness=hc.reason,
                     details={"rows": m.rows})
    elif args.kind == "latin":
        sq = _parse(latin_from_json, _read_json(args.path, report),
                    "latin square file")
        t0 = time.perf_counter()
        lc = validate_latin(sq)
        report.check("latin", lc.ok, t0, witness=lc.witness,
                     details={"d": sq.d})


# ---------------------------------------------------------------------------
# analyze


def _analyze_induce(args, report: RunReport) -> None:
    target = args.target
    power = 1
    if _looks_like_path(target):
        obj = _read_json(target, report)
        if not isinstance(obj, dict) or "group" not in obj:
            raise InputError('induce file needs {"group": "heisenberg:<d>"}')
        spec = str(obj["group"])
        power = _parse(lambda o: json_int(o.get("power", 1), "'power'"),
                       obj, "induce file")
    else:
        spec = target
    head, _, rest = spec.partition(":")
    if head != "heisenberg":
        raise InputError(f"unknown induce spec {spec!r} (heisenberg:<d>)")
    d = _heisenberg_modulus(rest, 7)
    H = HeisenbergGroup(d)
    center = SubgroupView(H, [HeisenbergElement(d, 0, 0, z) for z in range(d)])
    psi = class_function(center, lambda k: PhasedScalar.zeta(d, power * k.z))
    ind = induce_representation(character_rep(psi, label=f"zeta^{power}z"), H)

    t0 = time.perf_counter()
    report.check("block-structure", ind.block_structure_ok(), t0, details={
        "index": ind.index, "dim": ind.dim, "degree": ind.degree})
    t0 = time.perf_counter()
    chi_matrix = ind.character()
    chi_formula = induce_character(psi, H)
    match = all(chi_matrix.value(h) == chi_formula.value(h)
                for h in H.elements())
    report.check("character-match", match, t0,
                 details={"elements": H.order})
    t0 = time.perf_counter()
    try:
        worst = sparsity_check(ind)
        report.check("sparsity", True, t0, details={
            "min_zero_fraction": worst,
            "block_bound": 1 - Fraction(1, ind.index)})
    except ArithmeticError as e:
        report.check("sparsity", False, t0, witness=e)
    if args.out:
        members = [ind.matrix(h) for h in H.elements()]
        labels = [(h.x, h.y, h.z) for h in H.elements()]
        basis = UnitaryErrorBasis(ind.dim, tuple(members), tuple(labels))
        _write_json(args.out, basis_to_json(basis), report)


def cmd_analyze(args, report: RunReport) -> None:
    if args.kind == "induce":
        _analyze_induce(args, report)
        return
    basis = _load_basis(args.target, report)
    if args.kind in ("monomial", "sparsity") and not basis.members:
        raise InputError("basis file has no members")
    if args.kind == "monomial":
        t0 = time.perf_counter()
        mr = basis.monomiality()
        report.check("monomial", True, t0, details=vars(mr))
    elif args.kind == "sparsity":
        t0 = time.perf_counter()
        fractions = [m.zero_fraction() for m in basis.members]
        report.check("sparsity", True, t0, details={
            "min_zero_fraction": min(fractions),
            "max_zero_fraction": max(fractions),
            "per_member": [str(f) for f in fractions]})
    elif args.kind == "wickedness":
        if not (ub := _ueb_check(basis, report)).ok:
            return
        t0 = time.perf_counter()
        w = wickedness_witness(basis, ub)
        details = {"witness_found": w is not None}
        if w is not None:
            details.update(w.summary())
        report.check("wickedness", True, t0, details=details)
    elif args.kind == "cocycle":
        rep = _full_sweep(_pair_indexed_rep(basis, label="analyze:cocycle"))
        t0 = time.perf_counter()
        try:
            table = cocycle_table(rep)
        except CocycleError as e:
            report.check("cocycle", False, t0, witness=e)
            return
        # every pair closes, so the identity holds on every triple
        # (cocycle_table's docstring)
        details = {"pairs": len(table), "identity_holds": True}
        if rep.group.order ** 2 <= 256:
            details["table"] = [
                {"g": list(g), "h": list(h), "omega": str(v)}
                for (g, h), v in sorted(table.items())]
        report.check("cocycle", True, t0, details=details)


# ---------------------------------------------------------------------------
# entry point


def _u64(text: str) -> int:
    n = int(text)
    if not 0 <= n < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return n


def _jobs(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("jobs must be at least 1")
    return n


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_u64, default=DEFAULT_SEED,
                        help="seed for every sampled check (default %(default)s)")
    common.add_argument("--jobs", type=_jobs, default=1,
                        help="worker count for sweeps; results do not depend on it")
    common.add_argument("--format", choices=("json", "pretty"), default="json",
                        help="stdout layout (default %(default)s)")

    p = argparse.ArgumentParser(
        prog="uebkit",
        description="Construct, verify and analyze unitary error bases "
                    "in exact arithmetic.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", parents=[common],
                       help="build a basis or bundle and write it as JSON")
    c.add_argument("kind",
                   help="pauli:<d>, nice:pauli:<d>, nice:heisenberg:<d>, "
                        "sam <latin> <hadamard>, or counterexample165")
    c.add_argument("params", nargs="*",
                   help="extra parameters (sam only: latin and hadamard specs)")
    c.add_argument("--out", required=True, help="output file")
    c.add_argument("--factors-only", action="store_true",
                   help="counterexample165: omit the dense generator matrices")

    v = sub.add_parser("verify", parents=[common],
                       help="run a verifier against a file")
    v.add_argument("kind", choices=("ueb", "nice", "hadamard", "latin",
                                    "counterexample165"))
    v.add_argument("path", help="input file")

    a = sub.add_parser("analyze", parents=[common],
                       help="report structural properties")
    a.add_argument("kind", choices=("monomial", "sparsity", "wickedness",
                                    "cocycle", "induce"))
    a.add_argument("target", help="basis file or inline spec such as pauli:3, "
                                  "sam:cyclic:4,alpha, heisenberg:3")
    a.add_argument("--out", help="induce: write the induced matrices here")

    return p


_COMMANDS = {"construct": cmd_construct, "verify": cmd_verify,
             "analyze": cmd_analyze}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    echo = list(argv) if argv is not None else sys.argv[1:]
    report = RunReport(command=["uebkit"] + echo, seed=args.seed,
                       jobs=args.jobs)
    try:
        _COMMANDS[args.command](args, report)
    except InputError as e:
        _emit_input_error(str(e), args.format)
        return 2
    _emit(report, args.format)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
