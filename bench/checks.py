"""Output checks by a route apart from uebkit's exact arithmetic.

Exact values are read from their JSON encoding (scale times a sum of
rational multiples of zeta_n^k) and evaluated in numpy complex128; the
comparison matrices are built here from their definitions.  Tolerances
appear only in this module.  Every check returns a list of problems,
empty when the output is right.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

import numpy as np

TOL = 1e-9


# -- evaluation of the JSON encoding ------------------------------------------


def eval_scalar(obj: dict) -> complex:
    """Value of one encoded scalar without formal symbols."""
    n = int(obj["order"])
    total = 0j
    for t in obj["terms"] if "terms" in obj else [obj]:
        if t.get("symbols"):
            raise ValueError(f"formal symbols {t['symbols']} have no value")
        total += sum(float(Fraction(q)) * cmath.exp(2j * cmath.pi * int(k) / n)
                     for k, q in t["coeffs"].items())
    return total


def eval_matrix(obj: dict) -> np.ndarray:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    scale = float(Fraction(obj["scale"]))
    vals = [eval_scalar(e) for e in obj["entries"]]
    return scale * np.array(vals, dtype=complex).reshape(rows, cols)


# -- the definitions ------------------------------------------------------------


def omega(d: int) -> complex:
    return cmath.exp(2j * cmath.pi / d)


def shift(d: int) -> np.ndarray:
    """X|x> = |x-1 mod d>."""
    m = np.zeros((d, d), dtype=complex)
    for x in range(d):
        m[(x - 1) % d, x] = 1
    return m


def clock(d: int) -> np.ndarray:
    """Z = diag(omega^x)."""
    return np.diag([omega(d) ** x for x in range(d)])


def quadratic(d: int) -> np.ndarray:
    """D = diag(omega^(i(i-1)/2))."""
    return np.diag([omega(d) ** ((i * (i - 1) // 2) % d) for i in range(d)])


def fourier(d: int) -> np.ndarray:
    """F = (omega^(ij)), unnormalized."""
    return np.array([[omega(d) ** ((i * j) % d) for j in range(d)]
                     for i in range(d)])


def twist(p: int) -> np.ndarray:
    """R = (D Z^3 F)^2 / p."""
    w = quadratic(p) @ np.linalg.matrix_power(clock(p), 3) @ fourier(p)
    return w @ w / p


def weyl(d: int, x: int, y: int) -> np.ndarray:
    """Z^y X^x."""
    return np.linalg.matrix_power(clock(d), y) @ np.linalg.matrix_power(shift(d), x)


def pauli(d: int, i: int, j: int) -> np.ndarray:
    """X^i Z^j, the member (i, j) of uebkit's pauli_rep."""
    return np.linalg.matrix_power(shift(d), i) @ np.linalg.matrix_power(clock(d), j)


def close(a, b) -> bool:
    return bool(np.allclose(a, b, rtol=0, atol=TOL))


# -- g165 ----------------------------------------------------------------------


G165_ORDER = 27_225
G165_PAIRS = 2 * 6 * G165_ORDER + 10_000
G165_MONOMIAL = 5 ** 2 * 11 ** 2


def g165_pools(bundle: dict) -> tuple[dict, list]:
    """Evaluated factor pools keyed (p, key tuple), and the entries that
    differ from Z^y X^x R^k."""
    pools, problems = {}, []
    for p in (3, 5, 11):
        r = twist(p)
        for text, obj in bundle["factor_pools"][str(p)].items():
            key = tuple(int(v) for v in text.split(","))
            got = eval_matrix(obj)
            x, y = key[0], key[1]
            want = weyl(p, x, y)
            if len(key) == 3:
                want = want @ np.linalg.matrix_power(r, key[2])
            if not close(got, want):
                problems.append(f"pool {p} entry {text} differs from "
                                f"Z^{y} X^{x} R^k")
            pools[(p, key)] = got
    return pools, problems


def check_g165(bundle: dict, details: dict) -> list:
    """The exported pools against their definition, and the member counts
    the paper's claim rests on, recomputed from the pools.

    Member ((n5, n11), h) at central exponents zero is
    A3(h.x, h.y) (x) A5(n5.x, n5.y, h.x) (x) A11(n11.x, n11.y, h.y); a
    tensor product of nonzero factors has trace tr A3 tr A5 tr A11 and
    is monomial exactly when every factor is."""
    pools, problems = g165_pools(bundle)
    expect = {3: 9, 5: 75, 11: 363}
    for p, n in expect.items():
        have = sum(1 for q, _ in pools if q == p)
        if have != n:
            problems.append(f"pool {p} has {have} entries, want {n}")
    if problems:
        return problems

    t3 = np.array([[np.trace(pools[(3, (x, y))]) for y in range(3)]
                   for x in range(3)])

    def slot(p):
        tr = np.zeros((p, p, 3), dtype=complex)
        mono = np.zeros((p, p, 3), dtype=bool)
        for x in range(p):
            for y in range(p):
                for k in range(3):
                    m = pools[(p, (x, y, k))]
                    tr[x, y, k] = np.trace(m)
                    mono[x, y, k] = is_monomial(m)
        return tr, mono

    tr5, mono5 = slot(5)
    tr11, mono11 = slot(11)
    mono3 = np.array([[is_monomial(pools[(3, (x, y))]) for y in range(3)]
                      for x in range(3)])
    # axes: x3, y3, x5, y5, x11, y11; slot 5 keyed by x3, slot 11 by y3
    tr = (t3[:, :, None, None, None, None]
          * tr5.transpose(2, 0, 1)[:, None, :, :, None, None]
          * tr11.transpose(2, 0, 1)[None, :, None, None, :, :])
    nonzero = np.argwhere(np.abs(tr) > 1e-6)
    if len(nonzero) != 1 or nonzero[0].any():
        problems.append(f"{len(nonzero)} members with nonzero trace, want "
                        "only the identity")
    elif abs(tr[0, 0, 0, 0, 0, 0] - 165) > 1e-6:
        problems.append(f"identity trace {tr[0, 0, 0, 0, 0, 0]}, want 165")
    mono = (mono3[:, :, None, None, None, None]
            & mono5.transpose(2, 0, 1)[:, None, :, :, None, None]
            & mono11.transpose(2, 0, 1)[None, :, None, None, :, :])
    monomial = int(mono.sum())
    if monomial != G165_MONOMIAL:
        problems.append(f"{monomial} monomial members, want {G165_MONOMIAL}")

    if details.get("monomial_members") != monomial:
        problems.append("reported monomial count differs from the pools")
    if details.get("trace_zero_count") != G165_ORDER - len(nonzero):
        problems.append("reported trace-zero count differs from the pools")
    pairs = details.get("niceness", {}).get("pairs_checked")
    if pairs != G165_PAIRS:
        problems.append(f"pairs_checked {pairs}, want {G165_PAIRS}")
    return problems


def is_monomial(m: np.ndarray) -> bool:
    support = np.abs(m) > TOL
    return bool((support.sum(axis=0) == 1).all()
                and (support.sum(axis=1) == 1).all())


# -- pauli-nice ------------------------------------------------------------------


def check_pauli(d: int, members: dict, pairs_checked: int,
                cocycles: dict) -> list:
    """members maps (i, j) to an encoded matrix; cocycles maps sampled
    ((i, j), (k, l)) to the encoded scalar uebkit extracted for them."""
    problems = []
    if pairs_checked != d ** 4:
        problems.append(f"d={d}: pairs_checked {pairs_checked}, want {d ** 4}")
    if len(members) != d * d:
        problems.append(f"d={d}: {len(members)} members, want {d * d}")
    for (i, j), obj in sorted(members.items()):
        if not close(eval_matrix(obj), pauli(d, i, j)):
            problems.append(f"d={d}: member ({i}, {j}) is not X^{i} Z^{j}")
    for ((i, j), (k, l)), obj in sorted(cocycles.items()):
        prod = pauli(d, i, j) @ pauli(d, k, l)
        target = pauli(d, (i + k) % d, (j + l) % d)
        want = omega(d) ** ((-j * k) % d)
        if not close(prod, want * target):
            problems.append(f"d={d}: numpy cocycle at ({i},{j}),({k},{l}) "
                            "is not zeta^(-jk)")
        if abs(eval_scalar(obj) - want) > TOL:
            problems.append(f"d={d}: cocycle of ({i},{j}),({k},{l}) is not "
                            f"zeta_{d}^(-{j * k})")
    return problems


# -- cli-files ---------------------------------------------------------------------


def check_basis_file(obj: dict) -> list:
    """d^2 unitary members with Gram matrix d I."""
    d = int(obj["d"])
    mats = [eval_matrix(m) for m in obj["members"]]
    problems = []
    if len(mats) != d * d:
        problems.append(f"{len(mats)} members, want {d * d}")
    eye = np.eye(d)
    for n, m in enumerate(mats):
        if m.shape != (d, d) or not close(m @ m.conj().T, eye):
            problems.append(f"member {n} is not a {d} x {d} unitary")
            return problems
    stack = np.array(mats).reshape(len(mats), d * d)
    gram = stack.conj() @ stack.T
    if not close(gram, d * np.eye(len(mats))):
        problems.append(f"Gram matrix is not {d} I")
    return problems


def check_induced_file(obj: dict, index: int) -> list:
    """Every induced member unitary with exactly dim/index nonzeros per
    row, so its zero fraction is exactly 1 - 1/index."""
    d = int(obj["d"])
    problems = []
    for n, enc in enumerate(obj["members"]):
        m = eval_matrix(enc)
        nonzero = int((np.abs(m) > TOL).sum())
        if Fraction(d * d - nonzero, d * d) != 1 - Fraction(1, index):
            problems.append(f"member {n} has {nonzero} nonzero entries, "
                            f"want {d * d // index}")
        if not close(m @ m.conj().T, np.eye(d)):
            problems.append(f"member {n} is not unitary")
        if problems:
            break
    return problems


def sam_member(latin, had: np.ndarray, i: int, j: int) -> np.ndarray:
    """E_ij |k> = H[i, k] |L(j, k)>."""
    d = had.shape[0]
    m = np.zeros((d, d), dtype=complex)
    for k in range(d):
        m[latin(j, k), k] = had[i, k]
    return m


ALPHA_DIAGONAL = ("Scalar(1; Cyc(1; 1))", "Scalar(1; Cyc(1; -1))",
                  "Scalar(1; (Cyc(1; 1))*t^1)", "Scalar(1; (Cyc(1; -1))*t^1)")


def check_alpha_wickedness(details: dict) -> list:
    """The witness on sam:cyclic:4,alpha has diagonal (1, -1, t, -t):
    the reported values, and E F^dagger recomputed in numpy for the
    reported pair at a generic unit value of t."""
    problems = []
    if not details.get("witness_found"):
        return ["no wickedness witness reported for sam:cyclic:4,alpha"]
    if tuple(details.get("diagonal", ())) != ALPHA_DIAGONAL:
        problems.append(f"witness diagonal {details.get('diagonal')}, "
                        "want (1, -1, t, -t)")
    t = cmath.exp(0.7j)
    had = np.array([[1, 1, 1, 1], [1, 1, -1, -1],
                    [1, -1, t, -t], [1, -1, -t, t]])

    def latin(i, j):  # uebkit's cyclic square, L(i, j) = j - i mod d
        return (j - i) % 4

    (a, b) = (tuple(int(v) for v in lab.strip("()").split(","))
              for lab in details["pair"])
    prod = sam_member(latin, had, *a) @ sam_member(latin, had, *b).conj().T
    if not close(prod, np.diag([1, -1, t, -t])):
        problems.append(f"E{a} E{b}^dagger is not diag(1, -1, t, -t)")
    return problems
