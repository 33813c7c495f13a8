"""The premises of the 165 counterexample, re-derived from the
factors-only bundle file by a route that shares no code with uebkit.

The file is written once per session by the command line (the
counterexample_bundle fixture in conftest.py); this module reads it with
json, every number in it with fractions, and does its own arithmetic.
An element of Q(zeta_p), p prime, is held as p coefficients of 1, x, ...,
x^(p-1) modulo x^p - 1, so a product is a cyclic convolution and the
complex conjugate reverses the exponents mod p.  The kernel of
Q[x]/(x^p - 1) -> Q(zeta_p) is the ideal of Phi_p = 1 + x + ... +
x^(p-1), and its elements mod x^p - 1 are the constant vectors
(c, c, ..., c): an element is zero in Q(zeta_p) exactly when its p
coefficients are all equal.

For p = 5 and 11, with R = R_p of the file (its entries times its
rational scale), X|j> = |j-1> and Z|j> = zeta_p^j |j>:

1. R is unitary: R R^dagger = I.
2. R X R^dagger and R Z R^dagger are unit-modulus phases times Weyl
   matrices Z^b X^a.  Their (a, b) are the columns of gamma, which is the
   file's action, has order 3 mod p and fixes none of the p + 1 lines of
   F_p^2.
3. R^3 is a unit-modulus scalar, and it is the file's r_cubed.
4. Each of the 447 factor pool entries, named "x,y,k" (p = 5, 11) or
   "x,y" (the untwisted 3-slot), is W(x, y) R^k with W(x, y) = Z^y X^x.
5. The zero census of the 27,225 members W3(x3, y3) (x) W5(x5, y5) R5^x3
   (x) W11(x11, y11) R11^y3, up to the unit phases that multiply them:
   an entry of a tensor product is a product of one entry of each
   factor, zero exactly when one of them is, so a member's nonzero
   count is the product of its three pool entries' counts.
6. No element of order 3 fixes a line of F5^2 and a line of F11^2, in
   Q = (F5^2 x F11^2) : F3^2 composed by the law written here from the
   two actions A_p alone:
   (n5, n11, x3, y3) (m5, m11, u3, v3)
     = (n5 + A5^x3 m5, n11 + A11^y3 m11, x3 + u3, y3 + v3).
   Each t of order 3 conjugates P5 and P11 into themselves, with
   t^-1 = t t.  Of the 12,392 such t, the 242 with x3 = 0 fix a line of
   F5^2, the 50 with y3 = 0 fix a line of F11^2, and no other t fixes a
   line.  A subgroup of order 165 or 495 would need a t fixing both.
"""

import ast
import json
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest


def _mul(a, b):
    """The product in Q[x]/(x^p - 1): a cyclic convolution."""
    p = len(a)
    out = [0] * p
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                if v:
                    out[(i + j) % p] += u * v
    return out


def _conj(a):
    """zeta^k -> zeta^-k."""
    return [a[-k % len(a)] for k in range(len(a))]


def _zeta(p, k):
    out = [0] * p
    out[k % p] = 1
    return out


def _equal(a, b):
    """a == b in Q(zeta_p): a - b is a constant vector."""
    return len({u - v for u, v in zip(a, b)}) == 1


def _rational(p, q):
    return [q] + [0] * (p - 1)


def _is_zero(a):
    return len(set(a)) == 1


def _matmul(A, B):
    p = len(A[0][0])
    out = []
    for row in A:
        out_row = []
        for j in range(len(B[0])):
            acc = [0] * p
            for a, b_row in zip(row, B):
                if not _is_zero(a) and not _is_zero(b_row[j]):
                    acc = [u + v for u, v in zip(acc, _mul(a, b_row[j]))]
            out_row.append(acc)
        out.append(out_row)
    return out


def _dagger(A):
    return [[_conj(A[i][j]) for i in range(len(A))] for j in range(len(A[0]))]


def _entry(obj, p):
    """A JSON scalar of order 1 or p as p Fraction coefficients."""
    order = obj["order"]
    assert p % order == 0 and not obj["symbols"], obj
    out = [Fraction(0)] * p
    for k, v in obj["coeffs"].items():
        out[int(k) * (p // order) % p] += Fraction(v)
    return out


def _read_matrix(obj, p):
    """(s, M): the matrix is s M for a rational s and integer entries M."""
    assert obj["rows"] == obj["cols"] == p
    entries = [_entry(e, p) for e in obj["entries"]]
    den = 1
    for e in entries:
        for q in e:
            den = lcm(den, q.denominator)
    ints = [[int(q * den) for q in e] for e in entries]
    return (Fraction(obj["scale"]) / den,
            [ints[i * p:(i + 1) * p] for i in range(p)])


def _scalar(A, s):
    """c with s A = c I, as p Fraction coefficients, or None."""
    p = len(A)
    d = A[0][0]
    for i in range(p):
        for j in range(p):
            if not (_equal(A[i][j], d) if i == j else _is_zero(A[i][j])):
                return None
    return [s * u for u in d]


def _unit(c):
    return _equal(_mul(c, _conj(c)), _rational(len(c), 1))


def _weyl(A, s):
    """(a, b) with s A = c Z^b X^a for a unit-modulus c, or None.  Column k
    of Z^b X^a holds zeta^(b (k - a)) in row k - a and zeros elsewhere."""
    p = len(A)
    rows = [i for i in range(p) if not _is_zero(A[i][0])]
    if len(rows) != 1:
        return None
    a = -rows[0] % p
    for b in range(p):
        c = _mul(A[-a % p][0], _zeta(p, b * a))
        if all(_is_zero(A[i][k]) if i != (k - a) % p else
               _equal(A[i][k], _mul(c, _zeta(p, b * i)))
               for k in range(p) for i in range(p)):
            return (a, b) if _unit([s * u for u in c]) else None
    return None


def _residue(v):
    """v minus its last coefficient times the constant vector, a tuple
    that equal elements of Q(zeta_p) share."""
    return tuple(u - v[-1] for u in v)


def _pool_failures(p, pool, R):
    """The names of the p-slot pool entries that are not W(x, y) R^k, for
    R the file's R_p, or None in the 3-slot, where every k is 0.

    Row i of W(x, y) holds zeta^(y i) in column i + x, so row i of W R^k
    is zeta^(y i) times row i + x of R^k, and R^2 is the only product.
    Each row of R^k = s^k M^k (R = s M as _read_matrix reads it) is
    turned by each power of zeta once, and each distinct entry of a pool
    entry is read once.  Equal elements get one
    number, that of their residue, so rows compare as int tuples."""
    numbers = {}

    def number(v):
        return numbers.setdefault(_residue(v), len(numbers))

    powers = [[[_rational(p, int(i == j)) for j in range(p)]
               for i in range(p)]]
    if R is not None:
        s, M = _read_matrix(R, p)
        for c, A in ((s, M), (s * s, _matmul(M, M))):
            powers.append([[[c * u for u in e] for e in row] for row in A])
    # turned[k][t][r]: row t of R^k times zeta^r
    turned = [[[tuple(number(e[-r:] + e[:-r]) for e in row)
                for r in range(p)] for row in A] for A in powers]
    seen, failures = {}, []
    for name, obj in pool.items():
        x, y, *k = map(int, name.split(","))
        rows = turned[k[0] if k else 0]
        values = []
        for e in obj["entries"]:
            key = (obj["scale"], e["order"], tuple(e["coeffs"].items()),
                   tuple(e["symbols"].items()))
            if key not in seen:
                scale = Fraction(obj["scale"])
                seen[key] = number([scale * u for u in _entry(e, p)])
            values.append(seen[key])
        if not (obj["rows"] == obj["cols"] == p and len(values) == p * p
                and all(tuple(values[i * p:i * p + p]) ==
                        rows[(i + x) % p][y * i % p] for i in range(p))):
            failures.append(name)
    return failures


def _nonzero_counts(p, pool):
    """{name: number of nonzero entries} of each pool entry of the
    p-slot, each entry read from its coeffs, and each distinct one once."""
    zero = {}
    counts = {}
    for name, obj in pool.items():
        count = 0
        for e in obj["entries"]:
            key = (e["order"], tuple(e["coeffs"].items()))
            if key not in zero:
                zero[key] = _is_zero(_entry(e, p))
            count += not zero[key]
        counts[name] = count
    return counts


def _census(pools):
    """{nonzero entries: members} over the members of premise 5."""
    n3, n5, n11 = (_nonzero_counts(p, pools[str(p)]) for p in (3, 5, 11))
    # slot[k]: the counts of W(x, y) R^k over every (x, y)
    slot5, slot11 = ([[n[f"{x},{y},{k}"] for x in range(p) for y in range(p)]
                      for k in range(3)] for p, n in ((5, n5), (11, n11)))
    census = {}
    for x3 in range(3):
        for y3 in range(3):
            for a in slot5[x3]:
                for b in slot11[y3]:
                    c = n3[f"{x3},{y3}"] * a * b
                    census[c] = census.get(c, 0) + 1
    return census


def _premise_failures(conj):
    """The premises 1-3 that the conjugator object of one prime fails."""
    p = conj["p"]
    s, M = _read_matrix(conj["R"], p)
    Mt = _dagger(M)
    failures = []
    unit = _scalar(_matmul(M, Mt), s * s)
    if unit is None or not _equal(unit, _rational(p, 1)):
        failures.append("R R^dagger != I")
    shift = [[_rational(p, int(i == (j - 1) % p)) for j in range(p)]
             for i in range(p)]
    clock = [[_zeta(p, i) if i == j else _rational(p, 0) for j in range(p)]
             for i in range(p)]
    images = [_weyl(_matmul(_matmul(M, g), Mt), s * s) for g in (shift, clock)]
    if None in images:
        failures.append("R W R^dagger is not a phased Weyl matrix")
    else:
        (a1, b1), (a2, b2) = images
        gamma = [[a1, a2], [b1, b2]]
        if gamma != conj["action"]:
            failures.append("gamma != action")
        power = _powers(gamma, p)[2]
        if gamma == ONE or _mul2(power, gamma, p) != ONE:
            failures.append("gamma does not have order 3")
        failures += [f"gamma fixes the line of {line}"
                     for line in _fixed_lines(gamma, p)]
    cube = _scalar(_matmul(_matmul(M, M), M), s ** 3)
    if cube is None or not _unit(cube):
        failures.append("R^3 is not a unit-modulus scalar")
    elif not _equal(cube, _entry(conj["r_cubed"], p)):
        failures.append("R^3 != r_cubed")
    return failures


ONE = [[1, 0], [0, 1]]


def _mul2(A, B, p):
    """A B for 2 x 2 matrices over F_p."""
    return [[sum(A[i][k] * B[k][j] for k in range(2)) % p for j in range(2)]
            for i in range(2)]


def _powers(A, p):
    """[I, A, A^2] over F_p."""
    out = [ONE]
    for _ in range(2):
        out.append(_mul2(out[-1], A, p))
    return out


def _fixed_lines(A, p):
    """The lines of F_p^2 that A maps to themselves.  A fixes the line of
    (u, v) when (u, v) and its image (x, y) are dependent: u y - v x = 0
    mod p."""
    out = []
    for u, v in [(1, t) for t in range(p)] + [(0, 1)]:
        x = A[0][0] * u + A[0][1] * v
        y = A[1][0] * u + A[1][1] * v
        if (u * y - v * x) % p == 0:
            out.append((u, v))
    return out


def _order3_elements(actions):
    """[(t, fixes a line of F5^2, fixes a line of F11^2)] over the t of
    order 3 in Q, composed by premise 6's law from actions {p: A_p}.  An
    element is (n5, n11, x3, y3), each n_p a vector over F_p."""
    powers = {p: _powers(A, p) for p, A in actions.items()}

    def step(p, n, k, m):  # n + A_p^k m
        A = powers[p][k]
        return tuple((n[i] + A[i][0] * m[0] + A[i][1] * m[1]) % p
                     for i in range(2))

    def compose(s, t):
        (n5, n11, x3, y3), (m5, m11, u3, v3) = s, t
        return (step(5, n5, x3, m5), step(11, n11, y3, m11),
                (x3 + u3) % 3, (y3 + v3) % 3)

    e = ((0, 0), (0, 0), 0, 0)
    units = {5: [((1, 0), (0, 0), 0, 0), ((0, 1), (0, 0), 0, 0)],
             11: [((0, 0), (1, 0), 0, 0), ((0, 0), (0, 1), 0, 0)]}
    vectors = {p: [(a, b) for a in range(p) for b in range(p)] for p in units}
    found = []
    for x3 in range(3):
        for y3 in range(3):
            for n5 in vectors[5]:
                for n11 in vectors[11]:
                    t = (n5, n11, x3, y3)
                    tt = compose(t, t)
                    if t == e or compose(tt, t) != e:
                        continue
                    fixes = []
                    for slot, p in ((0, 5), (1, 11)):
                        # t g t^-1 for the two unit vectors g of P_p: the
                        # columns of the action, and still in P_p
                        images = [compose(compose(t, g), tt) for g in units[p]]
                        assert all(c[1 - slot] == (0, 0) and c[2:] == (0, 0)
                                   for c in images)
                        (a, c), (b, d) = (g[slot] for g in images)
                        fixes.append(bool(_fixed_lines([[a, b], [c, d]], p)))
                    found.append((t, *fixes))
    return found


@pytest.fixture(scope="module")
def bundle(counterexample_bundle):
    with open(counterexample_bundle) as f:
        return json.load(f)


@pytest.mark.parametrize(("p", "action"), [(5, [[4, 4], [1, 0]]),
                                           (11, [[10, 10], [1, 0]])])
def test_bundle_premises_hold(bundle, p, action):
    conj = bundle["conjugators"][str(p)]
    assert conj["p"] == p and conj["action"] == action
    assert _premise_failures(conj) == []


@pytest.mark.parametrize(("p", "twists"), [(3, 1), (5, 3), (11, 3)])
def test_pool_entries_are_weyl_times_twist(bundle, p, twists):
    pool = bundle["factor_pools"][str(p)]
    names = {f"{x},{y}" + (f",{k}" if twists > 1 else "")
             for x in range(p) for y in range(p) for k in range(twists)}
    assert len(pool) == len(names) == {3: 9, 5: 75, 11: 363}[p]
    assert set(pool) == names
    R = bundle["conjugators"][str(p)]["R"] if p != 3 else None
    assert _pool_failures(p, pool, R) == []


def test_a_changed_pool_entry_fails(bundle):
    pool = dict(bundle["factor_pools"]["11"])
    pool["4,5,2"] = json.loads(json.dumps(pool["4,5,2"]))
    coeffs = pool["4,5,2"]["entries"][7]["coeffs"]
    coeffs["0"] = str(Fraction(coeffs.get("0", "0")) + 1)
    R = bundle["conjugators"]["11"]["R"]
    assert _pool_failures(11, pool, R) == ["4,5,2"]


# item 3's census: 1 of the 9 (x3, y3) is (0, 0), both slots monomial,
# 2 have only x3 = 0 and 2 only y3 = 0, and 4 twist both slots
CENSUS = {165: 3_025, 1_815: 6_050, 825: 6_050, 9_075: 12_100}


def test_zero_census_of_the_members(bundle):
    assert _census(bundle["factor_pools"]) == CENSUS
    assert sum(CENSUS.values()) == 27_225


def test_an_extra_nonzero_entry_changes_the_census(bundle):
    pools = dict(bundle["factor_pools"])
    pools["5"] = dict(pools["5"])
    entry = json.loads(json.dumps(pools["5"]["2,3,0"]))
    idx = next(i for i, e in enumerate(entry["entries"])
               if _is_zero(_entry(e, 5)))
    entry["entries"][idx] = {"order": 1, "coeffs": {"0": "1"}, "symbols": {}}
    pools["5"]["2,3,0"] = entry
    census = _census(pools)
    # the 3 * 121 members of that entry move from 5 to 6 in the 5-slot
    assert census != CENSUS and sum(census.values()) == 27_225
    assert census[6 * 3 * 11] == 121 and census[165] == 3_025 - 121


def test_a_changed_entry_of_r_fails(bundle):
    conj = json.loads(json.dumps(bundle["conjugators"]["5"]))
    coeffs = conj["R"]["entries"][7]["coeffs"]
    coeffs["0"] = str(Fraction(coeffs.get("0", "0")) + 1)
    assert "R R^dagger != I" in _premise_failures(conj)


def test_a_changed_action_fails(bundle):
    conj = json.loads(json.dumps(bundle["conjugators"]["11"]))
    conj["action"][1][0] += 1
    assert _premise_failures(conj) == ["gamma != action"]


def _actions(bundle):
    return {p: bundle["conjugators"][str(p)]["action"] for p in (5, 11)}


def test_no_element_of_order_3_fixes_two_lines(bundle):
    found = _order3_elements(_actions(bundle))
    assert len(found) == 12_392
    fix5 = [t for t, f5, _ in found if f5]
    fix11 = [t for t, _, f11 in found if f11]
    assert len(fix5) == 242 and fix5 == [t for t, *_ in found if t[2] == 0]
    assert len(fix11) == 50 and fix11 == [t for t, *_ in found if t[3] == 0]
    assert not set(fix5) & set(fix11)


def test_an_identity_action_changes_the_order_3_counts(bundle):
    actions = {**_actions(bundle), 5: ONE}
    found = _order3_elements(actions)
    counts = (len(found), sum(f5 for _, f5, _ in found),
              sum(f11 for *_, f11 in found),
              sum(f5 and f11 for _, f5, f11 in found))
    assert counts != (12_392, 242, 50, 0)


def test_premises_share_no_code_with_uebkit():
    # uebkit only writes the file, in conftest.py; this module reads it
    tree = ast.parse(Path(__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or ""))
    assert names == {"ast", "json", "fractions", "math", "pathlib", "pytest"}
