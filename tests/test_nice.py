import random
from fractions import Fraction
from operator import itemgetter

import pytest

from uebkit.cyclo import Cyclotomic, PhasedScalar, roots_of_unity
from uebkit.exactmat import ExactMatrix, matrix_to_json
from uebkit.combinat import cyclic_latin, fourier_hadamard, h_alpha
from uebkit.groups import CyclicGroup, DirectProduct, HeisenbergElement
from uebkit import nice
from uebkit.nice import (
    CocycleError,
    ProjectiveRep,
    clock_matrix,
    cocycle_table,
    extract_cocycle,
    heisenberg_rep,
    pauli_rep,
    quadratic_diag,
    shift_matrix,
    verify_nice,
    weyl_matrix,
)


def test_shift_clock_commutation():
    # X Z = zeta Z X, the clock/shift relation everything else rests on
    for d in (2, 3, 5):
        x, z = shift_matrix(d), clock_matrix(d)
        zeta = PhasedScalar.zeta(d)
        assert x @ z == (z @ x).scalar_mul(zeta)


def test_fourier_conjugation_identities():
    # F^dagger X F = d Z and F^dagger Z F = d X^(-1), exactly
    from uebkit.combinat import fourier_hadamard
    for d in (2, 3, 5, 11):
        f = fourier_hadamard(d)
        x, z = shift_matrix(d), clock_matrix(d)
        assert f.dagger() @ x @ f == z.scalar_mul(d)
        assert f.dagger() @ z @ f == (x ** (d - 1)).scalar_mul(d)


def test_quadratic_diag_conjugation():
    # D^dagger X D = Z X and D^dagger Z D = Z
    for d in (3, 5, 11):
        dm = quadratic_diag(d)
        x, z = shift_matrix(d), clock_matrix(d)
        assert dm.dagger() @ x @ dm == z @ x
        assert dm.dagger() @ z @ dm == z


def test_pauli_rep_d2_members():
    rep = pauli_rep(2)
    assert rep.matrix((0, 0)) == ExactMatrix.identity(2)
    assert rep.matrix((1, 0)) == ExactMatrix.from_rows([[0, 1], [1, 0]])
    assert rep.matrix((0, 1)) == ExactMatrix.from_rows([[1, 0], [0, -1]])
    assert rep.matrix((1, 1)) == ExactMatrix.from_rows([[0, -1], [1, 0]])


def test_heisenberg_rep_is_genuine():
    rep = heisenberg_rep(3)
    G = rep.group
    elems = list(G.elements())
    for g in elems:
        for h in elems:
            assert rep.matrix(g) @ rep.matrix(h) == rep.matrix(G.compose(g, h))
    center_gen = HeisenbergElement(3, 0, 0, 1)
    assert rep.matrix(center_gen) == \
        ExactMatrix.identity(3).scalar_mul(PhasedScalar.zeta(3))


def _power_tables(d):
    """X^k and Z^k by repeated products, the reference for weyl_matrix."""
    x = ExactMatrix.from_permutation([(k - 1) % d for k in range(d)])
    z = ExactMatrix.diagonal([Cyclotomic.zeta(d, k) if d > 1
                              else Cyclotomic.one(1) for k in range(d)])
    xp, zp = [ExactMatrix.identity(d)], [ExactMatrix.identity(d)]
    for _ in range(d - 1):
        xp.append(xp[-1] @ x)
        zp.append(zp[-1] @ z)
    return xp, zp


def _same_bytes(a, b):
    # equal values, and equal entry orders, so files are byte-identical
    return a == b and matrix_to_json(a) == matrix_to_json(b)


@pytest.mark.parametrize("d", range(1, 8))
def test_weyl_members_equal_power_table_products(d):
    xp, zp = _power_tables(d)
    assert _same_bytes(shift_matrix(d), xp[1 % d])
    assert _same_bytes(clock_matrix(d), zp[1 % d])
    pauli = pauli_rep(d)
    heis = heisenberg_rep(d) if d > 1 else None  # H_1 is refused
    zeta = PhasedScalar.zeta(d) if d > 1 else PhasedScalar.one(1)
    for x in range(d):
        for y in range(d):
            assert _same_bytes(pauli.matrix((x, y)), xp[x] @ zp[y])
            for z in range(d):
                want = zp[y] @ xp[x]
                want = want.scalar_mul(zeta ** z) if z else want
                assert _same_bytes(weyl_matrix(d, x, y, z), want)
                assert heis is None or _same_bytes(
                    heis.matrix(HeisenbergElement(d, x, y, z)), want)


def test_pauli_cocycle_value():
    # derived by direct matrix products: omega((i,j),(k,l)) = zeta_d^(-jk)
    for d in (3, 4):
        rep = pauli_rep(d)
        zeta = PhasedScalar.zeta(d)
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    for l in range(d):
                        w = extract_cocycle(rep, (i, j), (k, l))
                        assert w == zeta ** ((-j * k) % d)


def test_cocycle_identity():
    # cocycle_table proves the identity from its pairs and nonzero
    # members; the independent route multiplies it out on every triple
    for d in (2, 3, 4):
        rep = pauli_rep(d)
        w = cocycle_table(rep)
        elems = list(rep.group.elements())
        comp = rep.group.compose
        assert len(w) == len(elems) ** 2
        for g in elems:
            for h in elems:
                gh = comp(g, h)
                for k in elems:
                    assert w[g, h] * w[gh, k] == w[h, k] * w[g, comp(h, k)]


def test_cocycle_table_refuses_a_zero_member():
    # with every member zero, every pair closes (0 = 1 * 0), and only the
    # nonzero premise of the proof refuses the table
    p2 = pauli_rep(2)
    zero = ExactMatrix.zeros(2, 2)
    for rep in (_replace(p2, (1, 1), zero),
                ProjectiveRep(p2.group, 2, lambda g: zero)):
        with pytest.raises(CocycleError, match="zero matrix"):
            cocycle_table(rep)


def test_verify_nice_small():
    for d in (2, 3, 4, 5):
        rep = pauli_rep(d)
        report = verify_nice(rep, pair_mode="all")
        assert report.ok
        assert report.pairs_checked == d ** 4
        assert report.elements_checked == d ** 2


def test_verify_nice_catches_corruption():
    d = 3
    rep = pauli_rep(d)
    table = {g: rep.matrix(g) for g in rep.group.elements()}
    bad = table[(1, 0)]
    ents = list(bad.entries)
    idx = next(i for i, e in enumerate(ents) if e.terms)
    ents[idx] = ents[idx] * PhasedScalar.zeta(3)
    table[(1, 0)] = ExactMatrix(bad.rows, bad.cols, ents, bad.scale)
    broken = ProjectiveRep(rep.group, d, table.__getitem__, label="broken")
    report = verify_nice(broken, pair_mode="all")
    assert not report.ok
    assert not report.cocycle_ok
    # identity and unitarity still fine for a phase-only corruption
    assert report.identity_ok and report.unitary_ok


def test_verify_nice_sampled_mode():
    rep = pauli_rep(5)
    report = verify_nice(rep, pair_mode="sampled", seed=7, sample_size=500)
    assert report.ok
    assert report.pair_mode == "sampled"
    # generator pairs in both orders plus the random draws
    assert report.pairs_checked == 2 * len(rep.group.generators) * 25 + 500


def test_extract_cocycle_error():
    rep = pauli_rep(2)
    table = {g: rep.matrix(g) for g in rep.group.elements()}
    table[(1, 1)] = ExactMatrix.from_rows([[0, 1], [1, 1]])
    broken = ProjectiveRep(rep.group, 2, table.__getitem__)
    with pytest.raises(CocycleError):
        extract_cocycle(broken, (1, 0), (0, 1))


# -- the phase route of the pair sweep ---------------------------------------


def _replace(rep, g, member):
    table = {k: rep.matrix(k) for k in rep.group.elements()}
    table[g] = member
    return ProjectiveRep(rep.group, rep.dim, table.__getitem__, label="mutant")


def _swap_columns(m, a, b):
    ents = list(m.entries)
    for i in range(m.rows):
        ents[i * m.cols + a], ents[i * m.cols + b] = \
            ents[i * m.cols + b], ents[i * m.cols + a]
    return ExactMatrix(m.rows, m.cols, ents, m.scale)


def _set_first_nonzero(m, f):
    ents = list(m.entries)
    idx = next(i for i, e in enumerate(ents) if e.terms)
    ents[idx] = f(ents[idx])
    return ExactMatrix(m.rows, m.cols, ents, m.scale)


def _sam_rep(latin, hadamard):
    from uebkit.ueb import shift_and_multiply
    basis = shift_and_multiply(latin, hadamard)
    d = basis.d
    table = dict(zip(basis.labels, basis.members))
    return ProjectiveRep(DirectProduct(CyclicGroup(d), CyclicGroup(d)), d,
                         table.__getitem__, label="sam")


def _route_cases():
    """(name, rep, route verify_nice should report)."""
    cases = [(f"pauli:{d}", pauli_rep(d), "phase") for d in range(1, 7)]
    cases.append(("heisenberg:3", heisenberg_rep(3), "phase"))
    cases.append(("sam:cyclic:5,fourier:5",
                  _sam_rep(cyclic_latin(5), fourier_hadamard(5)), "phase"))
    p3, p5 = pauli_rep(3), pauli_rep(5)
    x, z = p3.matrix((1, 0)), p3.matrix((1, 1))
    cases += [
        # bad pairs stay on the phase route, each re-checked densely
        ("swapped columns", _replace(p3, (1, 0), _swap_columns(x, 0, 1)),
         "phase"),
        ("entry times zeta", _replace(p3, (1, 0), _set_first_nonzero(
            x, lambda e: e * PhasedScalar.zeta(3))), "phase"),
        ("scale 2", _replace(p3, (1, 1), z.scalar_mul(2)), "phase"),
        # a sign is a unit phase: still nice, still the phase route
        ("scale -1", _replace(p3, (1, 1), z.scalar_mul(-1)), "phase"),
        # not a root of unity, or a formal symbol: not eligible
        ("entry 1+zeta_5", _replace(p5, (1, 0), _set_first_nonzero(
            p5.matrix((1, 0)),
            lambda e: PhasedScalar.of(Cyclotomic.one(5) + Cyclotomic.zeta(5)))),
         "matrix"),
        ("sam:cyclic:4,alpha", _sam_rep(cyclic_latin(4), h_alpha()), "matrix"),
    ]
    return cases


# -- cocycle_exhaustive -------------------------------------------------------


def test_cocycle_exhaustive_agrees_with_the_full_sweep():
    for rep in [pauli_rep(d) for d in range(2, 7)] + [heisenberg_rep(3)]:
        full = verify_nice(rep, pair_mode="all")
        sampled = verify_nice(rep, pair_mode="sampled", seed=5, sample_size=0)
        assert full.cocycle_ok and full.cocycle_exhaustive, rep.label
        assert sampled.cocycle_exhaustive, rep.label
        assert sampled.summary()["cocycle_exhaustive"] is True
    # mutated members: the generator pairs alone decide as the full sweep
    for name, rep, _ in _route_cases():
        full = verify_nice(rep, pair_mode="all")
        sampled = verify_nice(rep, pair_mode="sampled", seed=5, sample_size=0)
        assert full.cocycle_exhaustive == full.cocycle_ok, name
        if sampled.identity_ok:
            assert sampled.cocycle_exhaustive == full.cocycle_ok, name


def test_broken_generator_pair_clears_both_flags():
    p3 = pauli_rep(3)
    mutant = _replace(p3, (1, 0), _swap_columns(p3.matrix((1, 0)), 0, 1))
    for mode in ("all", "sampled"):
        r = verify_nice(mutant, pair_mode=mode, seed=5, sample_size=0)
        assert not r.cocycle_ok and not r.cocycle_exhaustive, mode
        assert ("cocycle", (0, 1), (1, 0)) in r.failures


def test_cocycle_exhaustive_needs_generating_generators():
    # Z_4 x Z_4 declaring only (1, 0): scaling the coset of (0, 1) by 2
    # keeps every sampled pair a unit multiple, but not (0, 1) (0, 1)
    d = 4
    rep = pauli_rep(d)
    G = DirectProduct(CyclicGroup(d), CyclicGroup(d))
    G.generators = ((1, 0),)
    table = {g: rep.matrix(g).scalar_mul(2) if g[1] == 1 else rep.matrix(g)
             for g in G.elements()}
    scaled = ProjectiveRep(G, d, table.__getitem__)
    sampled = verify_nice(scaled, pair_mode="sampled", seed=1, sample_size=0)
    assert sampled.identity_ok and sampled.cocycle_ok
    assert not sampled.cocycle_exhaustive
    assert not verify_nice(scaled, pair_mode="all").cocycle_ok
    # the same members over the declared Pauli generators
    declared = ProjectiveRep(rep.group, d, table.__getitem__)
    r = verify_nice(declared, pair_mode="sampled", seed=1, sample_size=0)
    assert not r.cocycle_ok and not r.cocycle_exhaustive


def _matrix_route(monkeypatch):
    monkeypatch.setattr(nice, "_phase_form", lambda rep, elems: None)


def test_phase_and_matrix_routes_give_the_same_report(monkeypatch):
    cases = _route_cases()
    fast = {}
    for name, rep, route in cases:
        report = verify_nice(rep, pair_mode="all")
        assert report.pair_route == route, name
        fast[name] = report.summary()
    _matrix_route(monkeypatch)
    for name, rep, _ in cases:
        slow = verify_nice(rep, pair_mode="all").summary()
        assert slow.pop("pair_route") == "matrix"
        fast[name].pop("pair_route")
        assert fast[name] == slow, name


def _agrees_pair_by_pair(name, rep, pairs):
    """Each pair on its own through both routes: the same value, or a
    CocycleError on both.  (pairs compared, pairs rejected)."""
    phase = nice._phase_form(rep, list(rep.group.elements()))
    if phase is None:
        return 0, 0
    rejected = 0
    for g, h in pairs:
        try:
            want = extract_cocycle(rep, g, h)
        except CocycleError:
            want = None
        try:
            got = extract_cocycle(rep, g, h, phase)
        except CocycleError:
            got = None
        assert (got is None) == (want is None), (name, g, h)
        assert got is None or got == want, (name, g, h)
        rejected += got is None
    return len(pairs), rejected


def test_phase_route_agrees_with_dense_products_pair_by_pair():
    # each pair on its own, so a check the phase route dropped shows even
    # where another pair of the same rep would still fail
    checked = rejected = 0
    for name, rep, _ in _route_cases():
        elems = list(rep.group.elements())
        c, r = _agrees_pair_by_pair(
            name, rep, [(g, h) for g in elems for h in elems])
        checked, rejected = checked + c, rejected + r
    assert checked > 2000 and rejected > 0


def test_phase_route_agrees_pair_by_pair_past_the_small_ints():
    # d N = 13 * 26 = 338 states: codes above 256 are not cached ints
    rep = pauli_rep(13)
    bad = _replace(rep, (1, 0), _swap_columns(rep.matrix((1, 0)), 3, 9))
    rng = random.Random(13)
    elems = list(rep.group.elements())
    pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(300)]
    assert _agrees_pair_by_pair("pauli:13", rep, pairs) == (300, 0)
    bad_pairs = pairs[:40] + [((1, 0), h) for h in elems[1:21]]
    checked, rejected = _agrees_pair_by_pair("swapped columns", bad,
                                             bad_pairs)
    assert checked == 60 and rejected >= 20


def test_phase_form_eligibility():
    rep = pauli_rep(4)
    elems = list(rep.group.elements())
    forms, shifted, zetas = nice._phase_form(rep, elems)
    assert len(zetas) == 4 and zetas[1] == PhasedScalar.zeta(4)
    assert zetas is roots_of_unity(4)[0]  # cyclo's table, not a copy
    # Z = diag(1, i, -1, -i): identity permutation, exponents 0..3, so
    # state (j, x), coded 4 j + x, goes to (j, x + j mod 4)
    table, gather, p, q = forms[(0, 1)]
    assert table == tuple(4 * j + (x + j) % 4
                          for j in range(4) for x in range(4))
    assert (p, q) == (1, 1)
    assert gather(range(16)) == (0, 5, 10, 15)  # the columns Z|k>
    assert shifted[1](range(16)) == (1, 5, 9, 13)  # the states i|k>
    # odd conductor: -1 needs N = 2 * 3
    p3 = pauli_rep(3)
    assert len(nice._phase_form(p3, list(p3.group.elements()))[2]) == 6
    dense = _replace(rep, (1, 1), fourier_hadamard(4))
    assert nice._phase_form(dense, elems) is None


def test_phase_form_tables_share_one_list_of_ints():
    rep = pauli_rep(13)
    forms, _, _ = nice._phase_form(rep, list(rep.group.elements()))
    codes = [x for table, _, _, _ in forms.values() for x in table]
    assert len(codes) == 13 ** 2 * 13 * 26
    assert len({id(x) for x in codes}) == len(set(codes)) == 13 * 26
    # d = 1: itemgetter gives the one code, on both sides of the check
    one, shifted, _ = nice._phase_form(pauli_rep(1), [(0, 0)])
    table, gather, _, _ = one[(0, 0)]
    assert table == (0, 1) and gather(table) == 0 == shifted[0](table)


def test_phase_form_reads_unitarity_as_the_dense_check():
    seen = set()
    for name, rep, _ in _route_cases():
        phase = nice._phase_form(rep, list(rep.group.elements()))
        if phase is None:
            continue
        for g, (_, _, p, q) in phase[0].items():
            unitary = rep.matrix(g).is_scaled_unitary() == 1
            assert ((p, q) == (1, 1)) == unitary, (name, g)
            seen.add((name, unitary))
    # the mutants reach both answers, and a sign keeps unitarity
    assert ("scale 2", False) in seen and ("scale -1", False) not in seen


def test_failures_match_the_matrix_route(monkeypatch):
    # more than 32 bad pairs: the sweep stops at the same pair either way
    rep = pauli_rep(4)
    bad = _replace(rep, (1, 0), _swap_columns(rep.matrix((1, 0)), 0, 2))
    fast = verify_nice(bad, pair_mode="all")
    _matrix_route(monkeypatch)
    slow = verify_nice(bad, pair_mode="all")
    assert fast.pair_route == "phase" and slow.pair_route == "matrix"
    assert len(fast.failures) == 33 and fast.pairs_checked < 4 ** 4
    assert fast.failures == slow.failures
    assert fast.pairs_checked == slow.pairs_checked


def test_cocycle_table_routes_agree(monkeypatch):
    reps = [pauli_rep(d) for d in range(2, 6)] + [heisenberg_rep(3)]
    for rep in reps:
        assert nice._phase_form(rep, list(rep.group.elements())) is not None
    fast = [cocycle_table(rep) for rep in reps]
    _matrix_route(monkeypatch)
    for rep, values in zip(reps, fast):
        slow = cocycle_table(rep)
        assert values.keys() == slow.keys()
        for pair, c in slow.items():
            assert values[pair] == c, (rep.label, pair)


def test_cocycle_table_bad_pair_raises(monkeypatch):
    # the phase route raises at the same first bad pair as dense products
    p3 = pauli_rep(3)
    bad = _replace(p3, (1, 0), _swap_columns(p3.matrix((1, 0)), 0, 1))
    assert nice._phase_form(bad, list(bad.group.elements())) is not None
    with pytest.raises(CocycleError) as fast:
        cocycle_table(bad)
    _matrix_route(monkeypatch)
    with pytest.raises(CocycleError) as slow:
        cocycle_table(bad)
    assert str(fast.value) == str(slow.value)


def test_sampled_pairs_replay_identically():
    rep = pauli_rep(3)
    G = rep.group
    elems = list(G.elements())
    first = _streamed(G, elems, "sampled", 5, 40)
    assert first == _streamed(G, elems, "sampled", 5, 40)
    assert len(first) == 2 * len(G.generators) * 9 + 40
    rng = random.Random(5)
    tail = [(rng.choice(elems), rng.choice(elems)) for _ in range(40)]
    assert first[-40:] == tail


def _streamed(G, elems, pair_mode, seed, sample_size):
    """_pair_source's stream as one list: each generator column (s, right)
    expanded, (h, s) if right else (s, h) for h in elems, then the rest,
    which is an iterator, drawn as it goes."""
    columns, rest = nice._pair_source(G, elems, pair_mode, seed, sample_size)
    assert iter(rest) is rest
    return ([(h, s) if right else (s, h) for s, right in columns for h in elems]
            + list(rest))


def _listed_pairs(G, elems, seed, sample_size):
    # the sampled pairs as one list, generators first, then seeded draws
    rng = random.Random(seed)
    pairs = [(g, h) for g in G.generators for h in elems]
    pairs += [(h, g) for g in G.generators for h in elems]
    pairs += [(rng.choice(elems), rng.choice(elems))
              for _ in range(sample_size)]
    return pairs


def test_pair_source_streams_the_listed_pairs():
    rep = pauli_rep(3)
    G, elems = rep.group, list(rep.group.elements())
    assert _streamed(G, elems, "sampled", 5, 40) == \
        _listed_pairs(G, elems, 5, 40)
    assert nice._pair_source(G, elems, "all", None, 0)[0] == []
    assert _streamed(G, elems, "all", None, 0) == \
        [(g, h) for g in elems for h in elems]


def test_oversized_full_sweep_is_refused_before_any_member_is_read():
    # 23^4 pairs exceed MAX_FULL_PAIRS
    def rho(g):
        raise AssertionError(f"member {g} was read")

    rep = ProjectiveRep(DirectProduct(CyclicGroup(23), CyclicGroup(23)), 23,
                        rho)
    assert rep.group.order ** 2 > nice.MAX_FULL_PAIRS
    with pytest.raises(ValueError, match="too many to sweep"):
        verify_nice(rep, pair_mode="all")


def test_pair_source_streams_the_listed_165_pairs(built):
    G = built.rep.group
    elems = list(G.elements())
    assert _streamed(G, elems, "sampled", 1650, 10_000) == \
        _listed_pairs(G, elems, 1650, 10_000)


def test_phase_rejection_of_a_good_pair_raises(monkeypatch):
    # rho((1, 0))'s exponent at column 0 raised by one, so pairs through
    # (1, 0) look bad to the phase route but are not
    rep = pauli_rep(3)
    forms, shifted, zetas = nice._phase_form(rep, list(rep.group.elements()))
    table, _, p, q = forms[(1, 0)]
    n = len(zetas)
    # state (0, x) goes where (0, x + 1) went
    table = table[1:n] + table[:1] + table[n:]
    forged = dict(forms)
    forged[(1, 0)] = (table, itemgetter(*table[::n]), p, q)
    phase = forged, shifted, zetas
    with pytest.raises(ArithmeticError, match="dense product accepts"):
        extract_cocycle(rep, (1, 0), (0, 1), phase)
    monkeypatch.setattr(nice, "_phase_form", lambda rep, elems: phase)
    with pytest.raises(ArithmeticError, match=r"rho\(\(1, 0\)\)"):
        verify_nice(rep, pair_mode="all")
    with pytest.raises(ArithmeticError):
        cocycle_table(rep)
