import dataclasses
import functools
import importlib.util
import itertools
import random
from pathlib import Path

import numpy as np
import pytest

from permsym import _kernels, analysis, cli, endo
from permsym._kernels import rank_mod_p, rref_mod_p
from permsym.analysis import configuration, run_analysis
from permsym.catalog import CatalogInstance, build_instance
from permsym.coherent import (
    adjacency_product_check,
    intersection_tensor,
    two_orbits,
    verify_cc_axioms,
)
from permsym.endo import (
    centralizer_algebra,
    centralizer_oracle,
    hecke_check,
    is_symmetric,
    make_algebra,
    natural_form,
    nilpotent_free_check,
    radical_chain,
    schur_ring_from_action,
    schur_vs_centralizer,
    structure_report,
    ALGEBRA_DIM_CAP,
    HECKE_ORDER_CAP,
    WITNESS_ENUM_CAP,
)
from permsym.errors import InputError, VerificationError
from permsym.exactlin import PrimeField
from permsym.perm import (
    Permutation,
    PermutationGroup,
    StabilizerChain,
    breadth_first,
    orbits,
    parse_permutation,
)
from permsym.suite import AXIOM_SUITE_SPECS

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    # load the benchmark's workload module alone, as a plain file
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def workload_groups():
    return tuple(load_workloads().GROUPS)


def analysis_jobs():
    """The (spec, p) of every analysis job of the benchmark, sorted."""
    workloads = load_workloads()
    return sorted({(j.spec, j.p) for w in workloads.WORKLOADS.values() for j in w.jobs
                   if j.kind == "analysis"})


def commutative_semisimple_jobs():
    """The (spec, p) of every analysis job of the benchmark whose algebra the
    benchmark records as commutative with a zero radical."""
    algebras = load_workloads().ALGEBRAS
    return [job for job in analysis_jobs() if algebras[job][1][4] and algebras[job][0][1] == 0]


def commutative_radical_jobs():
    """The (spec, p) of every analysis job of the benchmark whose algebra the
    benchmark records as commutative with a non-zero radical."""
    algebras = load_workloads().ALGEBRAS
    return [job for job in analysis_jobs() if algebras[job][1][4] and algebras[job][0][1] > 0]


def verify_algebra(sc, unit, p=None):
    """Reference: associativity and a two-sided unit for the constants b_i
    b_j = sum_t sc[i,j,t] b_t, over F_p with sc and unit reduced mod p, or
    over Z when p is None; over Z every sum is at most dim * max|sc|^2.
    ``make_algebra`` runs no proof: the configuration stage's own checks
    prove the orbital constants, and the tests prove their hand-built
    constants with this."""
    def reduce(a):
        return a if p is None else a % p

    m = len(unit)
    rows = sc.reshape(m * m, m)
    # (b_i b_j) b_k = sum_t (sum_l sc[i,j,l] sc[l,k,t]) b_t, indexed [i, j, k, t]
    left = _kernels._contract(rows, sc.reshape(m, m * m), p).reshape(m, m, m, m)
    # b_i (b_j b_k) = sum_t (sum_l sc[j,k,l] sc[i,l,t]) b_t, indexed [j, k, i, t]
    right = _kernels._contract(rows, sc.transpose(1, 0, 2).reshape(m, m * m), p)
    right = right.reshape(m, m, m, m).transpose(2, 0, 1, 3)
    if not np.array_equal(left, right):
        bad = np.argwhere(left != right)[0]
        raise VerificationError(f"structure constants not associative at {tuple(bad)}")
    eye = np.eye(len(unit), dtype=np.int64)
    ue = reduce(np.einsum("i,ijt->jt", unit, sc))
    eu = reduce(np.einsum("j,ijt->it", unit, sc))
    if not (np.array_equal(ue, eye) and np.array_equal(eu, eye)):
        raise VerificationError("declared unit is not a two-sided identity")


def proven_algebra(p, sc, unit):
    """The algebra of hand-built constants, with the reference proof that
    they are associative with the unit mod p."""
    alg = make_algebra(PrimeField(p), sc, unit)
    verify_algebra(alg.sc, alg.unit, p)
    return alg


def verify_orbital_constants(cc, tensor):
    """Reference: the m^4 proof over Z that the orbital constants are
    associative with the unit, which the configuration stage reads off the
    adjacency identity and A_0 = I instead of running."""
    verify_algebra(*endo._orbital_constants(cc, tensor))


@functools.lru_cache(maxsize=None)
def configuration_of(spec):
    """The orbital configuration and integer tensor of a catalog group, with
    the reference proof of its constants, which the configuration stage
    replaces with its own checks."""
    cc = two_orbits(build_instance(spec).group)
    tensor = intersection_tensor(cc)
    verify_orbital_constants(cc, tensor)
    return cc, tensor


def algebra_of(spec, p):
    cc, tensor = configuration_of(spec)
    return centralizer_algebra(cc, tensor, PrimeField(p)), cc


def regular_cn(n):
    return PermutationGroup(n, [parse_permutation("(" + " ".join(str(i + 1) for i in range(n)) + ")", n)])


def test_multiply_matches_python_int_reference_near_the_bound():
    p = 268435399  # largest prime below 2^28
    alg, _ = algebra_of("psl2cosets:32", p)
    sc = alg.sc.tolist()
    m = alg.dim
    rng = np.random.default_rng(5)
    for _ in range(5):
        x, y = rng.integers(0, p, size=(2, m)).tolist()
        expected = [
            sum(x[i] * y[j] * sc[i][j][t] for i in range(m) for j in range(m)) % p
            for t in range(m)
        ]
        assert alg.multiply(np.array(x), np.array(y)).tolist() == expected


def _assert_products_match_python_int_reference(p):
    alg, _ = algebra_of("psl2cosets:32", p)
    m = alg.dim
    assert m == 16
    sc = alg.sc.tolist()
    rng = np.random.default_rng(11)
    xs = rng.integers(0, p, size=(3, m))
    ys = rng.integers(0, p, size=(4, m))
    xs[0] = p - 1  # the largest entries
    ys[0] = p - 1
    out = alg.products(xs, ys)
    assert out.shape == (3, 4, m)
    for i, x in enumerate(xs.tolist()):
        for j, y in enumerate(ys.tolist()):
            expected = [
                sum(x[a] * y[b] * sc[a][b][t] for a in range(m) for b in range(m)) % p
                for t in range(m)
            ]
            assert out[i, j].tolist() == expected, (i, j)
            assert np.array_equal(alg.multiply(xs[i], ys[j]), out[i, j])
            assert np.array_equal(
                alg.multiply(xs[i], ys[j]), alg.products(xs[i][None], ys[j][None])[0, 0]
            )


def test_products_match_python_int_reference_near_the_bound():
    p = 268435399  # largest prime below 2^28: the products run in int64
    assert 16 * (p - 1) ** 2 >= 1 << 53
    _assert_products_match_python_int_reference(p)


def test_products_match_python_int_reference_on_the_float64_path():
    p = 73  # 16 * 72^2 is far below 2^53: the larger products run on float64 BLAS
    assert 16 * (p - 1) ** 2 < 1 << 53
    _assert_products_match_python_int_reference(p)


# ---------------------------------------------------------------------------
# centralizer algebra and oracle
# ---------------------------------------------------------------------------

def test_two_transitive_algebra_both_characteristics():
    # S_4 natural: char 2 divides n=4 -> one-dimensional radical;
    # char 5 does not -> semisimple product of two fields
    alg2, _ = algebra_of("sym:4", 2)
    assert radical_chain(alg2).dims == (2, 1, 0)
    alg5, _ = algebra_of("sym:4", 5)
    assert radical_chain(alg5).dims == (2, 0)


def test_shear_algebra_dimension():
    alg, _ = algebra_of("example3_2", 3)
    assert alg.dim == 5 and alg.commutative


def test_unit_is_identity_and_associativity_guard():
    alg, _ = algebra_of("frobenius:7,3", 3)
    x = np.array([1, 2, 0], dtype=np.int64)
    assert np.array_equal(alg.multiply(alg.unit, x), x)
    assert np.array_equal(alg.multiply(x, alg.unit), x)
    verify_algebra(alg.sc, alg.unit, 3)
    bad = alg.sc.copy()
    bad[1, 1, 0] = (bad[1, 1, 0] + 1) % 3
    with pytest.raises(VerificationError):
        verify_algebra(bad, alg.unit, 3)


def test_make_algebra_checks_only_the_shapes():
    # m = 61 with one non-zero constant and a zero unit: neither associative
    # with that unit nor under the cap, and still built; the radical and
    # the verdict refuse it by the cap
    m = ALGEBRA_DIM_CAP + 1
    sc = np.zeros((m, m, m), dtype=np.int64)
    sc[1, 1, 0] = 1
    alg = make_algebra(PrimeField(5), sc, np.zeros(m))
    assert alg.dim == m and alg.commutative
    for decide in (radical_chain, is_symmetric):
        with pytest.raises(InputError, match="algebra dimension 61 exceeds cap 60"):
            decide(alg)
    for unit in (np.zeros(m - 1), np.zeros((m, 1)), 0):
        with pytest.raises(InputError, match="shapes do not match"):
            make_algebra(PrimeField(5), sc, unit)


def dense_centralizer_oracle(G, field, cap=40):
    """Dimension of {X in M_n(F_p) : X P_g = P_g X for all generators g},
    computed as a dense nullspace dimension in the n^2 matrix entries.  This
    path never looks at the pair partition, so it cross-checks two_orbits.

    The elimination that centralizer_oracle's union-find replaced, kept as
    the reference for its theorem."""
    n = G.degree
    if n > cap:
        raise InputError(f"degree {n} exceeds oracle cap {cap}")
    p = field.p
    nn = n * n
    blocks = []
    src = np.arange(nn, dtype=np.int64)
    for g in G.generators:
        img = np.array(g.images, dtype=np.int64)
        dst = (img[:, None] * n + img[None, :]).reshape(nn)
        block = np.zeros((nn, nn), dtype=np.int64)
        block[src, dst] += 1
        block[src, src] -= 1
        blocks.append(block % p)
    if not blocks:
        return nn
    rank = rank_mod_p(np.vstack(blocks), p)
    return nn - rank


def component_count(labels):
    # each component's least pair is its own label
    return int(np.count_nonzero(labels.ravel() == np.arange(labels.size)))


def test_oracle_examples():
    assert component_count(centralizer_oracle(build_instance("sym:3").group)) == 2
    assert component_count(centralizer_oracle(regular_cn(3))) == 3
    assert component_count(centralizer_oracle(build_instance("altpairs:7").group)) == 3
    labels = centralizer_oracle(PermutationGroup(2, []))
    assert np.array_equal(labels, [[0, 1], [2, 3]])


def test_oracle_matches_orbital_count():
    # the incidence-matrix theorem: the dense nullity is the number of
    # union-find components at every p, and those are the orbitals
    for spec in AXIOM_SUITE_SPECS:
        G = build_instance(spec).group
        cc = two_orbits(G)
        labels = centralizer_oracle(G)
        n = G.degree
        assert np.array_equal(labels, (cc.rep[:, 0] * n + cc.rep[:, 1])[cc.orbital_of]), spec
        count = component_count(labels)
        assert count == cc.m, spec
        for p in (2, 3, 5, 7):
            assert dense_centralizer_oracle(G, PrimeField(p)) == count, (spec, p)


def test_oracle_degree_cap():
    # centralizer_oracle checks no cap of its own: PermutationGroup refuses
    # a degree above perm.DEGREE_CAP, so no such group reaches it
    with pytest.raises(InputError, match="degree 1001 exceeds the pair-table cap 1000"):
        centralizer_oracle(PermutationGroup(1001, []))


# ---------------------------------------------------------------------------
# the reflexive-coefficient pairing
# ---------------------------------------------------------------------------

def test_form_support_and_valency_entries():
    for spec, p in (("altpairs:7", 3), ("frobenius:7,3", 2), ("psl2cosets:8", 5)):
        alg, cc = algebra_of(spec, p)
        form = natural_form(alg)
        assert form.symmetric
        star = cc.orbital_of[cc.rep[:, 1], cc.rep[:, 0]]  # the transposed orbitals
        for r in range(alg.dim):
            for s in range(alg.dim):
                if s == star[r]:
                    assert form.gram[r, s] == cc.valency[r] % p
                else:
                    assert form.gram[r, s] == 0


def test_form_degenerate_for_shear_group_char3():
    alg, _ = algebra_of("example3_2", 3)
    form = natural_form(alg)
    assert form.symmetric and not form.nondegenerate


def test_form_nondegenerate_iff_valencies_invertible():
    for spec in ("sym:5", "altpairs:7", "frobenius:7,3", "psl2cosets:8"):
        for p in (2, 3, 5, 7, 11, 13):
            alg, cc = algebra_of(spec, p)
            form = natural_form(alg)
            want = all(int(v) % p for v in cc.valency)
            assert form.nondegenerate == want, (spec, p)


def test_form_requires_transitivity():
    # the form reads orbital 0, the diagonal of a transitive configuration;
    # an intransitive group gets no configuration
    H = PermutationGroup(3, [parse_permutation("(1 2)", 3)])
    with pytest.raises(InputError, match="analysis requires a transitive action"):
        two_orbits(H)
    cc = two_orbits(PermutationGroup(3, [parse_permutation("(1 2 3)", 3)]))
    tensor = intersection_tensor(cc)
    verify_orbital_constants(cc, tensor)
    alg = centralizer_algebra(cc, tensor, PrimeField(3))
    assert np.diag(cc.orbital_of).tolist() == [0, 0, 0]
    assert natural_form(alg).functional.tolist() == [1, 0, 0]


# ---------------------------------------------------------------------------
# radical series and structure
# ---------------------------------------------------------------------------

def test_shear_radical_series_verified_value():
    """The radical powers of the 9-point shear algebra over F_3.

    Four independent routes agree on (5, 4, 1, 0): the Frobenius kernel of
    x -> x^9 (``radical_chain``, proven nilpotent by its power series, and
    checked by the reference ideal and quotient checks below), the
    divided-trace chain (``trace_chain``), the brute-force oracle below that
    enumerates all 243 elements and spans the nilpotent ones, and the same
    enumeration on the raw 9x9 adjacency matrices mod 3, which uses no
    structure constants.
    """
    alg, _ = algebra_of("example3_2", 3)
    series = radical_chain(alg)
    assert series.dims == (5, 4, 1, 0)
    verify_radical(alg, series.radical)
    chain = trace_chain(alg)
    assert_same_bytes(chain, series.radical)
    assert endo._proven_series(alg, chain).dims == series.dims

    nilpotents = []
    for coeffs in itertools.product(range(3), repeat=5):
        x = np.array(coeffs, dtype=np.int64)
        if not alg.power(x, 16).any():
            nilpotents.append(x)
    rr, rk = rref_mod_p(np.array(nilpotents, dtype=np.int64), 3)
    assert len(nilpotents) == 3 ** 4 and rk == 4  # the nilpotents fill a 4-dim ideal
    oracle_basis = rr[:rk]
    dims = [5, rk]
    cur = oracle_basis
    while cur.shape[0]:
        prods = [alg.multiply(x, y) for x in cur for y in oracle_basis]
        rr2, rk2 = rref_mod_p(np.array(prods, dtype=np.int64).reshape(-1, 5), 3)
        cur = rr2[:rk2]
        dims.append(rk2)
        if rk2 == 0:
            break
    assert tuple(dims) == series.dims

    table = two_orbits(build_instance("example3_2").group).orbital_of
    mats = (np.arange(5)[:, None, None] == table).astype(np.int64)  # adjacency matrices
    assert mats.shape == (5, 9, 9)
    raw_nilpotents = []
    for coeffs in itertools.product(range(3), repeat=5):
        m = np.einsum("s,sij->ij", np.array(coeffs, dtype=np.int64), mats) % 3
        power = m
        for _ in range(8):  # a nilpotent 9x9 matrix has m^9 = 0
            power = power @ m % 3
        if not power.any():
            raw_nilpotents.append(m)
    assert len(raw_nilpotents) == 81
    flat = np.array(raw_nilpotents).reshape(-1, 81)
    rr, rk = rref_mod_p(flat, 3)
    radical = rr[:rk].reshape(-1, 9, 9)
    raw_dims = [rank_mod_p(mats.reshape(5, 81), 3), rk]
    cur = radical
    while cur.shape[0]:
        prods = np.array([x @ y % 3 for x in cur for y in radical]).reshape(-1, 81)
        rr2, rk2 = rref_mod_p(prods, 3)
        cur = rr2[:rk2].reshape(-1, 9, 9)
        raw_dims.append(rk2)
    assert tuple(raw_dims) == (5, 4, 1, 0)


def divided_traces(alg, zs, i):
    """tr(L^(p^i)) / p^i mod p for the integer lifts L of the left-regular
    matrices of the rows of zs.  At level 0 the trace is linear in z; at
    level i >= 1 the powers are taken mod p^(i+1), one batch of matrices at a
    time.  On the chain layer where it is used the trace is divisible by
    p^i."""
    p, m = alg.field.p, alg.dim
    if i == 0:
        return _kernels._contract(zs, endo._regular_trace(alg), p)
    # L(z)^T, which has the same trace powers as L(z); entries below p.
    # The chain has p^i <= dim, so mod <= dim^2 and every sum stays below dim^5
    lifts = _kernels._contract(zs, alg.sc.reshape(m, m * m), p).reshape(-1, m, m)
    mod = p ** (i + 1)
    power = np.broadcast_to(np.eye(m, dtype=np.int64), lifts.shape)
    e = p ** i
    while e:
        if e & 1:
            power = _kernels._contract(power, lifts, mod)
        lifts = _kernels._contract(lifts, lifts, mod)
        e >>= 1
    tr = np.trace(power, axis1=1, axis2=2) % mod
    assert not np.any(tr % (p ** i)), "divided trace is not integral on the chain layer"
    return tr // (p ** i) % p


def trace_chain(alg):
    """Reference: the rref basis of J by the divided-trace chain on integer
    lifts of the left-regular representation.  Plain trace-form radicals are
    wrong in small characteristic, so the chain descends through the
    subspaces cut out by tr(lift(x*y)^(p^i))/p^i = 0 for i = 0..floor(log_p
    dim).  It shares no step with ``radical_chain`` but the eliminations."""
    p, m = alg.field.p, alg.dim
    cur = np.eye(m, dtype=np.int64)
    for i in range(endo._frobenius_exponent(p, m + 1)):  # while p^i <= m
        k = cur.shape[0]
        if k == 0:
            break
        # prods[a, j] = cur[a] * cur[j]; T[j, a] is its divided trace
        prods = alg.products(cur, cur)
        T = np.stack([divided_traces(alg, prods[a], i) for a in range(k)], axis=1)
        kern = _kernels.nullspace_mod_p(T, p)
        cur = endo._rowspace(_kernels._contract(kern, cur, p), p)
    return cur


def quotient_algebra(alg, ideal):
    """The quotient by an ideal given by an rref basis, on the complement
    coordinates of its pivots."""
    p = alg.field.p
    pivots = (ideal != 0).argmax(axis=1)
    free = sorted(set(range(alg.dim)) - set(pivots.tolist()))

    def reduce(v):
        # the rref rows carry the identity on the pivot columns, so one
        # product clears them
        v = v % p
        return _kernels._mod(v - _kernels._contract(v[..., pivots], ideal, p), p)[..., free]

    basis = np.eye(alg.dim, dtype=np.int64)[free]
    return make_algebra(alg.field, reduce(alg.products(basis, basis)), reduce(alg.unit))


def verify_radical(alg, radical):
    """Reference: a nilpotent R (given by an rref basis) is J iff it is a
    two-sided ideal with a semisimple quotient; the quotient's radical comes
    from ``radical_chain``."""
    p, m = alg.field.p, alg.dim
    eye = np.eye(m, dtype=np.int64)
    r = radical.shape[0]
    for side, products in (("left", alg.products(eye, radical)),
                           ("right", alg.products(radical, eye))):
        assert rank_mod_p(np.vstack([radical, products.reshape(-1, m)]), p) == r, \
            f"radical is not a {side} ideal"
    assert radical_chain(quotient_algebra(alg, radical)).dims[1] == 0, \
        "quotient by the radical is not semisimple"


# catalog specs scanned for small commutative algebras: the acceptance-suite
# specs, sym:4, and Frobenius groups whose algebras reach deeper chain levels
BRUTE_FORCE_SPECS = (
    "sym:4", "sym:5", "alt:5", "altpairs:7", "signtwist:3", "signtwist:4",
    "signtwist:5", "frobenius:5,2", "frobenius:7,3", "frobenius:7,6",
    "frobenius:11,2", "frobenius:13,3", "frobenius:17,2", "frobenius:23,2",
    "example3_2", "psl2line:4", "psl2line:8", "psl2line:32", "psl2cosets:8",
)
BRUTE_FORCE_BUDGET = 4096


def small_commutative_cases():
    """(spec, p) with a commutative algebra, p <= dim (so the divided-trace
    chain has a level i >= 1) and p^dim within the enumeration budget."""
    cases = []
    for spec in BRUTE_FORCE_SPECS:
        cc, _ = configuration_of(spec)
        for p in (2, 3, 5, 7):
            if p <= cc.m and p ** cc.m <= BRUTE_FORCE_BUDGET:
                alg, _ = algebra_of(spec, p)
                if alg.commutative:
                    cases.append((spec, p))
    return cases


def nilpotent_series_by_enumeration(alg):
    """Radical power dimensions of a commutative algebra from its nilpotent
    elements, found by enumerating every element; products are formed
    directly from the structure constants."""
    p, m, sc = alg.field.p, alg.dim, alg.sc

    def mul(x, y):  # row-wise products
        return np.einsum("ni,nj,ijt->nt", x, y, sc) % p

    elems = np.array(list(itertools.product(range(p), repeat=m)), dtype=np.int64)
    power = elems
    q = 1
    while q < m:  # x^(p^e) with p^e >= m vanishes exactly on the nilpotents
        step = power
        for _ in range(p - 1):
            step = mul(step, power)
        power = step
        q *= p
    nilpotents = elems[~power.any(axis=1)]
    rr, rk = rref_mod_p(nilpotents, p)
    assert len(nilpotents) == p ** rk  # the nilpotents form a subspace
    radical = rr[:rk]
    dims = [m, rk]
    cur = radical
    while cur.shape[0]:
        pairs = np.array([(x, y) for x in cur for y in radical], dtype=np.int64)
        rr, rk = rref_mod_p(mul(pairs[:, 0], pairs[:, 1]), p)
        cur = rr[:rk]
        dims.append(rk)
    return tuple(dims)


def test_divided_trace_levels_match_brute_force():
    cases = small_commutative_cases()
    for example in (("psl2cosets:8", 2), ("psl2cosets:8", 3), ("example3_2", 2),
                    ("sym:4", 2), ("frobenius:7,3", 2), ("frobenius:7,3", 3)):
        assert example in cases
    deep = 0
    for spec, p in cases:
        alg, _ = algebra_of(spec, p)
        series = radical_chain(alg)
        chain = trace_chain(alg)
        assert_same_bytes(chain, series.radical)
        dims = endo._proven_series(alg, chain).dims
        assert dims == series.dims == nilpotent_series_by_enumeration(alg), (spec, p)
        deep += p * p <= alg.dim and dims[1] > 0  # a radical down to level 2
    assert deep


def test_radical_maschke_cases():
    # characteristics coprime to the group order: the algebra is semisimple
    for spec, p in (("altpairs:7", 11), ("frobenius:7,3", 5), ("sym:5", 7), ("example3_2", 5)):
        alg, _ = algebra_of(spec, p)
        assert radical_chain(alg).dims == (alg.dim, 0), (spec, p)


def test_structure_report_cases():
    alg, _ = algebra_of("example3_2", 3)
    st = structure_report(alg)
    assert st.is_local and st.commutative
    assert st.top_dim == 1
    assert st.right_socle_dim >= 2  # the non-symmetry obstruction

    alg, _ = algebra_of("sym:4", 5)  # semisimple k x k
    st = structure_report(alg)
    assert st.top_dim == 2 and st.left_socle_dim == 2 and not st.is_local

    alg, _ = algebra_of("sym:4", 2)  # k[X]/(X^2)
    st = structure_report(alg)
    assert st.top_dim == 1 and st.right_socle_dim == 1 and st.is_local


# ---------------------------------------------------------------------------
# the radical proof: the Külshammer kernel and the power series
# ---------------------------------------------------------------------------

def regular_s3(p):
    """The centralizer algebra of S3 acting regularly on 6 points: F_p[S3]."""
    G = PermutationGroup(6, [parse_permutation("(1 2 3)(4 5 6)", 6),
                             parse_permutation("(1 4)(2 6)(3 5)", 6)])
    cc = two_orbits(G)
    tensor = intersection_tensor(cc)
    verify_orbital_constants(cc, tensor)
    return centralizer_algebra(cc, tensor, PrimeField(p))


def regular_action(*cycles):
    """The right-regular action of the group that the given cycles of
    1-indexed points generate, on its elements in breadth-first order."""
    degree = max(int(point) for c in cycles for point in c.strip("()").split())
    gens = [parse_permutation(c, degree) for c in cycles]
    elements = breadth_first(Permutation.identity(degree), gens, Permutation.__mul__)[0]
    index = {x: i for i, x in enumerate(elements)}
    return PermutationGroup(len(elements), [
        Permutation(tuple(index[x * g] for x in elements)) for g in gens])


@functools.lru_cache(maxsize=None)
def regular_configuration(*cycles):
    """The configuration of a regular action, proven by the configuration
    stage's checks (the m^4 reference proof is too large at m = 60)."""
    return configuration(CatalogInstance("regular", regular_action(*cycles)))


def regular_algebra(p, *cycles):
    """F_p[G] for the group G that the cycles generate, as the centralizer
    algebra of its regular action."""
    config = regular_configuration(*cycles)
    return centralizer_algebra(config.cc, config.tensor, PrimeField(p))


def regular_s4(p):
    return regular_algebra(p, "(1 2 3 4)", "(1 2)")


def regular_a5(p):
    return regular_algebra(p, "(1 2 3)", "(1 2 3 4 5)")


def spy(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("spec,p", commutative_radical_jobs())
def test_frobenius_kernel_alone_proves_the_commutative_workload_radicals(spec, p, monkeypatch):
    """A commutative algebra has K = 0 and R = T: no commutator is formed."""
    alg, _ = algebra_of(spec, p)
    calls = spy(monkeypatch, endo, "_commutators")
    series = radical_chain(alg)
    assert alg.commutative and series.dims[1] > 0
    assert calls == []
    # reference: the ideal and quotient checks that the Frobenius kernel implies
    verify_radical(alg, series.radical)


TEST_PRIMES = (2, 3, 5, 7, 11, 73, 268435399)


@pytest.mark.parametrize("p", TEST_PRIMES)
def test_noncommutative_radicals_reach_the_ideal_and_quotient_checks(p, monkeypatch):
    """The Külshammer kernel R passes the reference ideal and quotient
    checks, a zero R as well.  The upper-triangular J = span{e12} is found
    at every p: J lies in R by R's construction, so no zero candidate is
    taken on trust."""
    # F_2[S3] = F_2[C2] x M_2(F_2); over F_3, J^k = F_3[S3](x - 1)^k for a
    # 3-cycle x; F_5[S3] and F_7[S3] are semisimple by Maschke
    s3_dims = {2: (6, 1, 0), 3: (6, 4, 2, 0)}.get(p, (6, 0))
    for alg, dims in ((upper_triangular_2x2(p), (3, 1, 0)), (regular_s3(p), s3_dims)):
        calls = spy(monkeypatch, endo, "_commutators")
        assert not alg.commutative
        series = radical_chain(alg)
        assert series.dims == dims and len(calls) == 1
        verify_radical(alg, series.radical)
    assert radical_chain(upper_triangular_2x2(p)).radical.tolist() == [[0, 0, 1]]


def assert_same_bytes(a, b):
    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def all_of_a(alg, commutators):
    """An iterated Frobenius matrix of zero, whose kernel T is all of A."""
    return np.zeros((alg.dim, alg.dim), dtype=np.int64)


@pytest.mark.parametrize("spec,p", [("example3_2", 3), ("psl2cosets:32", 2), ("s3", 2),
                                    ("s3", 3), ("upper_triangular", 3), ("s4", 2)])
def test_an_oversized_frobenius_kernel_is_refused(spec, p, monkeypatch):
    """A kernel T that holds the unit is not nilpotent, and on a
    non-commutative algebra it makes R = {x : x A in T} all of A too: the
    power series refuses either."""
    make = {"s3": regular_s3, "upper_triangular": upper_triangular_2x2, "s4": regular_s4}
    alg = make[spec](p) if spec in make else algebra_of(spec, p)[0]
    assert radical_chain(alg).dims[1] > 0
    monkeypatch.setattr(endo, "_iterated_frobenius", all_of_a)
    with pytest.raises(VerificationError, match="not nilpotent"):
        radical_chain(alg)


def product_space(alg, xs, ys):
    """The rref basis of the span of every product x y, x in xs, y in ys."""
    return endo._rowspace(alg.products(xs, ys).reshape(-1, alg.dim), alg.field.p)


@pytest.mark.parametrize("case", ["example3_2", "s3", "upper_triangular"])
def test_a_corrupted_radical_candidate_is_refused(case):
    """An oversized candidate is refused as not nilpotent.  An undersized
    one that is closed and nilpotent passes ``_proven_series``, which proves
    only that R lies in J: that J lies in R follows from R's construction
    in ``radical_chain``, not from any check."""
    alg = {"example3_2": lambda: algebra_of("example3_2", 3)[0],
           "s3": lambda: regular_s3(3), "upper_triangular": lambda: upper_triangular_2x2(3)}[case]()
    p = alg.field.p
    radical = radical_chain(alg).radical
    with_unit = rref_mod_p(np.vstack([radical, alg.unit]), p)[0][:len(radical) + 1]
    # the unit is not nilpotent, so the power series refuses it
    with pytest.raises(VerificationError, match="not nilpotent"):
        endo._proven_series(alg, with_unit)
    if len(radical) > 1:
        # J^2, and a line of it, are closed under products and nilpotent
        square = product_space(alg, radical, radical)
        for short in (square, square[1:]):
            if len(short):
                series = endo._proven_series(alg, short)
                assert series.dims == reference_power_dims(alg, short)
                assert series.dims[1] < len(radical)


@pytest.mark.parametrize("case", ["example3_2", "s3", "frobenius"])
def test_a_candidate_not_closed_under_products_is_refused(case):
    """The power series reads V off the pivots of R^2 only once R^2 lies in
    R.  A row short of J is not closed in either algebra.  Nor is span{u^18,
    u^19} in F_73[u]/(u^37) (frobenius:73,2 at 73): its square is the line
    of u^36, and every later power is 0, so the closure check is the one
    check of the power series that refuses it."""
    if case == "frobenius":
        alg, _ = algebra_of("frobenius:73,2", 73)
        radical = radical_chain(alg).radical
        square = product_space(alg, radical, radical)
        u = next(row for row in radical
                 if rank_mod_p(np.vstack([square, row]), 73) > len(square))  # u generates J
        candidate = np.vstack([alg.power(u, 18), alg.power(u, 19)])
    else:
        alg = algebra_of("example3_2", 3)[0] if case == "example3_2" else regular_s3(3)
        candidate = radical_chain(alg).radical[1:]
    candidate = rref_mod_p(candidate, alg.field.p)[0]
    with pytest.raises(VerificationError, match="not closed under products"):
        endo._proven_series(alg, candidate)


def idempotent_beside_a_nilpotent(p):
    """F_p[v]/(v^2) x F_p x M_2(F_p) on the basis f, v, e, E11, E12, E21,
    E22, where f and e are the units of the first two factors.  R = span{v,
    e} is a two-sided ideal with quotient F_p x M_2(F_p), which is
    semisimple, and R R = span{e} lies in R; but e is idempotent, so R is
    not nilpotent, and J = span{v}."""
    sc = np.zeros((7, 7, 7), dtype=np.int64)
    f, v, e = 0, 1, 2
    sc[f, f, f] = sc[e, e, e] = 1
    sc[f, v, v] = sc[v, f, v] = 1
    for i, j in itertools.product(range(2), repeat=2):
        for k in range(2):
            sc[3 + 2 * i + j, 3 + 2 * j + k, 3 + 2 * i + k] = 1  # E_ij E_jk = E_ik
    return proven_algebra(p, sc, np.array([1, 0, 1, 1, 0, 0, 1]))


@pytest.mark.parametrize("p", [2, 3])
def test_a_closed_candidate_with_an_idempotent_is_refused(p):
    alg = idempotent_beside_a_nilpotent(p)
    assert radical_chain(alg).dims == (7, 1, 0)
    candidate = np.eye(7, dtype=np.int64)[[1, 2]]
    # the candidate passes closure and strict decrease, and it is a
    # two-sided ideal with a semisimple quotient; R^2 V = e v = 0 though
    # R^3 = span{e}, so only the check R R = R V tells it from a nilpotent
    # ideal
    verify_radical(alg, candidate)
    with pytest.raises(VerificationError, match="R R is not R V"):
        endo._proven_series(alg, candidate)


def stalled_powers(p):
    """F_p[n]/(n^2) x F_p on the basis f, v = e + n, e, where f and e are the
    units of the two factors: f^2 = f, e^2 = e, v^2 = ve = ev = e and fv =
    vf = v - e.  R = span{v, e} is closed, with R R = span{e} = R V for V =
    span{v}, and an ideal with semisimple quotient F_p; but R^k = span{e}
    for every k >= 2, so R is not nilpotent, and J = span{n}."""
    sc = np.zeros((3, 3, 3), dtype=np.int64)
    f, v, e = 0, 1, 2
    sc[f, f, f] = sc[e, e, e] = 1
    sc[v, v, e] = sc[v, e, e] = sc[e, v, e] = 1
    sc[f, v, v] = sc[v, f, v] = 1
    sc[f, v, e] = sc[v, f, e] = -1
    return proven_algebra(p, sc, np.array([1, 0, 1]))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_a_candidate_whose_powers_stall_is_refused(p):
    alg = stalled_powers(p)
    assert radical_chain(alg).dims == (3, 1, 0)
    candidate = np.eye(3, dtype=np.int64)[[1, 2]]
    square = product_space(alg, candidate, candidate)
    assert square.tolist() == [[0, 0, 1]]
    assert product_space(alg, square, candidate).tolist() == [[0, 0, 1]]
    # closure and R R = R V hold, and R is a two-sided ideal with a
    # semisimple quotient, so only the series itself, which never reaches 0,
    # tells R from a nilpotent ideal
    verify_radical(alg, candidate)
    with pytest.raises(VerificationError, match="not nilpotent$"):
        endo._proven_series(alg, candidate)


@pytest.mark.parametrize("spec,p", [("frobenius:73,2", 73), ("frobenius:53,2", 53)])
def test_a_series_that_reaches_zero_a_level_early_is_refused(spec, p, monkeypatch):
    """At d = 1 no later power is ranked: R R = R V and a loop that reaches
    0 prove the dims r, r - 1, ..., 0, so exactly r - 1 sets R^2, ..., R^r
    are non-zero.  A level product that comes out 0 one level early, for
    R^r, leaves closure and R R = R V intact, and the count of the sets is
    the check that refuses it."""
    alg, _ = algebra_of(spec, p)
    m = alg.dim
    series = radical_chain(alg)
    r = len(series.radical)
    assert len(series.top) == 1 and series.dims == (m, *range(r, -1, -1))
    contract, level_products = _kernels._contract, []

    def losing(a, b, modulus=None):
        out = contract(a, b, modulus)
        if b.shape == (m, m):  # x -> x V: R V first, then R^3, R^4, ...
            level_products.append(a)
            if len(level_products) == r - 1:  # the product that forms R^r
                return np.zeros_like(out)
        return out

    monkeypatch.setattr(_kernels, "_contract", losing)
    with pytest.raises(VerificationError, match="not nilpotent$"):
        endo._proven_series(alg, series.radical)
    assert len(level_products) == r - 1


def reference_power_dims(alg, radical):
    """The radical power dimensions by the full product loop: each power is
    the row space of every product of the previous power with all of R."""
    dims, power = [alg.dim, radical.shape[0]], radical
    while power.shape[0] > 0:
        power = product_space(alg, power, radical)
        dims.append(power.shape[0])
        assert dims[-1] < dims[-2]
    return tuple(dims)


def top_of(alg, radical):
    """The rows of an rref basis of R at the pivots that R^2's rref lacks,
    with R^2's rref basis."""
    square = product_space(alg, radical, radical)
    at_top = np.ones(alg.dim, dtype=bool)
    at_top[(square != 0).argmax(axis=1)] = False
    return radical[at_top[(radical != 0).argmax(axis=1)]], square


def stacked_rank_dims(alg, radical):
    """Reference: the power series as ``_proven_series`` ranks it for d >= 2
    and once ranked it for every d.  Each later power is the previous set
    times V, and R V with the sets for R^3, R^4, ..., zero-padded into one
    stack, is ranked by one call; R V must have R^2's rank and the dims
    must decrease strictly."""
    p, m = alg.field.p, alg.dim
    if not len(radical):
        return m, 0
    top, square = top_of(alg, radical)
    dims = [m, len(radical), len(square)]
    if len(square):
        def times_top(span):
            span = alg.products(span, top).reshape(-1, m)
            return endo._rowspace(span, p) if len(span) > m else span

        levels, sets = [times_top(radical)], [square]
        while (span := times_top(sets[-1])).any():
            sets.append(span)
            assert len(sets) <= m
        levels += sets[1:]
        stack = np.zeros((len(levels), max(len(s) for s in levels), m), dtype=np.int64)
        for level, span in zip(stack, levels):
            level[:len(span)] = span
        ranks = rank_mod_p(stack, p).tolist()
        assert ranks[0] == len(square)
        dims += ranks[1:] + [0]
        assert all(b < a for a, b in zip(dims[2:], dims[3:]))
    return tuple(dims)


def whole_radical_socles(alg, radical):
    """Reference: the socle dimensions of {x : J x = 0} and {x : x J = 0}
    from the products with every row of J, as ``structure_report`` ranked
    them before it read them off the top V."""
    p, m = alg.field.p, alg.dim
    if not len(radical):
        return m, m
    eye = np.eye(m, dtype=np.int64)
    left = rank_mod_p(alg.products(radical, eye).transpose(0, 2, 1).reshape(-1, m), p)
    right = rank_mod_p(alg.products(eye, radical).transpose(1, 2, 0).reshape(-1, m), p)
    return m - left, m - right


def power_series_cases():
    return ([pytest.param(lambda s=s, p=p: algebra_of(s, p)[0], id=f"{s}-{p}")
             for s, p in analysis_jobs()]
            + [pytest.param(lambda p=p: algebra_of("frobenius:113,2", p)[0],
                            id=f"frobenius:113,2-{p}") for p in (2, 113)]
            + [pytest.param(lambda p=p: regular_s3(p), id=f"s3-{p}") for p in (2, 3, 5, 7)]
            + [pytest.param(lambda: upper_triangular_2x2(3), id="upper_triangular-3")])


def top_series_cases():
    """The power series cases with the regular S4 and A5 at 2, 3, 5 and 7."""
    return (power_series_cases()
            + [pytest.param(lambda make=make, p=p: make(p), id=f"{name}-{p}")
               for name, make in (("s4", regular_s4), ("a5", regular_a5)) for p in (2, 3, 5, 7)])


@pytest.mark.parametrize("make", top_series_cases())
def test_power_series_from_the_top_matches_the_full_product_loop(make):
    """The series and the stacked ranks that the d = 1 dims replaced are
    both kept as references, on d = 1 and d >= 2 alike."""
    alg = make()
    series = radical_chain(alg)
    assert series.dims == reference_power_dims(alg, series.radical)
    assert series.dims == stacked_rank_dims(alg, series.radical)


@pytest.mark.parametrize("make", top_series_cases())
def test_the_socles_from_the_top_match_the_whole_radical(make):
    """The series' top V is the d rows of J's rref basis that span J modulo
    J^2 (J itself when J^2 = 0), and its socles, read off V, are those read
    off all of J."""
    alg = make()
    series = radical_chain(alg)
    top, square = top_of(alg, series.radical)
    assert_same_bytes(series.top, top if len(square) else series.radical)
    assert len(series.top) == len(series.radical) - len(square)
    structure = structure_report(alg, series)
    assert ((structure.left_socle_dim, structure.right_socle_dim)
            == whole_radical_socles(alg, series.radical))


def path_algebra_of_two_arrows(p):
    """The path algebra of the quiver 2 <- 1 -> 3 on the basis e1, e2, e3,
    a, b, where a: 1 -> 2 and b: 1 -> 3 compose right to left: e2 a = a e1
    = a and e3 b = b e1 = b.  J = span{a, b} and J^2 = 0.  J x = 0 exactly
    on span{e2, e3, a, b}, and x J = 0 exactly on span{e1, a, b}."""
    sc = np.zeros((5, 5, 5), dtype=np.int64)
    e1, e2, e3, a, b = range(5)
    for e in (e1, e2, e3):
        sc[e, e, e] = 1
    sc[e2, a, a] = sc[a, e1, a] = 1
    sc[e3, b, b] = sc[b, e1, b] = 1
    return proven_algebra(p, sc, np.array([1, 1, 1, 0, 0]))


@pytest.mark.parametrize("p", [2, 3])
def test_the_socles_of_a_path_algebra_differ_by_side(p):
    """The left and right socles differ in dimension, so reading either one
    off the wrong side of V shows."""
    alg = path_algebra_of_two_arrows(p)
    series = radical_chain(alg)
    assert series.dims == (5, 2, 0) and series.radical.tolist() == [[0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
    structure = structure_report(alg, series)
    assert (structure.top_dim, structure.left_socle_dim, structure.right_socle_dim) == (3, 4, 3)
    assert whole_radical_socles(alg, series.radical) == (4, 3)


@pytest.mark.parametrize("make", power_series_cases())
def test_the_trace_chain_is_the_reference_radical(make, monkeypatch):
    """``radical_chain`` forms the commutators only on a non-commutative
    algebra; on either, the divided-trace chain, which shares none of its
    steps, is the reference it must equal byte for byte."""
    alg = make()
    commutators = spy(monkeypatch, endo, "_commutators")
    series = radical_chain(alg)
    assert (commutators == []) is alg.commutative
    assert_same_bytes(trace_chain(alg), series.radical)


def in_span(basis, vs, p):
    """Whether every row of vs lies in the row space of basis."""
    return rank_mod_p(np.vstack([basis, vs]), p) == rank_mod_p(basis, p)


@pytest.mark.parametrize("p", [2, 3])
def test_jacobson_congruences_hold_modulo_the_commutators(p):
    """(x + y)^p - x^p - y^p and c^p lie in K = [A, A] for seeded random x,
    y in F_p[S4] and c in K, so x -> x^(p^e) mod K is the linear map that
    ``_iterated_frobenius`` forms."""
    alg = regular_s4(p)
    m = alg.dim
    K = endo._rowspace(endo._commutators(alg), p)
    assert 0 < len(K) < m
    rng = np.random.default_rng(p)
    xs, ys = rng.integers(0, p, size=(2, 20, m))
    cs = _kernels._contract(rng.integers(0, p, size=(20, len(K))), K, p)
    assert in_span(K, (alg.power(xs + ys, p) - alg.power(xs, p) - alg.power(ys, p)) % p, p)
    assert in_span(K, alg.power(cs, p), p)
    e = endo._frobenius_exponent(p, m)
    frobenius = endo._iterated_frobenius(alg, K)
    assert in_span(K, (_kernels._contract(xs, frobenius.T, p) - alg.power(xs, p ** e)) % p, p)


# dim J of F_p[A5], from the p-modular simple modules: at p = 2 they are 1,
# 4 and the pair 2, 2' over F_4, so 60 - (1 + 16 + 8) = 35; at p = 3 they
# are 1, 4 and the pair 3, 3' over F_9, so 60 - (1 + 16 + 18) = 25; at p = 5
# they are 1, 3 and 5, so 60 - (1 + 9 + 25) = 25; p = 7 does not divide 60
A5_RADICAL_DIMS = {2: 35, 3: 25, 5: 25, 7: 0}


@pytest.mark.parametrize("p", sorted(A5_RADICAL_DIMS))
def test_the_regular_a5_radical_has_the_modular_dimension(p):
    alg = regular_a5(p)
    assert alg.dim == 60 and not alg.commutative
    series = radical_chain(alg)
    assert series.dims[1] == A5_RADICAL_DIMS[p]
    assert series.dims == reference_power_dims(alg, series.radical)
    if p in (5, 7):
        assert_same_bytes(trace_chain(alg), series.radical)


# ---------------------------------------------------------------------------
# symmetric-algebra decision
# ---------------------------------------------------------------------------

def assert_valid_witness(alg, verdict):
    lam = verdict.witness
    assert lam is not None
    p = alg.field.p
    comm = (alg.sc - alg.sc.transpose(1, 0, 2)) % p
    assert not (comm.reshape(-1, alg.dim) @ lam % p).any()  # vanishes on commutators
    gram = alg.sc @ lam % p
    assert rank_mod_p(gram, p) == alg.dim


def reference_verdict(alg, structure, seed=0):
    """The decision that the socle criterion replaced, kept as its
    reference: search the functionals vanishing on commutators for a
    witness, all of them when the space fits WITNESS_ENUM_CAP, else the
    seeded samples.  With no witness, an exhausted search is a negative,
    and so is a sampled miss on a local algebra whose socle is not
    one-dimensional (the local-socle obstruction); anything else is
    inconclusive.  Returns the status and whether the search was
    exhaustive."""
    p = alg.field.p
    W = endo._witness_space(alg)
    w = W.shape[0]
    searched_all = p ** w <= WITNESS_ENUM_CAP
    if searched_all:
        candidates = itertools.product(range(p), repeat=w)
    else:
        rng = np.random.default_rng(seed)
        candidates = (rng.integers(0, p, size=w) for _ in range(endo.WITNESS_SAMPLES))
    if endo._first_witness(alg, W, candidates) is not None:
        return "symmetric", searched_all
    if searched_all or (structure.is_local and structure.right_socle_dim != 1):
        return "not_symmetric", searched_all
    return "inconclusive", searched_all


def meets_socle_criterion(structure):
    return structure.left_socle_dim == structure.right_socle_dim == structure.top_dim


def assert_the_criterion_matches_the_reference(alg, structure, seed):
    """On a commutative algebra the socle criterion decides, and the
    reference agrees wherever it decides: a search of the whole space, a
    sampled witness, which proves the algebra symmetric, and the local-socle
    obstruction.  Returns (criterion, the reference's status)."""
    assert alg.commutative
    criterion = meets_socle_criterion(structure)
    verdict = is_symmetric(alg, structure=structure, seed=seed)
    assert verdict.is_positive() == criterion
    assert verdict.method not in ("exhausted_search", "sampling_no_hit")
    status, _ = reference_verdict(alg, structure, seed)
    if status != "inconclusive":
        assert (status == "symmetric") == criterion
    return criterion, status


def test_shear_group_not_symmetric():
    alg, _ = algebra_of("example3_2", 3)
    structure = structure_report(alg)
    verdict = is_symmetric(alg, hint=natural_form(alg), structure=structure)
    assert (verdict.status, verdict.method, verdict.witness) == (
        "not_symmetric", "socle_criterion", None)
    assert verdict.certificate == {
        "socle_criterion": {"top_dim": 1, "left_socle_dim": 3, "right_socle_dim": 3}}
    # the search the criterion replaced finds no witness among the 3^5
    # functionals either
    assert 3 ** endo._witness_space(alg).shape[0] == 243
    assert reference_verdict(alg, structure) == ("not_symmetric", True)


def example3_2_times_cyclic(k):
    """The generator file of example3_2 x C_k: example3_2's generators act
    on each of k copies of its 9 points, and the k-cycle moves the copies."""
    G = build_instance("example3_2").group
    n = G.degree
    gens = [Permutation(tuple(c * n + g.images[x] for c in range(k) for x in range(n)))
            for g in G.generators]
    gens.append(Permutation(tuple((c + 1) % k * n + x for c in range(k) for x in range(n))))
    return "\n".join([f"degree {n * k}"] + [g.cycle_string() for g in gens]) + "\n"


@pytest.mark.parametrize("k", [2, 4])
def test_example3_2_times_a_cyclic_group_fails_the_socle_criterion(k, tmp_path, capsys):
    # the algebra is A(example3_2) (x) F_3[C_k], and F_3[C_k] is semisimple
    # with top k, as 3 does not divide k; so J is J(A) (x) F_3[C_k], and the
    # radical dims, top and socle are k times [5, 4, 1, 0], 1 and 3
    path = tmp_path / "gens.txt"
    path.write_text(example3_2_times_cyclic(k))
    assert cli.main(["analyze", "--file", str(path), "--char", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[3].endswith(f"radical dims {[k * d for d in (5, 4, 1, 0)]}")
    assert lines[4] == (f"structure  : top {k}, socle (l/r) {3 * k}/{3 * k}, "
                        "local=False, commutative=True")
    assert lines[6] == "verdict    : not_symmetric (method socle_criterion)"
    if k == 2:
        # the reference search covers all 3^10 functionals and finds no
        # witness (at k = 4 it could only sample 3^20)
        config = configuration(build_instance(f"file:{path}"))
        alg = centralizer_algebra(config.cc, config.tensor, PrimeField(3))
        assert 3 ** endo._witness_space(alg).shape[0] == 59049
        assert reference_verdict(alg, structure_report(alg)) == ("not_symmetric", True)


@pytest.mark.parametrize("spec,p", analysis_jobs())
def test_the_socle_criterion_matches_the_reference_search(spec, p):
    alg, _ = algebra_of(spec, p)
    structure = structure_report(alg)
    for seed in (0, 1):
        assert_the_criterion_matches_the_reference(alg, structure, seed)


def test_random_schur_rings_meet_the_socle_criterion_as_the_reference_search_decides():
    # the Schur rings of random_regular_holomorph are those of X's classes,
    # or of the classes {x, x^-1}, so they are commutative; each is taken at
    # every prime dividing |X|, where its radical may be non-zero.  A ring
    # met again (S_5 comes up often) is checked once
    rng = random.Random(11)
    outcomes, seen = set(), set()
    for _ in range(60):
        G, _ = random_regular_holomorph(rng)
        cc = two_orbits(G)
        tensor = intersection_tensor(cc)
        for p in (q for q in (2, 3, 5) if G.degree % q == 0):
            alg = centralizer_algebra(cc, tensor, PrimeField(p))
            if (p, alg.sc.tobytes()) not in seen:
                seen.add((p, alg.sc.tobytes()))
                outcomes.add(assert_the_criterion_matches_the_reference(
                    alg, structure_report(alg), seed=0))
    # both outcomes are met, each confirmed by the reference
    assert {(True, "symmetric"), (False, "not_symmetric")} <= outcomes


def test_alt7_pairs_symmetric_all_small_primes():
    for p in (2, 3, 5, 7):
        alg, _ = algebra_of("altpairs:7", p)
        verdict = is_symmetric(alg, hint=natural_form(alg))
        assert verdict.is_positive(), (p, verdict.status)
        if verdict.witness is not None:
            assert_valid_witness(alg, verdict)


def test_hint_short_circuit():
    alg, _ = algebra_of("altpairs:7", 3)
    verdict = is_symmetric(alg, hint=natural_form(alg))
    assert verdict.status == "symmetric_with_witness"
    assert verdict.method == "natural_form"
    assert_valid_witness(alg, verdict)


def test_sym4_char2_symmetric_with_witness():
    alg, _ = algebra_of("sym:4", 2)
    verdict = is_symmetric(alg, hint=natural_form(alg))
    assert verdict.status == "symmetric_with_witness"
    assert_valid_witness(alg, verdict)


def test_witness_search_without_hint():
    # degenerate natural form at p=5 but a witness exists elsewhere in the space
    alg, cc = algebra_of("altpairs:7", 5)
    verdict = is_symmetric(alg)
    assert verdict.status == "symmetric_with_witness"
    assert verdict.method == "search"
    assert_valid_witness(alg, verdict)


# the witnesses the sampled search below finds at seeds 0 and 1, pinned so
# that the order of the seeded draws cannot change unnoticed
SAMPLED_WITNESSES = {
    0: [62, 46, 37, 19, 22, 2, 5, 1, 12, 59, 47, 66, 36, 44, 70, 53, 46, 39, 40,
        68, 20, 59, 48, 0, 28, 62, 40, 2, 55, 53, 61, 12, 6, 63, 1, 39, 5],
    1: [34, 37, 55, 69, 2, 10, 60, 69, 18, 22, 63, 30, 19, 60, 18, 29, 46, 40, 6,
        2, 63, 55, 61, 39, 59, 24, 33, 57, 9, 22, 9, 33, 71, 9, 27, 29, 65],
}


@pytest.mark.parametrize("seed", sorted(SAMPLED_WITNESSES))
def test_witness_sampling_beyond_the_enumeration_cap(seed):
    # frobenius:73,2 at p = 73 is commutative and uniserial of dimension 37:
    # every functional vanishes on the commutators, and 73^37 candidates are
    # far beyond WITNESS_ENUM_CAP, so the search draws seeded samples
    alg, _ = algebra_of("frobenius:73,2", 73)
    assert 73 ** alg.dim > WITNESS_ENUM_CAP
    verdict = is_symmetric(alg, seed=seed)
    assert verdict.status == "symmetric_with_witness"
    assert verdict.method == "sampling"
    assert_valid_witness(alg, verdict)
    assert verdict.witness.dtype == np.int64
    assert verdict.witness.tolist() == SAMPLED_WITNESSES[seed]


def reference_witness_search(alg, W, candidates):
    """The witness search one candidate at a time: the first non-zero
    coefficient vector c whose functional c W has a full-rank Gram matrix,
    ranked on its own by the row loop."""
    p = alg.field.p
    for coeffs in candidates:
        if not any(coeffs):
            continue
        lam = np.asarray(coeffs, dtype=np.int64) @ W % p
        if rank_mod_p(alg.sc @ lam % p, p) == alg.dim:
            return lam
    return None


def verdict_fields(verdict):
    witness = None if verdict.witness is None else verdict.witness.tolist()
    return verdict.status, verdict.method, witness, verdict.certificate


@pytest.mark.parametrize("sampled", [False, True], ids=["enumerated", "sampled"])
@pytest.mark.parametrize("spec,p", analysis_jobs())
def test_witness_search_matches_the_one_candidate_loop(spec, p, sampled, monkeypatch):
    """The chunked search against the one-candidate loop.  A commutative
    algebra with zero radical takes the trace form and never reaches the
    search, so on those jobs both sides report the regular trace; the search
    is checked on them by the tests below."""
    alg, _ = algebra_of(spec, p)
    structure = structure_report(alg)
    if sampled:
        # every space with a non-zero functional is then sampled
        monkeypatch.setattr(endo, "WITNESS_ENUM_CAP", 1)
    for seed in (0, 1):
        verdict = is_symmetric(alg, structure=structure, seed=seed)
        with monkeypatch.context() as patch:
            patch.setattr(endo, "_first_witness", reference_witness_search)
            reference = is_symmetric(alg, structure=structure, seed=seed)
        assert verdict_fields(verdict) == verdict_fields(reference)
        assert not sampled or "search" not in verdict.method


# the witness run_analysis reports on two commutative semisimple algebras:
# the regular trace tau_i = tr L(b_i), which no seed moves
TRACE_WITNESSES = {
    ("frobenius:73,2", 2): [1] * 37,
    ("psl2cosets:32", 3): [1] + [2] * 15,
}


@pytest.mark.parametrize("spec,p", sorted(TRACE_WITNESSES))
def test_a_commutative_semisimple_verdict_reports_the_regular_trace(spec, p):
    for seed in (0, 1):
        verdict = run_analysis(spec, p, seed=seed).verdict
        assert (verdict.status, verdict.method) == ("symmetric_semisimple", "semisimple")
        assert verdict.witness.tolist() == TRACE_WITNESSES[spec, p]


@pytest.mark.parametrize("spec,p", commutative_semisimple_jobs())
def test_the_trace_form_and_the_search_both_witness_a_semisimple_algebra(spec, p, monkeypatch):
    """The search that the trace form replaced is kept as its reference: on
    every commutative semisimple algebra of the benchmark the trace form has
    a full-rank Gram matrix, and where the witness space fits
    WITNESS_ENUM_CAP the enumerated search finds a witness too."""
    alg, _ = algebra_of(spec, p)
    tau = np.trace(alg.sc, axis1=1, axis2=2) % p
    assert rank_mod_p(alg.sc @ tau % p, p) == alg.dim
    searches = spy(monkeypatch, endo, "_witness_space")
    verdict = is_symmetric(alg, structure=structure_report(alg))
    assert verdict.status == "symmetric_semisimple" and searches == []
    assert verdict.witness.tolist() == tau.tolist()
    W = endo._witness_space(alg)
    if p ** W.shape[0] <= WITNESS_ENUM_CAP:
        candidates = itertools.product(range(p), repeat=W.shape[0])
        assert reference_witness_search(alg, W, candidates) is not None
        candidates = itertools.product(range(p), repeat=W.shape[0])
        assert endo._first_witness(alg, W, candidates) is not None


@pytest.mark.parametrize("seed", [0, 1])
def test_a_false_zero_radical_is_refused_by_the_trace_form(seed):
    # example3_2 over F_3 is commutative with a radical of dimension 4; a
    # structure report claiming J = 0 must not earn it a semisimple verdict
    alg, _ = algebra_of("example3_2", 3)
    assert alg.commutative and radical_chain(alg).dims[1] == 4
    false_structure = endo.StructureReport(
        top_dim=5, left_socle_dim=5, right_socle_dim=5, is_local=False, commutative=True)
    with pytest.raises(VerificationError, match="trace form .* is degenerate"):
        is_symmetric(alg, structure=false_structure, seed=seed)


def test_a_false_zero_radical_is_refused_by_the_exhausted_search():
    # the upper-triangular 2x2 algebra over F_3 is not commutative, with J =
    # span{e12}; its witness space, the functionals on e11 and e22, has 9
    # members, so the search covers it, and a semisimple algebra would have a
    # witness there
    alg = upper_triangular_2x2(3)
    assert not alg.commutative and radical_chain(alg).dims == (3, 1, 0)
    assert 3 ** endo._witness_space(alg).shape[0] <= WITNESS_ENUM_CAP
    # a zero radical makes every socle the whole algebra, so the false
    # report passes the socle criterion and reaches the search
    false_structure = endo.StructureReport(
        top_dim=3, left_socle_dim=3, right_socle_dim=3, is_local=False, commutative=False)
    with pytest.raises(VerificationError, match="every semisimple algebra .* is symmetric"):
        is_symmetric(alg, structure=false_structure)


# altpairs:7 at p = 5 is commutative, with J != 0 and a degenerate natural
# form, so its verdict is reached by the witness search
def altpairs7_at_5():
    alg, _ = algebra_of("altpairs:7", 5)
    structure = structure_report(alg)
    assert alg.commutative and structure.top_dim < alg.dim
    assert not natural_form(alg).nondegenerate and meets_socle_criterion(structure)
    return alg, structure


def test_a_sampled_miss_on_a_commutative_algebra_is_symmetric_by_socle(monkeypatch):
    alg, structure = altpairs7_at_5()
    monkeypatch.setattr(endo, "WITNESS_ENUM_CAP", 1)
    monkeypatch.setattr(endo, "WITNESS_SAMPLES", 0)
    verdict = is_symmetric(alg, hint=natural_form(alg), structure=structure)
    assert (verdict.status, verdict.method, verdict.witness) == (
        "symmetric_by_socle", "socle_criterion", None)
    assert verdict.is_positive()
    top = structure.top_dim
    assert verdict.certificate == {
        "socle_criterion": {"top_dim": top, "left_socle_dim": top, "right_socle_dim": top}}


def test_an_exhausted_miss_on_a_commutative_algebra_refutes_the_criterion(monkeypatch):
    alg, structure = altpairs7_at_5()
    assert 5 ** endo._witness_space(alg).shape[0] <= WITNESS_ENUM_CAP
    monkeypatch.setattr(endo, "_first_witness", lambda *args: None)
    with pytest.raises(VerificationError,
                       match="commutative algebra that meets the socle criterion"):
        is_symmetric(alg, structure=structure)


def test_verdict_deterministic():
    alg, cc = algebra_of("altpairs:7", 5)
    v1 = is_symmetric(alg, seed=0)
    v2 = is_symmetric(alg, seed=0)
    assert v1.status == v2.status and np.array_equal(v1.witness, v2.witness)


def loop_quotient_algebra(alg, ideal):
    """Reference for quotient_algebra: the constants and unit of the
    quotient, reducing modulo the rref rows of the ideal one pivot at a time."""
    p = alg.field.p
    pivots = [int(np.nonzero(row)[0][0]) for row in ideal]
    free = sorted(set(range(alg.dim)) - set(pivots))

    def reduce(v):
        v = v % p
        for i, pc in enumerate(pivots):
            v = (v - v[..., pc, None] * ideal[i]) % p
        return v[..., free]

    basis = np.eye(alg.dim, dtype=np.int64)[free]
    return reduce(alg.products(basis, basis)), reduce(alg.unit)


@pytest.mark.parametrize("spec,p", [
    ("altpairs:7", 3), ("signtwist:3", 2), ("signtwist:4", 5), ("signtwist:5", 7),
    ("example3_2", 3), ("frobenius:7,3", 7), ("sym:4", 2),
])
def test_quotient_algebra_matches_the_pivot_loop(spec, p):
    alg, _ = algebra_of(spec, p)
    radical = radical_chain(alg).radical
    assert 0 < radical.shape[0] < alg.dim
    quotient = quotient_algebra(alg, radical)
    sc, unit = loop_quotient_algebra(alg, radical)
    assert quotient.dim == alg.dim - radical.shape[0]
    assert np.array_equal(quotient.sc, sc)
    assert np.array_equal(quotient.unit, unit)


# ---------------------------------------------------------------------------
# Schur rings
# ---------------------------------------------------------------------------

def bfs_closure(gens, degree):
    """The breadth-first element list of the group the generators make, on
    image tuples: right multiplication by the generators in order, from the
    identity.  It was the package's element order of a regular subgroup."""
    elems = [tuple(range(degree))]
    seen = set(elems)
    for x in elems:
        for g in gens:
            y = tuple(g.images[i] for i in x)
            if y not in seen:
                seen.add(y)
                elems.append(y)
    return elems


def reference_schur_ring(elements, H):
    """The basic sets and integer constants of the Schur ring over the
    elements given as image tuples, by the route the package took before one
    transversal proved T regular: refuse a list that is not n elements with
    n distinct images of 0, check the Cayley table read off the images of 0
    row by row against the compositions, check that H normalizes the list,
    and count products over the H-conjugation orbits."""
    n = len(elements[0])
    img = np.array(elements, dtype=np.int64)
    if len(elements) != n or np.bincount(img[:, 0], minlength=n).max() != 1:
        raise InputError("subgroup is not regular on the domain")
    pos = np.empty(n, dtype=np.int64)
    pos[img[:, 0]] = np.arange(n)
    mult = pos[img[:, img[:, 0]].T]
    for a in range(n):
        if not np.array_equal(img[:, img[a]], img[mult[a]]):
            raise InputError("element list is not closed under products")
    conj_maps = []
    for h in H.generators:
        himg = np.array(h.images, dtype=np.int64)
        conj = himg[img[:, np.argsort(himg)]]
        cand = pos[conj[:, 0]]
        if not np.array_equal(img[cand], conj):
            raise InputError("H does not normalize the regular subgroup")
        conj_maps.append(Permutation(cand.tolist()))
    sets = sorted((sorted(o) for o in orbits(conj_maps, n)), key=lambda s: (len(s), s[0]))
    m = len(sets)
    set_of = np.empty(n, dtype=np.int64)
    for k, members in enumerate(sets):
        set_of[members] = k
    counts = np.zeros((m, m, n), dtype=np.int64)
    np.add.at(counts, (set_of[:, None], set_of[None, :], mult), 1)
    assert np.array_equal(counts, counts[:, :, [sets[k][0] for k in set_of]])
    return tuple(tuple(s) for s in sets), counts[:, :, [s[0] for s in sets]]


def basic_sums(basic_sets, names):
    return tuple("+".join(names[i] for i in s) for s in basic_sets)


def assert_schur_routes_agree(G, T, cc, tensor, alpha, point_names=None):
    """The ring and the basic-set sums of the transversal route equal those
    of the breadth-first list fed to the reference ring, at the point alpha."""
    H = G.point_stabilizer(alpha)
    elements = bfs_closure(T.generators, G.degree)
    basic_sets, sc = reference_schur_ring(elements, H)
    ring = schur_ring_from_action(T, H)
    assert [tuple(row) for row in ring.elements.tolist()] == elements
    assert ring.basic_sets == basic_sets
    assert np.array_equal(ring.sc, sc)
    if point_names is None:
        point_names = [str(x) for x in range(G.degree)]
    names = [point_names[t[alpha]] for t in elements]
    sums = schur_vs_centralizer(G, T, cc, tensor, alpha=alpha, point_names=point_names)
    assert sums == basic_sums(basic_sets, names)


def catalog_regular_specs():
    """example3_2 and every frobenius:q,d with q <= 113 and m <= 60."""
    specs = ["example3_2"]
    for q in range(3, 114):
        if all(q % k for k in range(2, q)):
            specs += [f"frobenius:{q},{d}" for d in range(2, q)
                      if (q - 1) % d == 0 and (q - 1) // d + 1 <= ALGEBRA_DIM_CAP]
    return specs


@pytest.mark.parametrize("spec", catalog_regular_specs())
def test_catalog_schur_rings_match_the_list_fed_reference(spec):
    inst = build_instance(spec)
    G = inst.group
    T = PermutationGroup(G.degree, inst.regular.gens)
    cc = two_orbits(G)
    tensor = intersection_tensor(cc)
    for alpha in sorted({0, G.degree // 2, G.degree - 1}):
        assert_schur_routes_agree(G, T, cc, tensor, alpha, inst.regular.point_names)


def random_regular_holomorph(rng):
    """The right-regular action R of the group X made by 1-3 random
    permutations of degree 2-5, on X's breadth-first element list, and the
    group G made by R, the left multiplications and, for an abelian X, the
    inversion.  R is regular and normal in G, and G_e acts on R by the inner
    automorphisms (and the inversion), so the Schur ring is that of X's
    conjugacy classes, or of the classes {x, x^-1}."""
    degree = rng.randint(2, 5)
    gens = []
    for _ in range(rng.randint(1, 3)):
        images = list(range(degree))
        rng.shuffle(images)
        gens.append(Permutation(images))
    elements = [Permutation(x) for x in bfs_closure(gens, degree)]
    index = {x: i for i, x in enumerate(elements)}
    right = [Permutation([index[x * g] for x in elements]) for g in gens]
    moves = right + [Permutation([index[g * x] for x in elements]) for g in gens]
    if all(g * h == h * g for g in gens for h in gens):
        moves.append(Permutation([index[Permutation(np.argsort(x.images))] for x in elements]))
    n = len(elements)
    return PermutationGroup(n, moves), PermutationGroup(n, right)


def test_random_schur_rings_match_the_list_fed_reference():
    # 200 regular groups, abelian and not, at the point 0 and a random point;
    # an order of at most 120 keeps the reference's Cayley-table loop small
    rng = random.Random(7)
    orders = set()
    for _ in range(200):
        G, T = random_regular_holomorph(rng)
        orders.add(G.degree)
        cc = two_orbits(G)
        tensor = intersection_tensor(cc)
        for alpha in (0, rng.randrange(G.degree)):
            assert_schur_routes_agree(G, T, cc, tensor, alpha)
    assert {6, 8, 24, 120} <= orders


@pytest.mark.parametrize("spec", ["frobenius:73,2", "example3_2"])
def test_regular_enumeration_order_matches_reference(spec):
    # rows of a transversal of a regular T list T in the breadth-first order,
    # at every base point
    inst = build_instance(spec)
    T = PermutationGroup(inst.group.degree, inst.regular.gens)
    reference = bfs_closure(inst.regular.gens, inst.group.degree)
    for alpha in range(T.degree):
        assert [tuple(row) for row in T.transversal(alpha)[1].tolist()] == reference


def test_regular_enumeration_order_for_shear_group():
    inst = build_instance("example3_2")
    ring = schur_ring_from_action(PermutationGroup(9, inst.regular.gens), PermutationGroup(9, []))
    names = [inst.regular.point_names[x] for x in ring.elements[:, 0].tolist()]
    assert names == ["1", "a", "b", "a2", "ab", "b2", "a2b", "ab2", "a2b2"]


def test_schur_ring_z7_multipliers():
    # T = Z_7, H generated by x -> 2x (order-3 multiplier): orbits {0},{1,2,4},{3,5,6}
    T = PermutationGroup(7, [parse_permutation("(1 2 3 4 5 6 7)", 7)])
    H = PermutationGroup(7, [parse_permutation("(2 3 5)(4 7 6)", 7)])
    ring = schur_ring_from_action(T, H)
    assert [sorted(s) for s in ring.basic_sets] == [[0], [1, 2, 4], [3, 5, 6]]


def test_schur_ring_trivial_h_gives_singletons():
    T = PermutationGroup(5, [parse_permutation("(1 2 3 4 5)", 5)])
    ring = schur_ring_from_action(T, PermutationGroup(5, []))
    assert all(len(s) == 1 for s in ring.basic_sets)
    assert len(ring.basic_sets) == 5


def test_schur_ring_shear_basic_sums():
    inst = build_instance("example3_2")
    H = inst.group.point_stabilizer(0)
    ring = schur_ring_from_action(PermutationGroup(9, inst.regular.gens), H)
    names = [inst.regular.point_names[x] for x in ring.elements[:, 0].tolist()]
    assert basic_sums(ring.basic_sets, names) == ("1", "a", "a2", "b+ab+a2b", "b2+ab2+a2b2")


def schur_check(G, T, **kwargs):
    cc = two_orbits(G)
    return schur_vs_centralizer(G, T, cc, intersection_tensor(cc), **kwargs)


def test_schur_ring_rejects_a_subgroup_that_is_not_regular():
    # S_3 on 3 points is transitive but has order 6
    S3 = build_instance("sym:3").group
    with pytest.raises(InputError, match="subgroup is not regular on the domain"):
        schur_ring_from_action(S3, PermutationGroup(3, []))


def test_schur_ring_rejects_h_that_does_not_normalize():
    T = PermutationGroup(4, [parse_permutation("(1 2 3 4)", 4)])
    H = PermutationGroup(4, [parse_permutation("(1 2)", 4)])
    with pytest.raises(InputError, match="does not normalize"):
        schur_ring_from_action(T, H)


@pytest.mark.parametrize("partition,message", [
    ([[0, 1], [2], [3], [4], [5], [6]], "identity is not a singleton basic set"),
    ([[0], [1, 2], [3, 5], [4, 6]], "basic sets are not closed under inversion"),
])
def test_schur_ring_checks_the_basic_set_axioms(monkeypatch, partition, message):
    # conjugation orbits always pass both axioms, so a partition is injected;
    # element i of the list is the translation by i, with inverse 7 - i
    T = PermutationGroup(7, [parse_permutation("(1 2 3 4 5 6 7)", 7)])
    monkeypatch.setattr(endo, "orbits", lambda gens, n: partition)
    with pytest.raises(VerificationError, match=message):
        schur_ring_from_action(T, PermutationGroup(7, []))


def test_schur_vs_centralizer_cases():
    inst = build_instance("example3_2")
    T = PermutationGroup(9, inst.regular.gens)
    assert len(schur_check(inst.group, T)) == 5
    sums = schur_check(inst.group, T, point_names=inst.regular.point_names)
    assert list(sums) == ["1", "a", "a2", "b+ab+a2b", "b2+ab2+a2b2"]

    instf = build_instance("frobenius:7,3")
    Tf = PermutationGroup(7, instf.regular.gens)
    assert len(schur_check(instf.group, Tf)) == 3

    Cn = regular_cn(6)
    assert len(schur_check(Cn, Cn)) == 6


def test_schur_vs_centralizer_rejects_non_normal():
    # no sift of T's conjugates through T's own chain: T <= G is regular, so
    # G = T G_0, and the ring's check that G_0 normalizes T refuses a T that
    # is not normal in G
    G = build_instance("sym:4").group
    T = PermutationGroup(4, [parse_permutation("(1 2 3 4)", 4)])  # not normal in S_4
    with pytest.raises(InputError, match="does not normalize"):
        schur_check(G, T)


def test_schur_vs_centralizer_refuses_a_t_that_is_not_regular_before_listing_it(monkeypatch):
    # psl2cosets:32's group as its own T is transitive of order 32736 on 496
    # points; a Schreier generator of T_0 other than the identity refuses it,
    # and no element list of more than n + 1 entries is built
    sizes = []

    def recording(fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            sizes.append(len(out[1] if isinstance(out, tuple) else out))
            return out
        return wrapped

    monkeypatch.setattr(PermutationGroup, "transversal", recording(PermutationGroup.transversal))
    monkeypatch.setattr(PermutationGroup, "elements", recording(PermutationGroup.elements))
    monkeypatch.setattr(StabilizerChain, "elements", recording(StabilizerChain.elements))
    # the recorder sees the transversal of G_0 and then T's n rows, which
    # are the elements of a regular T
    inst = build_instance("frobenius:7,3")
    schur_vs_centralizer(inst.group, PermutationGroup(7, inst.regular.gens),
                         *configuration_of("frobenius:7,3"))
    assert sizes == [7, 7]
    sizes.clear()
    G = build_instance("psl2cosets:32").group
    cc, tensor = configuration_of("psl2cosets:32")
    with pytest.raises(InputError, match="subgroup is not regular on the domain"):
        schur_vs_centralizer(G, G, cc, tensor)
    assert max(sizes, default=0) <= G.degree + 1


@pytest.mark.parametrize("gens", [["(1 2 3 4)(5 6 7)"], ["(1 2 3 4 5 6 7)", "(2 3 5)(4 7 6)"]],
                         ids=["intransitive", "transitive-of-order-21"])
def test_schur_vs_centralizer_refuses_a_t_that_is_not_regular(gens):
    G = build_instance("sym:7").group
    T = PermutationGroup(7, [parse_permutation(g, 7) for g in gens])
    with pytest.raises(InputError, match="subgroup is not regular on the domain"):
        schur_check(G, T)


def test_schur_vs_centralizer_refuses_a_point_off_the_domain():
    inst = build_instance("frobenius:7,3")
    T = PermutationGroup(7, inst.regular.gens)
    for alpha in (7, -1):
        with pytest.raises(InputError, match=rf"point {alpha} is outside 0\.\.6"):
            schur_check(inst.group, T, alpha=alpha)


@pytest.mark.parametrize("group_spec,config_spec", [
    ("frobenius:7,3", "frobenius:7,6"),  # two orbitals of the group fused
    ("frobenius:7,6", "frobenius:7,3"),  # an orbital of the group split
])
def test_schur_check_refuses_the_orbitals_of_another_group(group_spec, config_spec):
    inst = build_instance(group_spec)
    T = PermutationGroup(7, inst.regular.gens)
    with pytest.raises(VerificationError, match="orbital 1 does not map to a basic set"):
        schur_vs_centralizer(inst.group, T, *configuration_of(config_spec))


def test_schur_check_refuses_an_orbital_across_two_basic_sets():
    # the basic sets of frobenius:7,3 are {0}, {1, 2, 4} and {3, 5, 6}; an
    # orbital {1, 2, 3} has the size of a basic set but is none
    inst = build_instance("frobenius:7,3")
    cc, tensor = configuration_of("frobenius:7,3")
    table = cc.orbital_of.copy()
    table[0] = [0, 1, 1, 1, 2, 2, 2]
    T = PermutationGroup(7, inst.regular.gens)
    with pytest.raises(VerificationError, match="orbital 1 does not map to a basic set"):
        schur_vs_centralizer(inst.group, T, dataclasses.replace(cc, orbital_of=table), tensor)


def test_schur_check_refuses_a_corrupted_valency():
    inst = build_instance("frobenius:7,3")
    cc, tensor = configuration_of("frobenius:7,3")
    valency = cc.valency.copy()
    valency[1] += 1
    corrupted = dataclasses.replace(cc, valency=valency)
    T = PermutationGroup(7, inst.regular.gens)
    with pytest.raises(VerificationError,
                       match="valency 4 of orbital 1 differs from set size 3"):
        schur_vs_centralizer(inst.group, T, corrupted, tensor)


def test_schur_check_catches_a_corrupted_schur_constant(monkeypatch):
    # schur_vs_centralizer builds its ring without an associativity proof;
    # its entry-by-entry comparison with the integer constants still sees a
    # bad constant, here one off by 3, which a comparison mod 3 would miss
    build = endo.schur_ring_from_action

    def corrupted(*args, **kwargs):
        ring = build(*args, **kwargs)
        sc = ring.sc.copy()
        sc[1, 1, 0] += 3
        return dataclasses.replace(ring, sc=sc)

    monkeypatch.setattr(endo, "schur_ring_from_action", corrupted)
    inst = build_instance("example3_2")
    with pytest.raises(VerificationError,
                       match="Schur ring correspondence failed: structure constants differ"):
        schur_check(inst.group, PermutationGroup(9, inst.regular.gens))


def schur_ring_of(spec):
    """The Schur ring of a catalog instance's regular normal subgroup, and the
    coordinates of its unit, the singleton {e}."""
    inst = build_instance(spec)
    T = PermutationGroup(inst.group.degree, inst.regular.gens)
    ring = schur_ring_from_action(T, inst.group.point_stabilizer(0))
    e = next(i for i, t in enumerate(ring.elements.tolist()) if t == sorted(t))
    unit = np.array([s == (e,) for s in ring.basic_sets], dtype=np.int64)
    return ring, unit


@pytest.mark.parametrize("spec", ["example3_2", "frobenius:7,3", "frobenius:5,2", "frobenius:73,2"])
def test_schur_ring_constants_pass_the_reference_proof(spec):
    # schur_ring_from_action runs no proof: T's Cayley table, read off a
    # transversal that proves T regular, makes the constants those of a
    # subring of Z[T].  The m^4 proof over Z agrees.
    ring, unit = schur_ring_of(spec)
    assert unit.sum() == 1
    verify_algebra(ring.sc, unit)


def test_no_schur_path_runs_an_associativity_proof():
    # the package holds no associativity proof to call: the Schur check
    # compares constants and the ring reads its own off T's Cayley table
    assert not [name for name in vars(endo) if "verify_algebra" in name]
    inst = build_instance("frobenius:7,3")
    cc, tensor = configuration_of("frobenius:7,3")
    T = PermutationGroup(7, inst.regular.gens)
    assert len(schur_vs_centralizer(inst.group, T, cc, tensor)) == 3


@pytest.mark.parametrize("spec", workload_groups())
def test_orbital_constants_pass_the_reference_proof(spec):
    verify_orbital_constants(*configuration_of(spec))


@pytest.mark.parametrize("spec", workload_groups())
def test_configurations_pass_the_reference_axiom_check(spec):
    # the configuration stage reads the axioms off its own checks instead
    report = verify_cc_axioms(*configuration_of(spec))
    assert report.passed, report.failures


@pytest.mark.parametrize("spec", ["frobenius:7,3", "psl2cosets:32"])
def test_integer_proof_catches_a_corrupted_tensor(spec):
    cc, tensor = configuration_of(spec)
    generators = build_instance(spec).group.generators
    assert adjacency_product_check(cc, tensor, generators) == (True, None)
    bad = tensor.copy()
    last = cc.m - 1  # a non-reflexive orbital
    bad[last, last, last] += 1
    # the per-prime stage builds the algebra without a proof of its own
    for p in (2, 3, 5):
        centralizer_algebra(cc, bad, PrimeField(p))
    # the adjacency identity, exhaustive at every degree, catches it with no
    # associativity proof, and so does the reference proof on its own
    assert adjacency_product_check(cc, bad, generators) == (
        False, f"product identity fails at (r={last}, s={last})"
    )
    verify_orbital_constants(cc, tensor)
    with pytest.raises(VerificationError, match="not associative"):
        verify_orbital_constants(cc, bad)


def break_associativity(tensor):
    last = len(tensor) - 1  # a non-reflexive entry: sc[last, last, last]
    tensor[last, last, last] += 1


def break_unit(tensor):
    last = len(tensor) - 1  # unit * b_last = 2 b_last: sc[0, last, last]
    tensor[last, 0, last] += 1


@pytest.mark.parametrize("spec", ["frobenius:7,3", "psl2cosets:32"])
@pytest.mark.parametrize("corrupt", [break_associativity, break_unit])
def test_configuration_refuses_constants_the_reference_rejects(spec, corrupt, monkeypatch):
    # the configuration stage runs no associativity proof; the checks it
    # does run refuse a tensor that breaks associativity or the unit
    cc, tensor = configuration_of(spec)
    generators = build_instance(spec).group.generators
    bad = tensor.copy()
    corrupt(bad)
    with pytest.raises(VerificationError):
        verify_orbital_constants(cc, bad)
    passed, detail = adjacency_product_check(cc, bad, generators)
    assert not passed and detail.startswith("product identity fails")

    def corrupted(cc):
        out = intersection_tensor(cc)
        corrupt(out)
        return out

    monkeypatch.setattr(analysis, "intersection_tensor", corrupted)
    inst = dataclasses.replace(build_instance(spec))
    with pytest.raises(VerificationError):
        configuration(inst)
    assert inst.configuration is None


def test_standalone_proof_near_the_characteristic_bound_catches_a_corrupted_constant():
    p = 268435399  # largest prime below 2^28
    cc, tensor = configuration_of("frobenius:7,3")
    bad = tensor.copy()
    last = cc.m - 1
    bad[last, last, last] -= 1  # p - 1 after reduction, so the proof runs in int64
    assert cc.m * (p - 1) ** 2 >= 1 << 53
    alg = centralizer_algebra(cc, tensor, PrimeField(p))
    verify_algebra(alg.sc, alg.unit, p)
    alg = centralizer_algebra(cc, bad, PrimeField(p))
    with pytest.raises(VerificationError, match="not associative"):
        verify_algebra(alg.sc, alg.unit, p)


# ---------------------------------------------------------------------------
# nilpotent-free and double-coset checks
# ---------------------------------------------------------------------------

def nilpotent_free_by_enumeration(alg):
    """Reference: no nonzero element x has x^(p^e) = 0, with p^e >= dim,
    searched over every element."""
    p, m = alg.field.p, alg.dim
    q = p ** endo._frobenius_exponent(p, m)
    for coeffs in itertools.product(range(p), repeat=m):
        if any(coeffs) and not alg.power(np.array(coeffs, dtype=np.int64), q).any():
            return False
    return True


def test_nilpotent_free():
    # sym:4 at p = 2 is k[X]/(X^2)
    for spec, p, expected in (("frobenius:7,3", 5, True), ("example3_2", 3, False),
                              ("sym:4", 2, False)):
        alg, _ = algebra_of(spec, p)
        assert nilpotent_free_check(alg) is nilpotent_free_by_enumeration(alg) is expected


@pytest.mark.parametrize("p,dims,expected", [(53, (27, 26, 25), False), (2, (27, 0), True)])
def test_nilpotent_free_frobenius_branch(p, dims, expected):
    # dimension 27 puts p^dim far beyond any enumeration; the iterated
    # Frobenius kernel decides, agreeing with the radical chain
    alg, _ = algebra_of("frobenius:53,2", p)
    assert alg.dim == 27
    assert radical_chain(alg).dims[:len(dims)] == dims
    assert nilpotent_free_check(alg) is expected


def power_by_multiply(alg, x, e):
    """x^e by square-and-multiply through one multiply call per product."""
    r = alg.unit.copy()
    b = x % alg.field.p
    while e:
        if e & 1:
            r = alg.multiply(r, b)
        b = alg.multiply(b, b)
        e >>= 1
    return r


@pytest.mark.parametrize("p", [73, 268435399])
def test_iterated_frobenius_matches_per_column_power(p):
    alg, _ = algebra_of("frobenius:73,2", p)
    m = alg.dim
    eye = np.eye(m, dtype=np.int64)
    frob = np.stack([power_by_multiply(alg, eye[j], p) for j in range(m)], axis=1)
    expected = eye
    for _ in range(endo._frobenius_exponent(p, m)):
        expected = frob @ expected % p
    assert np.array_equal(endo._iterated_frobenius(alg, np.zeros((0, m), dtype=np.int64)), expected)
    xs = np.random.default_rng(p).integers(0, p, size=(3, m))
    xs[0] = p - 1
    for e in (0, 1, 5, p):
        batch = alg.power(xs, e)
        assert batch.shape == xs.shape
        for x, row in zip(xs, batch):
            assert np.array_equal(row, power_by_multiply(alg, x, e))
            assert np.array_equal(alg.power(x, e), row)


def change_of_basis(alg, P):
    """The constants and unit of alg on the basis c_i = sum_k P[i, k] b_k, P
    invertible mod p, in Python integers: c_i c_j = sum P[i, k] P[j, l]
    sc[k, l, t] b_t, and b_t = sum_s Q[t, s] c_s for Q = P^-1."""
    p, m = alg.field.p, alg.dim
    rref, rank = rref_mod_p(np.hstack([P, np.eye(m, dtype=np.int64)]), p)
    assert rank == m and np.array_equal(rref[:, :m], np.eye(m))
    P, Q = P.astype(object), rref[:, m:].astype(object)
    sc = np.tensordot(alg.sc.astype(object), Q, axes=(2, 0))  # [k, l, s]
    sc = np.tensordot(P, sc, axes=(1, 0))  # [i, l, s]
    sc = np.tensordot(P, sc, axes=(1, 1)).transpose(1, 0, 2)  # [j, i, s] to [i, j, s]
    return (sc % p).astype(np.int64), (alg.unit.astype(object) @ Q % p).astype(np.int64)


def test_batched_power_matches_multiply_with_constants_near_the_bound():
    """F_p[S3] on a random basis, p the largest prime below 2^28: its
    constants spread over [0, p), and it stays associative with a unit, so
    x^e is defined.  Constants drawn at random would not be associative, and
    x^e would then depend on how the products are grouped."""
    p = 268435399
    rng = np.random.default_rng(3)
    s3 = regular_s3(p)
    m = s3.dim
    alg = proven_algebra(p, *change_of_basis(s3, rng.integers(0, p, size=(m, m))))
    assert alg.sc.min() < p // 100 and alg.sc.max() > p - p // 100
    assert not np.array_equal(alg.unit, np.eye(m, dtype=np.int64)[0])  # e_0 is not the unit
    xs = rng.integers(0, p, size=(4, m))
    xs[0] = p - 1
    for e in (0, 1, 2, 3, 7, 73):
        batch = alg.power(xs, e)
        for x, row in zip(xs, batch):
            assert np.array_equal(row, power_by_multiply(alg, x, e)), e


@pytest.mark.parametrize("e", [0, 1, 2, 3, 7, 8, 73, 268435399])
def test_power_forms_no_product_it_throws_away(e, monkeypatch):
    """Square-and-multiply from e's lowest set bit, with no square after its
    highest: e.bit_length() - 1 squares and popcount(e) - 1 other products,
    each two exact products; 8 products for e = 73, where starting from the
    unit took 10."""
    alg = regular_s3(7)
    calls = spy(monkeypatch, _kernels, "_contract")
    alg.power(np.eye(alg.dim, dtype=np.int64), e)
    products = e.bit_length() - 1 + bin(e).count("1") - 1 if e else 0
    assert len(calls) == 2 * products


def upper_triangular_2x2(p):
    # basis e11, e22, e12
    sc = np.zeros((3, 3, 3), dtype=np.int64)
    sc[0, 0, 0] = sc[1, 1, 1] = 1
    sc[0, 2, 2] = sc[2, 1, 2] = 1
    return proven_algebra(p, sc, np.array([1, 1, 0]))


def test_nilpotent_free_requires_commutative():
    alg = upper_triangular_2x2(2)
    assert not alg.commutative
    with pytest.raises(InputError):
        nilpotent_free_check(alg)


def test_noncommutative_radical_and_socles():
    # radical is the span of e12; left and right socles differ as spaces but
    # both have dimension 2
    alg = upper_triangular_2x2(3)
    series = radical_chain(alg)
    assert series.dims == (3, 1, 0)
    st = structure_report(alg, series)
    assert st.top_dim == 2 and not st.is_local and not st.commutative
    assert st.left_socle_dim == 2 and st.right_socle_dim == 2


def test_noncommutative_not_symmetric_by_exhausted_search():
    # triangular matrix algebras are not self-injective; every functional
    # vanishing on the commutator e12 has a zero Gram row there
    alg = upper_triangular_2x2(2)
    verdict = is_symmetric(alg)
    assert verdict.status == "not_symmetric"
    assert verdict.certificate["exhausted_search"]["search_space"] == 4


def triangular_times_local(p):
    """T_2 x F_p[x, y]/(x, y)^2: the upper-triangular 2x2 matrices (basis
    e11, e22, e12) times a local algebra (basis 1', x, y) whose radical
    span{x, y} squares to 0."""
    sc = np.zeros((6, 6, 6), dtype=np.int64)
    sc[:3, :3, :3] = upper_triangular_2x2(p).sc
    sc[3, 3, 3] = sc[3, 4, 4] = sc[4, 3, 4] = sc[3, 5, 5] = sc[5, 3, 5] = 1
    return proven_algebra(p, sc, np.array([1, 1, 0, 1, 0, 0]))


def test_noncommutative_not_symmetric_by_the_socle_criterion():
    # top 2 + 1 = 3; socles 2 + 2 = 4 on each side: T_2's socles have
    # dimension 2, and the local factor's socle is its radical span{x, y}
    alg = triangular_times_local(2)
    structure = structure_report(alg)
    assert not alg.commutative
    assert (structure.top_dim, structure.left_socle_dim, structure.right_socle_dim) == (3, 4, 4)
    verdict = is_symmetric(alg)
    assert (verdict.status, verdict.method) == ("not_symmetric", "socle_criterion")
    # the functionals vanishing on the commutator e12: 2^5 candidates, and
    # the reference search finds no witness among them
    assert 2 ** endo._witness_space(alg).shape[0] == 32
    assert reference_verdict(alg, structure) == ("not_symmetric", True)


def one_sided_socle_algebra(p, opposite):
    """[[k, k], [0, k[y]/(y^2)]] (basis e1, m, e2, y: e1 m = m = m e2, m y =
    0, e2 y = y e2 = y, y^2 = 0), or its opposite.  J = span{m, y} and the
    top has dimension 2.  Jx = 0 asks only that x has no e2 term, so the left
    socle is span{e1, m, y}, of dimension 3; xJ = 0 asks for no e1 and no e2
    term, so the right socle is span{m, y}, of dimension 2.  The opposite
    algebra swaps the two."""
    sc = np.zeros((4, 4, 4), dtype=np.int64)
    sc[0, 0, 0] = sc[0, 1, 1] = sc[1, 2, 1] = 1
    sc[2, 2, 2] = sc[2, 3, 3] = sc[3, 2, 3] = 1
    if opposite:
        sc = sc.transpose(1, 0, 2)
    return proven_algebra(p, sc, np.array([1, 0, 1, 0]))


@pytest.mark.parametrize("opposite", [False, True], ids=["left", "right"])
def test_a_socle_of_the_wrong_dimension_on_one_side_is_a_negative(opposite):
    alg = one_sided_socle_algebra(3, opposite)
    structure = structure_report(alg)
    socles = (2, 3) if opposite else (3, 2)
    assert (structure.top_dim, structure.left_socle_dim, structure.right_socle_dim) == (
        2, *socles)
    verdict = is_symmetric(alg)
    assert (verdict.status, verdict.method) == ("not_symmetric", "socle_criterion")
    assert reference_verdict(alg, structure) == ("not_symmetric", True)


def test_hecke_examples():
    assert hecke_check(build_instance("frobenius:7,3").group, 0) == 3
    assert hecke_check(build_instance("sym:3").group, 0) == 2
    assert hecke_check(regular_cn(3), 0) == 3


def reference_hecke_dim(G, alpha, p):
    """Dimension of span{e g e} by the element-by-element double-coset loop,
    on an element list of image tuples."""
    elements = bfs_closure(G.generators, G.degree)
    index = {g: i for i, g in enumerate(elements)}
    H = [h for h in elements if h[alpha] == alpha]
    scale = pow(len(H) * len(H), -1, p)
    visited = set()
    vectors = []
    for g in elements:
        if g in visited:
            continue
        counts = [0] * len(elements)
        for h1 in H:
            z = tuple(g[i] for i in h1)
            for h2 in H:
                counts[index[tuple(h2[i] for i in z)]] += 1
        visited.update(elements[i] for i, c in enumerate(counts) if c)
        vectors.append([c % p * scale % p for c in counts])
    return rank_mod_p(np.array(vectors, dtype=np.int64), p)


CROSSCHECK_SPECS = [
    "sym:5", "alt:5", "altpairs:7", "signtwist:3", "signtwist:4", "signtwist:5",
    "frobenius:7,3", "frobenius:7,6", "frobenius:5,2", "example3_2", "psl2line:4",
    "psl2line:8", "psl2cosets:8",
]


@pytest.mark.parametrize("spec", CROSSCHECK_SPECS)
def test_hecke_dims_match_double_coset_loop(spec):
    G = build_instance(spec).group
    stabilizer_order = G.order() // G.degree
    primes = [p for p in (2, 3, 5, 7) if stabilizer_order % p]
    assert primes
    count = hecke_check(G, 0)
    assert count == len(G.point_stabilizer(0).orbits())
    for p in primes:
        assert count == reference_hecke_dim(G, 0, p), p
        # the analysis reports this count without running the scan
        assert run_analysis(spec, p, oracle=True).checks["hecke"]["hecke_dim"] == count, p


def test_hecke_count_comes_from_the_double_coset_scan(monkeypatch):
    # with a trivial stabilizer every double coset is a single element, so the
    # scan finds |G| = 21 of them, not the 3 orbits of the real stabilizer
    G = build_instance("frobenius:7,3").group
    monkeypatch.setattr(G, "point_stabilizer", lambda alpha: PermutationGroup(G.degree))
    assert hecke_check(G, 0) == 21


def test_hecke_order_504_group():
    assert hecke_check(build_instance("psl2cosets:8").group, 0) == 4


def test_hecke_order_cap():
    G = build_instance("psl2line:32").group
    assert G.order() == 32736 > HECKE_ORDER_CAP
    with pytest.raises(InputError, match="group order 32736 exceeds cap 5000"):
        hecke_check(G, 0)
