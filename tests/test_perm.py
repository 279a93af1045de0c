import math
import random

import numpy as np
import pytest

from permsym import perm
from permsym.catalog import (
    PSL_LINE_FIELDS,
    _dihedral_generators,
    _dihedral_subgroup,
    _psl2_matrix_perm,
    build_instance,
)
from permsym.coherent import intersection_tensor, two_orbits
from permsym.errors import InputError, VerificationError
from permsym.exactlin import BinaryField
from permsym.perm import (
    ENUMERATION_ORDER_CAP,
    GroupChecks,
    Permutation,
    PermutationGroup,
    StabilizerChain,
    action_on_cosets,
    action_on_ksubsets,
    breadth_first,
    classify_action,
    group_theoretic_checks,
    minimal_block,
    orbits,
    parse_generator_text,
    parse_permutation,
)


def bfs_elements(gens, degree):
    """Independent closure oracle: breadth-first product enumeration."""
    elems = {Permutation.identity(degree).images}
    frontier = [Permutation.identity(degree)]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y.images not in elems:
                    elems.add(y.images)
                    nxt.append(y)
        frontier = nxt
    return elems


# Reference for the group layer's orders: Schreier-Sims on tuples, with base
# points in natural order, strong generators on the level of their first
# moved point, and the element list of transversal-product words.  A level's
# transversal grows in place: it keeps its orbit and words and appends the
# points that the generators now reach, when a sift reads the level and when
# a round of completion starts.

def tuple_mul(a, b):
    return tuple(b[i] for i in a)


def tuple_inv(a):
    inv = [0] * len(a)
    for i, j in enumerate(a):
        inv[j] = i
    return tuple(inv)


def tuple_elements(degree, gens):
    identity = tuple(range(degree))
    # [base, gens, orbit, transversal, processed, stale, gens the orbit is closed under]
    levels = []

    def refresh(idx):
        lv = levels[idx]
        if not lv[5]:
            return
        sgens = [g for deeper in levels[idx:] for g in deeper[1]]
        orbit, transversal, known = lv[2], lv[3], lv[6]
        old = len(orbit)
        for k, b in enumerate(orbit):  # the orbit grows while it is walked
            for s in sgens:
                if (k >= old or s not in known) and s[b] not in transversal:
                    transversal[s[b]] = tuple_mul(transversal[b], s)
                    orbit.append(s[b])
        known.update(sgens)
        lv[5] = False

    def sift(h):
        for idx, lv in enumerate(levels):
            if h[lv[0]] != lv[0]:
                refresh(idx)
                if h[lv[0]] not in lv[3]:
                    return h
                h = tuple_mul(h, tuple_inv(lv[3][h[lv[0]]]))
        return h

    def add(g):
        r = sift(g)
        moved = [i for i in range(degree) if r[i] != i]
        if not moved:
            return False
        idx = 0
        while idx < len(levels) and levels[idx][0] < moved[0]:
            idx += 1
        if idx == len(levels) or levels[idx][0] > moved[0]:
            levels.insert(idx, [moved[0], [], [moved[0]], {moved[0]: identity}, set(), True, set()])
        if r in levels[idx][1]:
            return False
        levels[idx][1].append(r)
        for lv in levels[:idx + 1]:
            lv[5] = True
        return True

    def grow():
        for idx in range(len(levels)):
            refresh(idx)
        for idx in range(len(levels) - 1, -1, -1):
            lv = levels[idx]
            sgens = [g for deeper in levels[idx:] for g in deeper[1]]
            for b in list(lv[2]):
                for s in sgens:
                    if (b, s) not in lv[4]:
                        lv[4].add((b, s))
                        schreier = tuple_mul(tuple_mul(lv[3][b], s), tuple_inv(lv[3][s[b]]))
                        if add(schreier):
                            return True
        return False

    for g in gens:
        add(g)
    while grow():
        pass

    def words(idx):
        if idx == len(levels):
            yield identity
            return
        for h in words(idx + 1):
            for b in levels[idx][2]:
                yield tuple_mul(h, levels[idx][3][b])

    return list(words(0))


# ---------------------------------------------------------------------------
# parsing and rendering
# ---------------------------------------------------------------------------

def test_parse_three_cycle():
    p = parse_permutation("(1 2 3)", 3)
    assert p.images == (1, 2, 0)


def test_parse_identity():
    p = parse_permutation("()", 5)
    assert p.is_identity() and p.degree == 5


def test_parse_repeated_point():
    with pytest.raises(InputError, match="repeated point 2"):
        parse_permutation("(1 2)(2 3)", 3)


def test_parse_out_of_range_and_malformed():
    with pytest.raises(InputError, match="out of range"):
        parse_permutation("(1 4)", 3)
    with pytest.raises(InputError, match="position"):
        parse_permutation("(1 2", 3)
    with pytest.raises(InputError, match="position"):
        parse_permutation("1 2)", 3)


@pytest.mark.parametrize("seed", range(10))
def test_parse_render_round_trip(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 12)
    imgs = list(range(n))
    rng.shuffle(imgs)
    p = Permutation(imgs)
    assert parse_permutation(p.cycle_string(), n) == p


def test_generator_file_format():
    text = """degree 9
# translation generators of the 3x3 grid
(1 2 3)(4 5 6)(7 8 9)

(1 4 7)(2 5 8)(3 6 9)
"""
    degree, gens = parse_generator_text(text)
    assert degree == 9 and len(gens) == 2
    assert PermutationGroup(9, gens).order() == 9


def test_generator_file_errors():
    with pytest.raises(InputError, match="degree"):
        parse_generator_text("(1 2)\n")
    with pytest.raises(InputError, match="line 2"):
        parse_generator_text("degree 3\n(1 5)\n")


def test_generator_file_degree_cap():
    with pytest.raises(InputError, match=r"line 2: degree must be in 1\.\.1000, got 1001"):
        parse_generator_text("# header\ndegree 1001\n(1 2)\n")
    with pytest.raises(InputError, match="line 1: degree must be in"):
        parse_generator_text("degree 0\n")
    assert parse_generator_text("degree 1000\n(1 2)\n")[0] == 1000


def test_permutation_group_refuses_a_degree_above_the_cap():
    # no group above the cap exists, so two_orbits and the oracle check none
    assert PermutationGroup(1000, []).degree == 1000
    with pytest.raises(InputError, match="degree 1001 exceeds the pair-table cap 1000"):
        PermutationGroup(1001, [])


@pytest.mark.parametrize("build", [
    lambda: Permutation([0, 0, 1]),
    lambda: Permutation([0, 3]),
    lambda: PermutationGroup(3, [[1, 1, 0]]),
    lambda: Permutation([1, 0]) * Permutation([0, 2, 1]),
], ids=["repeated-image", "image-out-of-range", "group-from-raw-images", "product-degree-mismatch"])
def test_input_boundary_refuses_non_bijections(build):
    with pytest.raises(InputError):
        build()


# ---------------------------------------------------------------------------
# group order / membership
# ---------------------------------------------------------------------------

def test_order_s4():
    G = PermutationGroup(4, [parse_permutation("(1 2)", 4), parse_permutation("(1 2 3 4)", 4)])
    assert G.order() == 24


def test_order_a7():
    assert build_instance("alt:7").group.order() == 2520


def test_order_shear_group_against_bfs_oracle():
    G = build_instance("example3_2").group
    assert G.order() == len(bfs_elements(G.generators, 9)) == 27


def test_membership():
    A3 = build_instance("alt:3").group
    assert parse_permutation("(1 2)", 3) not in A3
    assert Permutation.identity(3) in A3
    C5 = PermutationGroup(5, [parse_permutation("(1 2 3 4 5)", 5)])
    # oracle: enumerate the five elements
    assert parse_permutation("(1 2 3)", 5).images not in bfs_elements(C5.generators, 5)
    assert not C5.contains(parse_permutation("(1 2 3)", 5))
    with pytest.raises(InputError):
        C5.contains(Permutation.identity(4))


def lehmer_ranks(xs):
    """The Lehmer rank of each row x of the (m, n) image array xs:
    sum over i of #{j > i : x[j] < x[i]} * (n - 1 - i)!, a bijection of the
    permutations of n points onto range(n!)."""
    xs = np.asarray(xs)
    n = xs.shape[1]
    ranks = np.zeros(len(xs), dtype=np.int64)
    for i in range(n - 1):
        ranks += (xs[:, i + 1:] < xs[:, i, None]).sum(axis=1) * math.factorial(n - 1 - i)
    return ranks


def closure_ranks(gens, degree):
    """Independent closure oracle on arrays: the sorted Lehmer ranks of the
    group generated by ``gens``, found by breadth-first products."""
    stack = np.array([g.images for g in gens], dtype=np.intp).reshape(-1, degree)
    frontier = np.arange(degree)[None]
    seen = np.zeros(math.factorial(degree), dtype=bool)
    seen[lehmer_ranks(frontier)] = True
    while len(frontier):
        # (x * g)[i] = g[x[i]], indexed [g, x, i]
        products = stack[np.arange(len(stack))[:, None, None], frontier[None]].reshape(-1, degree)
        ranks, first = np.unique(lehmer_ranks(products), return_index=True)
        new = ~seen[ranks]
        seen[ranks[new]] = True
        frontier = products[first[new]]
    return np.flatnonzero(seen)


def random_generators(seed):
    rng = random.Random(seed)
    n = rng.randrange(2, 10)
    return rng, n, [Permutation(rng.sample(range(n), n)) for _ in range(rng.randrange(1, 5))]


def assert_transversals(chain):
    """Each level's rows carry its base to its orbit, the inverse rows invert
    them, and the position map agrees with the orbit and is -1 off it."""
    identity = np.arange(chain.degree)
    for lv in chain.levels:
        assert lv.rows[:, lv.base].tolist() == list(lv.orbit)
        assert (np.take_along_axis(lv.rows, lv.inverse_rows, axis=1) == identity).all()
        position = np.full(chain.degree, -1)
        position[lv.orbit] = np.arange(len(lv.orbit))
        assert lv.position.tolist() == position.tolist()


@pytest.mark.parametrize("seed", range(40))
def test_chain_order_matches_bfs_oracle(seed):
    rng, n, gens = random_generators(seed)
    G = PermutationGroup(n, gens)
    oracle = closure_ranks(gens, n)
    assert G.order() == len(oracle)
    array = G.chain.elements()
    assert np.array_equal(np.sort(lehmer_ranks(array)), oracle)
    if G.order() <= ENUMERATION_ORDER_CAP:
        assert [e.images for e in G.elements()] == [tuple(row) for row in array.tolist()]
    assert_transversals(G.chain)
    if len(oracle) < math.factorial(n):
        # at least half of all permutations lie outside G
        members = set(oracle.tolist())
        outsider = next(x for x in (rng.sample(range(n), n) for _ in range(100))
                        if lehmer_ranks([x])[0] not in members)
        assert not G.contains(Permutation(outsider))


def record_transversal_growth(monkeypatch):
    """Wrap ``perm._transversal_rows``; the returned list gets the given
    orbit, rows and inverse rows and the result of every call."""
    calls = []
    real = perm._transversal_rows

    def record(images, stack, fresh, orbit, position, rows, inverse_rows):
        out = real(images, stack, fresh, orbit, position, rows, inverse_rows)
        calls.append((orbit, rows, inverse_rows, out))
        return out

    monkeypatch.setattr(perm, "_transversal_rows", record)
    return calls


def test_random_chains_grow_a_level_after_creating_it(monkeypatch):
    # the cases above include one whose level orbit grows from more than its
    # base, so the extension of an existing transversal runs
    calls = record_transversal_growth(monkeypatch)
    for seed in range(40):
        _, n, gens = random_generators(seed)
        PermutationGroup(n, gens).order()
    assert any(1 < len(orbit) < len(out[0]) for orbit, _, _, out in calls)


@pytest.mark.parametrize("spec", ["psl2line:8", "altpairs:7", "example3_2"])
def test_element_order_matches_tuple_reference(spec):
    G = build_instance(spec).group
    reference = tuple_elements(G.degree, [g.images for g in G.generators])
    array = G.chain.elements()
    assert array.dtype == np.int32 and array.shape == (G.order(), G.degree)
    assert [tuple(row) for row in array.tolist()] == reference
    assert [e.images for e in G.elements()] == reference


@pytest.mark.parametrize("q", [8, 32])
def test_dihedral_subgroup_generators_match_tuple_reference(q):
    # the built subgroup is the normalizer of <c>, c the permutation of the
    # matrix C, found in the tuple enumeration of G
    G = build_instance(f"psl2line:{q}").group
    elements = tuple_elements(G.degree, [g.images for g in G.generators])
    field = BinaryField(PSL_LINE_FIELDS[q])
    c = _psl2_matrix_perm(field, _dihedral_generators(field, q)[0]).images
    powers = set()
    power = tuple(range(G.degree))
    for _ in range(q + 1):
        powers.add(power)
        power = tuple_mul(power, c)
    assert len(powers) == q + 1
    normalizer = {g for g in elements if tuple_mul(tuple_mul(tuple_inv(g), c), g) in powers}
    assert {h.images for h in _dihedral_subgroup(q).elements()} == normalizer
    assert len(normalizer) == 2 * (q + 1)


# ---------------------------------------------------------------------------
# the order bound of derived actions
# ---------------------------------------------------------------------------

def chain_signature(chain, with_elements=True):
    """Everything a chain exposes: bases, strong generators, orbit order and
    transversal rows, and the element array, which the rows determine."""
    return (
        chain.base(),
        [[g.images for g in lv.gens] for lv in chain.levels],
        [list(lv.orbit) for lv in chain.levels],
        [(lv.rows.tobytes(), lv.inverse_rows.tobytes()) for lv in chain.levels],
        chain.elements().tobytes() if with_elements else None,
    )


@pytest.mark.parametrize("spec", [
    "altpairs:7", "signtwist:3", "signtwist:4", "signtwist:5", "psl2cosets:8", "psl2cosets:32",
])
def test_bounded_chain_is_the_full_chain(spec):
    G = build_instance(spec).group
    bounded = G.chain
    full = StabilizerChain.build(G.degree, G.generators)
    assert bounded.stopped_at_bound and not full.stopped_at_bound
    assert bounded.order() == full.order()
    # the element array of psl2cosets:32 is 32736 x 496; its rows are compared
    with_elements = G.degree < 100
    assert chain_signature(bounded, with_elements) == chain_signature(full, with_elements)


@pytest.mark.parametrize("spec,bounded", [
    ("psl2cosets:32", True), ("psl2line:32", False), ("altpairs:7", True),
])
def test_each_transversal_row_is_formed_once(spec, bounded, monkeypatch):
    G = build_instance(spec).group
    calls = record_transversal_growth(monkeypatch)
    chain = StabilizerChain.build(G.degree, G.generators, G.order() if bounded else None)
    assert chain.stopped_at_bound == bounded
    for orbit, rows, inverse_rows, (grown_orbit, _, grown_rows, grown_inverse) in calls:
        assert grown_orbit[:len(orbit)] == orbit
        assert np.array_equal(grown_rows[:len(rows)], rows)
        assert np.array_equal(grown_inverse[:len(rows)], inverse_rows)
    # a level starts from its base's identity row and forms every other row
    # once; rebuilding a stale level whole formed level 0's 496 rows of
    # psl2cosets:32 four times
    formed = sum(len(out[2]) - len(rows) for _, rows, _, out in calls)
    assert formed == sum(len(lv.orbit) - 1 for lv in chain.levels)
    assert_transversals(chain)


def test_bound_stops_psl2cosets_32_early():
    G = build_instance("psl2cosets:32").group
    full = StabilizerChain.build(G.degree, G.generators)
    assert G.chain.stopped_at_bound and G.order() == 32736
    assert 0 < G.chain.sifted < full.sifted


def test_unfaithful_coset_action_completes_in_full():
    # S4 on the cosets of D8: the kernel is the Klein four-group, so the image
    # is S3 of order 6 and never reaches the bound |S4| = 24
    S4 = build_instance("sym:4").group
    D8 = PermutationGroup(4, [parse_permutation(c, 4) for c in ("(1 2 3 4)", "(1 3)")])
    Q = action_on_cosets(S4, D8)
    assert Q.degree == 3 and Q.order() == 6
    assert not Q.chain.stopped_at_bound
    assert chain_signature(Q.chain) == chain_signature(StabilizerChain.build(3, Q.generators))


def test_bound_below_the_first_orbit_is_refused():
    gens = build_instance("sym:5").group.generators
    with pytest.raises(VerificationError, match="above the bound 4"):
        PermutationGroup(5, gens, order_bound=4).order()


# ---------------------------------------------------------------------------
# orbits and stabilizers
# ---------------------------------------------------------------------------

def test_orbits_examples():
    g = parse_permutation("(1 2 3)", 3)
    assert orbits([g], 3) == [[0, 1, 2]]
    h = parse_permutation("(1 2)", 3)
    assert orbits([h], 3) == [[0, 1], [2]]


def test_orbits_of_shear_stabilizer():
    G = build_instance("example3_2").group
    shear = G.generators[2]
    sizes = sorted(len(o) for o in orbits([shear], 9))
    assert sizes == [1, 1, 1, 3, 3]


def test_point_stabilizer_orders():
    S3 = build_instance("sym:3").group
    assert S3.point_stabilizer(0).order() == 2
    pairs = build_instance("altpairs:7").group
    for alpha in (0, 7, 20):
        assert pairs.point_stabilizer(alpha).order() == 120  # 2520 / 21
    C3 = PermutationGroup(3, [parse_permutation("(1 2 3)", 3)])
    assert not C3.point_stabilizer(0).generators


@pytest.mark.parametrize("point", [21, -1])
def test_a_point_off_the_domain_is_refused(point):
    # a negative point once indexed the image rows from the end, and a point
    # above the degree fell through the orbit search
    G = build_instance("altpairs:7").group
    for call in (G.orbit, G.point_stabilizer,
                 lambda alpha: group_theoretic_checks(G, alpha, 3)):
        with pytest.raises(InputError, match=rf"point {point} is outside 0\.\.20"):
            call(point)


def test_orbit_stabilizer_invariant_small_catalog():
    for spec in ("sym:5", "alt:5", "signtwist:3", "frobenius:7,3", "example3_2",
                 "psl2line:8", "psl2cosets:8"):
        G = build_instance(spec).group
        order = G.order()
        for alpha in range(G.degree):
            assert len(G.orbit(alpha)) * G.point_stabilizer(alpha).order() == order


def test_orbit_stabilizer_invariant_degree_496_spot():
    G = build_instance("psl2cosets:32").group
    order = G.order()
    for alpha in (0, 123, 495):
        assert len(G.orbit(alpha)) * G.point_stabilizer(alpha).order() == order


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def classify(G):
    cc = two_orbits(G)
    return classify_action(cc, intersection_tensor(cc))


def test_classify_alt7_on_pairs():
    cls = classify(build_instance("altpairs:7").group)
    assert cls.transitive and cls.rank == 3
    assert sorted(cls.subdegrees) == [1, 10, 10]
    assert cls.three_halves_transitive and cls.primitive


def test_classify_sign_twist_3():
    inst = build_instance("signtwist:3")
    cls = classify(inst.group)
    assert sorted(cls.subdegrees) == [1, 3, 6]
    assert not cls.three_halves_transitive
    assert cls.primitive and cls.faithful


def test_classify_shear_group():
    G = build_instance("example3_2").group
    cls = classify(G)
    assert sorted(cls.subdegrees) == [1, 1, 1, 3, 3]
    assert not cls.three_halves_transitive
    # oracle: exhaustive block search over all 3-subsets containing point 0
    from itertools import combinations

    elements = [g for g in G.elements()]
    blocks = []
    for rest in combinations(range(1, 9), 2):
        block = frozenset((0,) + rest)
        if all(frozenset(g.images[x] for x in block) in (block, frozenset())
               or not (frozenset(g.images[x] for x in block) & block)
               for g in elements):
            blocks.append(block)
    assert blocks, "shear group has a nontrivial block system"
    assert not cls.primitive


def test_classify_regular_and_intransitive():
    C3 = PermutationGroup(3, [parse_permutation("(1 2 3)", 3)])
    cls = classify(C3)
    assert cls.transitive and cls.half_transitive and not cls.three_halves_transitive
    assert cls.orbit_sizes == (3,) and cls.subdegrees == (1, 1, 1)
    assert cls.rank == 3
    # an intransitive action has no configuration to classify
    H = PermutationGroup(3, [parse_permutation("(1 2)", 3)])
    assert sorted(len(o) for o in H.orbits()) == [1, 2]
    with pytest.raises(InputError, match="analysis requires a transitive action"):
        classify(H)


def test_three_halves_flags_across_catalog():
    expected = {
        "altpairs:7": True,
        "psl2cosets:8": True,
        "frobenius:7,3": True,
        "frobenius:5,2": True,
        "sym:5": True,       # 2-transitive
        "psl2line:8": True,  # 2-transitive
        "example3_2": False,
        "signtwist:3": False,
        "signtwist:4": False,
        "signtwist:5": True,  # 2n = n(n-1)/2 exactly at n = 5
    }
    for spec, want in expected.items():
        assert classify(build_instance(spec).group).three_halves_transitive == want, spec


PRIMITIVITY_SPECS = [
    "sym:3", "sym:4", "sym:5", "alt:4", "alt:5", "alt:6", "altpairs:5", "altpairs:7",
    "signtwist:3", "signtwist:4", "signtwist:5", "frobenius:5,2", "frobenius:7,3",
    "frobenius:7,6", "frobenius:13,3", "frobenius:73,2", "example3_2", "psl2line:4",
    "psl2line:8", "psl2line:32", "psl2cosets:8", "psl2cosets:32",
]


def test_primitivity_matches_exhaustive_block_scan():
    groups = [build_instance(spec).group for spec in PRIMITIVITY_SPECS] + [
        PermutationGroup(6, [parse_permutation("(1 2 3 4 5 6)", 6)]),  # C6
        PermutationGroup(4, [parse_permutation(c, 4) for c in ("(1 2 3 4)", "(1 3)")]),  # D8
        PermutationGroup(6, [parse_permutation(c, 6)  # S2 wr S3, blocks {1,2},{3,4},{5,6}
                             for c in ("(1 2)", "(1 3)(2 4)", "(1 3 5)(2 4 6)")]),
        # C12 and D24 on 12 points, and C2 wr C4 on 8 points with blocks
        # {1,2},{3,4},{5,6},{7,8}: some orbital graph takes several steps
        # to show it is disconnected
        PermutationGroup(12, [parse_permutation("(1 2 3 4 5 6 7 8 9 10 11 12)", 12)]),
        PermutationGroup(12, [parse_permutation(c, 12) for c in
                              ("(1 2 3 4 5 6 7 8 9 10 11 12)", "(2 12)(3 11)(4 10)(5 9)(6 8)")]),
        PermutationGroup(8, [parse_permutation(c, 8) for c in ("(1 2)", "(1 3 5 7)(2 4 6 8)")]),
        PermutationGroup(13, [parse_permutation("(1 2 3 4 5 6 7 8 9 10 11 12 13)", 13)]),  # C13
    ]
    for G in groups:
        n = G.degree
        # reference: no block through point 0 other than the whole domain
        transitive = len(G.orbits()) == 1
        want = transitive and all(len(minimal_block(G, 0, b)) == n for b in range(1, n))
        assert classify(G).primitive == want, G
    assert [classify(G).primitive for G in groups[-7:]] == [False] * 6 + [True]
    # an intransitive group, imprimitive by the reference, is refused
    H = PermutationGroup(3, [parse_permutation("(1 2)", 3)])
    assert len(H.orbits()) == 2
    with pytest.raises(InputError, match="analysis requires a transitive action"):
        classify(H)


def test_minimal_block_prime_regular():
    C5 = PermutationGroup(5, [parse_permutation("(1 2 3 4 5)", 5)])
    assert len(minimal_block(C5, 0, 3)) == 5
    assert classify(C5).primitive


# ---------------------------------------------------------------------------
# derived actions
# ---------------------------------------------------------------------------

def test_ksubsets_degrees(monkeypatch):
    assert build_instance("altpairs:7").group.degree == 21
    S4 = build_instance("sym:4").group
    assert action_on_ksubsets(S4, 2).degree == 6
    S3 = build_instance("sym:3").group
    assert action_on_ksubsets(S3, 3).degree == 1
    monkeypatch.setattr(perm, "DEGREE_CAP", 3)
    with pytest.raises(InputError, match="induced degree 6 exceeds cap 3"):
        action_on_ksubsets(S4, 2)


@pytest.mark.parametrize("k", [-1, 5])
def test_ksubsets_refuse_a_size_off_0_to_the_degree(k):
    # math.comb once leaked a ValueError for k < 0
    with pytest.raises(InputError, match=rf"k must be in 0\.\.4, got {k}"):
        action_on_ksubsets(build_instance("sym:4").group, k)


def test_ksubsets_cap_is_checked_before_the_subsets_are_listed(monkeypatch):
    def refuse(*args):
        raise AssertionError("the k-subsets were listed")

    monkeypatch.setattr(perm, "combinations", refuse)
    # C(200, 3) = 1,313,400 subsets
    with pytest.raises(InputError, match="induced degree 1313400 exceeds cap 1000"):
        action_on_ksubsets(build_instance("sym:200").group, 3)


def test_coset_action_self_is_trivial():
    G = build_instance("sym:3").group
    Q = action_on_cosets(G, G)
    assert Q.degree == 1 and Q.order() == 1


def test_coset_action_on_the_trivial_subgroup_is_regular():
    # with no chain levels, H passes the gathered rows through unchanged
    G = build_instance("sym:3").group
    Q = action_on_cosets(G, PermutationGroup(3, []))
    assert Q.degree == 6 and Q.order() == 6
    assert classify(Q).subdegrees == (1,) * 6


def test_coset_count_above_the_cap_is_refused_while_enumerating(monkeypatch):
    # A_7 on the 2520 cosets of the trivial subgroup: refused at coset 1001
    with pytest.raises(InputError, match="coset index exceeds cap 1000"):
        action_on_cosets(build_instance("alt:7").group, PermutationGroup(7, []))
    # S_3 has 6 cosets of the trivial subgroup: a cap of 6 holds them, 5 not
    G = build_instance("sym:3").group
    monkeypatch.setattr(perm, "DEGREE_CAP", 6)
    assert action_on_cosets(G, PermutationGroup(3, [])).degree == 6
    monkeypatch.setattr(perm, "DEGREE_CAP", 5)
    with pytest.raises(InputError, match="coset index exceeds cap 5"):
        action_on_cosets(G, PermutationGroup(3, []))


def test_coset_action_not_subgroup():
    G = build_instance("alt:4").group
    H = PermutationGroup(4, [parse_permutation("(1 2)", 4)])
    with pytest.raises(InputError, match="subgroup"):
        action_on_cosets(G, H)


def test_coset_action_on_point_stabilizer_is_isomorphic():
    for spec in ("sym:4", "frobenius:7,3", "signtwist:3"):
        G = build_instance(spec).group
        H = G.point_stabilizer(0)
        Q = action_on_cosets(G, H)
        assert Q.degree == G.degree
        assert sorted(classify(Q).subdegrees) == sorted(classify(G).subdegrees)


# ---------------------------------------------------------------------------
# normalizer / conjugate intersection checks
# ---------------------------------------------------------------------------

def test_group_checks_psl28():
    G = build_instance("psl2cosets:8").group
    checks = group_theoretic_checks(G, 0, 3)
    assert checks.normalizer_in_stabilizer
    assert checks.max_conjugate_intersection == 2


def test_group_checks_frobenius_trivial_intersection():
    G = build_instance("frobenius:7,3").group
    checks = group_theoretic_checks(G, 0, 3)
    assert checks.max_conjugate_intersection == 1


def test_group_checks_alt7_pairs_normalizer():
    G = build_instance("altpairs:7").group
    checks = group_theoretic_checks(G, 0, 5)
    assert checks.normalizer_in_stabilizer


def test_group_checks_sylow_trivial_error():
    G = build_instance("frobenius:7,3").group
    with pytest.raises(InputError, match="Sylow"):
        group_theoretic_checks(G, 0, 5)  # 5 does not divide |H| = 3


@pytest.mark.parametrize("p", [0, 1, 4])
def test_group_checks_refuse_a_characteristic_that_is_not_prime(p):
    G = build_instance("frobenius:7,3").group
    with pytest.raises(InputError, match="not prime"):
        group_theoretic_checks(G, 0, p)


def test_group_checks_on_a_group_above_the_enumeration_cap():
    # altpairs:9 is A_9 on the 36 pairs, |G| = 9!/2 = 181440 > 100000.  The
    # stabilizer H of the pair {1, 2} is the even permutations of the set
    # stabilizer S_2 x S_7; each sigma in S_7 has one partner on {1, 2} that
    # makes it even, so H ~ S_7 and |H| = 5040 = 181440 / 36.  The H-orbits on
    # pairs are {1, 2}, the 14 pairs meeting {1, 2} in one point and the 21
    # inside {3..9}, so the maximum of |H meet H^x| is 5040 / 14 = 360.  Both
    # 14 and 21 are divisible by 7, so a Sylow 7-subgroup of H fixes only
    # {1, 2}.
    G = build_instance("altpairs:9").group
    assert G.order() > ENUMERATION_ORDER_CAP
    assert group_theoretic_checks(G, 0, 7) == GroupChecks(True, 360)


# Reference for the group checks: the whole-group enumeration that the
# orbit-length computation replaced, with the Sylow-subgroup search it used.

def inverse(x: Permutation) -> Permutation:
    return Permutation(tuple_inv(x.images))


def conjugate(z: Permutation, h: Permutation) -> Permutation:
    """h^-1 * z * h."""
    return inverse(h) * z * h


def nth_power(x: Permutation, e: int) -> Permutation:
    """x^e for e >= 0."""
    r = Permutation.identity(x.degree)
    for _ in range(e):
        r = r * x
    return r


def _sylow_subgroup(H_elements, p: int, degree: int):
    """A Sylow p-subgroup of the group given by its full element list, grown
    through normalizers (a proper p-subgroup has p | [N(P) : P])."""
    size = len(H_elements)
    target = 1
    while size % (target * p) == 0:
        target *= p
    gens = []
    identity = Permutation.identity(degree)
    P_elems, P_set = breadth_first(identity, gens, Permutation.__mul__)
    while len(P_elems) < target:
        progress = False
        for x in H_elements:
            if x in P_set:
                continue
            if any(conjugate(z, x) not in P_set for z in gens):
                continue
            # order of the coset xP in N(P)/P
            j = 1
            y = x
            while y not in P_set:
                y = y * x
                j += 1
            if j % p == 0:
                gens.append(nth_power(x, j // p))
                P_elems, P_set = breadth_first(identity, gens, Permutation.__mul__)
                progress = True
                break
        if not progress:
            raise VerificationError("Sylow subgroup construction stalled")
    return gens, P_set


def enumerated_group_checks(G: PermutationGroup, alpha: int, p: int,
                            cap: int = ENUMERATION_ORDER_CAP) -> GroupChecks:
    """With H the stabilizer of alpha and P a Sylow p-subgroup of H, decide
    whether the normalizer of P in G lies inside H, and compute the maximum of
    |H meet H^x| over x outside H.  Both by full element enumeration."""
    order = G.order()
    if order > cap:
        raise InputError(f"group order {order} exceeds enumeration cap {cap}")
    H = G.point_stabilizer(alpha)
    h_order = H.order()
    if h_order % p != 0:
        raise InputError("Sylow subgroup trivial: p does not divide the stabilizer order")
    H_elements = H.elements(cap=None)
    H_set = {h.images for h in H_elements}
    syl_gens, _p_set = _sylow_subgroup(H_elements, p, G.degree)
    G_elements = G.elements(cap=None)
    normalizer_inside = True
    for x in G_elements:
        if all(conjugate(z, x) in _p_set for z in syl_gens):
            if x.images not in H_set:
                normalizer_inside = False
                break
    max_intersection = 0
    for x in G_elements:
        if x.images in H_set:
            continue
        x_inv = inverse(x)
        count = 0
        for h in H_elements:
            if ((x_inv * h) * x).images in H_set:
                count += 1
        if count > max_intersection:
            max_intersection = count
    return GroupChecks(normalizer_inside, max_intersection)


# every (spec, p) with p in {2, 3, 5, 7} dividing |G_0| and |G| <= 3000, over
# the acceptance suite's catalog specs (psl2line:32, of order 32736, is out)
GROUP_CHECK_CASES = [
    ("sym:5", 2), ("sym:5", 3), ("alt:5", 2), ("alt:5", 3),
    ("altpairs:7", 2), ("altpairs:7", 3), ("altpairs:7", 5),
    ("signtwist:3", 2), ("signtwist:3", 3), ("signtwist:4", 2), ("signtwist:4", 3),
    ("signtwist:5", 2), ("signtwist:5", 3), ("signtwist:5", 5),
    ("frobenius:7,3", 3), ("frobenius:7,6", 2), ("frobenius:7,6", 3),
    ("frobenius:5,2", 2), ("example3_2", 3), ("psl2line:4", 2), ("psl2line:4", 3),
    ("psl2line:8", 2), ("psl2line:8", 7), ("psl2cosets:8", 2), ("psl2cosets:8", 3),
]


@pytest.mark.parametrize("spec,p", GROUP_CHECK_CASES)
def test_group_checks_match_enumeration(spec, p):
    G = build_instance(spec).group
    assert group_theoretic_checks(G, 0, p) == enumerated_group_checks(G, 0, p)


def _group(degree, *cycles):
    return PermutationGroup(degree, [parse_permutation(c, degree) for c in cycles])


@pytest.mark.parametrize("G,alpha,p,expected", [
    # S3 on {0, 1, 2} with point 3 fixed: P = <(1 2)> also fixes 3, and {3} is
    # an H-orbit of size 1, but 3 is outside the orbit of alpha
    (_group(4, "(1 2 3)", "(1 2)"), 0, 2, GroupChecks(True, 1)),
    # alpha is fixed by all of G, so H = G and no x lies outside H
    (_group(4, "(2 3 4)"), 0, 3, GroupChecks(True, 0)),
], ids=["s3-with-a-fixed-point", "alpha-fixed-by-G"])
def test_group_checks_restrict_to_the_orbit_of_alpha(G, alpha, p, expected):
    assert group_theoretic_checks(G, alpha, p) == expected
    assert enumerated_group_checks(G, alpha, p) == expected


def test_group_checks_at_another_base_point():
    G = build_instance("signtwist:4").group
    assert group_theoretic_checks(G, 5, 2) == enumerated_group_checks(G, 5, 2)
