import dataclasses
import math
import random

import numpy as np
import pytest

from permsym import coherent, perm
from permsym.catalog import build_instance
from permsym.coherent import (
    adjacency_product_check,
    intersection_tensor,
    two_orbits,
    verify_cc_axioms,
)
from permsym.endo import centralizer_oracle
from permsym.errors import InputError
from permsym.perm import Permutation, PermutationGroup, action_on_cosets, parse_permutation

CATALOG_SAMPLE = [
    "sym:5",
    "alt:5",
    "altpairs:7",
    "signtwist:3",
    "frobenius:7,3",
    "example3_2",
    "psl2line:8",
    "psl2cosets:8",
]


def adjacency_matrices(cc):
    """The 0/1 adjacency matrix of each orbital."""
    return [(cc.orbital_of == s).astype(np.int64) for s in range(cc.m)]


def transposed(cc):
    """The label of the transpose of each orbital's least pair."""
    return cc.orbital_of[cc.rep[:, 1], cc.rep[:, 0]]


def regular_c3():
    return PermutationGroup(3, [parse_permutation("(1 2 3)", 3)])


def test_two_transitive_has_two_orbitals():
    cc = two_orbits(build_instance("sym:3").group)
    assert cc.m == 2
    assert cc.valency.tolist() == [1, 2]


def test_regular_c3_has_three_singleton_orbitals():
    cc = two_orbits(regular_c3())
    assert cc.m == 3
    assert cc.valency.tolist() == [1, 1, 1]


def test_alt7_pairs_orbitals():
    cc = two_orbits(build_instance("altpairs:7").group)
    assert cc.m == 3
    assert sorted(cc.valency.tolist()) == [1, 10, 10]


def test_reflexive_structure_transitive():
    for spec in CATALOG_SAMPLE:
        cc = two_orbits(build_instance(spec).group)
        # orbital 0 is exactly the diagonal
        assert np.array_equal(cc.orbital_of == 0, np.eye(cc.n, dtype=bool))
        assert int(cc.valency.sum()) == cc.n
        # transposition is an involution fixing the diagonal orbital
        star = transposed(cc)
        assert np.array_equal(star[star], np.arange(cc.m))
        assert star[0] == 0


def test_degree_cap(monkeypatch):
    # two_orbits checks no cap of its own: PermutationGroup refuses a degree
    # above perm.DEGREE_CAP, so no such group reaches it
    monkeypatch.setattr(perm, "DEGREE_CAP", 3)
    with pytest.raises(InputError, match="degree 5 exceeds the pair-table cap 3"):
        two_orbits(PermutationGroup(5, build_instance("sym:5").group.generators))


def test_valencies_match_subdegrees():
    # the valencies are the orbit sizes of a point stabilizer
    for spec in CATALOG_SAMPLE:
        G = build_instance(spec).group
        cc = two_orbits(G)
        subdegrees = [len(o) for o in G.point_stabilizer(0).orbits()]
        assert sorted(cc.valency.tolist()) == sorted(subdegrees), spec


def test_tensor_diagonal_counts_sym_n():
    # for the natural S_n action: C[diag, s, s*] equals the valency n-1
    for n in (3, 4, 5):
        cc = two_orbits(build_instance(f"sym:{n}").group)
        C = intersection_tensor(cc)
        assert C[0, 1, transposed(cc)[1]] == n - 1


def test_tensor_regular_c3_is_group_table():
    cc = two_orbits(regular_c3())
    C = intersection_tensor(cc)
    # orbitals of a regular abelian group multiply like the group itself:
    # C[t, r, s] = 1 iff orbital r followed by s lands on t, else 0
    assert C.sum() == cc.m * cc.m
    for r in range(3):
        for s in range(3):
            assert C[:, r, s].sum() == 1


def test_tensor_row_sums_are_valencies():
    # summing over the middle-point split: sum_s C[t, r, s] = valency(r)
    for spec in CATALOG_SAMPLE:
        cc = two_orbits(build_instance(spec).group)
        C = intersection_tensor(cc)
        for t in range(cc.m):
            for r in range(cc.m):
                assert C[t, r, :].sum() == cc.valency[r]


def test_axioms_pass_on_catalog():
    for spec in CATALOG_SAMPLE:
        cc = two_orbits(build_instance(spec).group)
        C = intersection_tensor(cc)
        report = verify_cc_axioms(cc, C)
        assert report.passed, (spec, report.failures)


def test_axioms_fail_on_corrupted_table():
    cc = two_orbits(build_instance("altpairs:7").group)
    C = intersection_tensor(cc)
    table = cc.orbital_of.copy()
    table[0, 1] = (table[0, 1] + 1) % cc.m  # reassign one pair
    corrupted = dataclasses.replace(cc, orbital_of=table)
    report = verify_cc_axioms(corrupted, intersection_tensor(corrupted))
    assert not report.passed
    assert report.failures


def test_axioms_find_every_corrupted_transpose():
    cc = two_orbits(build_instance("psl2cosets:8").group)
    a, b = map(int, np.argwhere(cc.orbital_of == 1)[-1])  # last pair of orbital 1
    table = cc.orbital_of.copy()
    table[b, a] = (table[b, a] + 1) % cc.m
    corrupted = dataclasses.replace(cc, orbital_of=table)
    report = verify_cc_axioms(corrupted, intersection_tensor(corrupted))
    assert not report.passed
    assert any("transpose" in f for f in report.failures), report.failures


def test_adjacency_matrices_identities():
    for spec in ("sym:3", "example3_2", "psl2cosets:8"):
        cc = two_orbits(build_instance(spec).group)
        mats = adjacency_matrices(cc)
        total = sum(mats)
        assert np.array_equal(total, np.ones((cc.n, cc.n), dtype=np.int64))
        assert np.array_equal(mats[0], np.eye(cc.n, dtype=np.int64))
        for s in range(cc.m):
            assert np.array_equal(mats[s].T, mats[transposed(cc)[s]])


def test_sym3_offdiagonal_is_ones_minus_identity():
    cc = two_orbits(build_instance("sym:3").group)
    mats = adjacency_matrices(cc)
    assert np.array_equal(mats[1], np.ones((3, 3), dtype=np.int64) - np.eye(3, dtype=np.int64))


def test_adjacency_product_identity():
    for spec in CATALOG_SAMPLE + ["frobenius:73,2", "psl2cosets:32"]:
        G = build_instance(spec).group
        cc = two_orbits(G)
        C = intersection_tensor(cc)
        assert adjacency_product_check(cc, C, G.generators) == (True, None), spec


def test_adjacency_product_check_agrees_with_every_row():
    # the identity on every row, with no generators to carry one row to the
    # others, against one row per point orbit
    for spec in ("frobenius:7,3", "psl2cosets:8"):
        G = build_instance(spec).group
        cc = two_orbits(G)
        C = intersection_tensor(cc)
        assert adjacency_product_check(cc, C, []) == (True, None)
        bad = C.copy()
        bad[1, 1, 1] += 1
        assert adjacency_product_check(cc, bad, []) == adjacency_product_check(
            cc, bad, G.generators
        )


def test_adjacency_product_check_blocks_give_the_unblocked_result(monkeypatch):
    G = build_instance("psl2cosets:8").group
    cc = two_orbits(G)
    C = intersection_tensor(cc)
    bad = C.copy()
    bad[2, 3, 1] += 1
    whole = adjacency_product_check(cc, bad, G.generators)
    assert whole == (False, "product identity fails at (r=3, s=1)")
    # 5 columns of 4 * 4 cells per bincount: 28 columns in 6 blocks
    monkeypatch.setattr(coherent, "PRODUCT_BLOCK_CELLS", 5 * cc.m * cc.m)
    assert adjacency_product_check(cc, bad, G.generators) == whole
    assert adjacency_product_check(cc, C, G.generators) == (True, None)


@pytest.fixture(scope="module")
def psl2_32():
    G = build_instance("psl2cosets:32").group
    cc = two_orbits(G)
    return G, cc, intersection_tensor(cc)


def test_adjacency_product_check_catches_a_corrupted_tensor_at_degree_496(psl2_32):
    G, cc, C = psl2_32
    assert cc.n == 496
    last = cc.m - 1
    bad = C.copy()
    bad[last, 1, last] += 1
    assert adjacency_product_check(cc, bad, G.generators) == (
        False, f"product identity fails at (r=1, s={last})"
    )


def test_adjacency_product_check_catches_a_moved_label_at_degree_496(psl2_32):
    G, cc, C = psl2_32
    table = cc.orbital_of.copy()
    a, b = 200, 300
    table[a, b] = (table[a, b] + 1) % cc.m
    corrupted = dataclasses.replace(cc, orbital_of=table)
    passed, detail = adjacency_product_check(corrupted, C, G.generators)
    assert not passed
    assert "does not preserve the orbital of pair" in detail, detail


def first_failing_pair_by_matmul(cc, tensor):
    """Reference: the identity A_r A_s = sum_t C[t,r,s] A_t checked with one
    matrix product per (r, s), in r-major order."""
    mats = adjacency_matrices(cc)
    stack = np.stack(mats)
    for r in range(cc.m):
        for s in range(cc.m):
            rhs = np.einsum("t,tij->ij", tensor[:, r, s], stack)
            if not np.array_equal(mats[r] @ mats[s], rhs):
                return r, s
    return None


@pytest.mark.parametrize("spec", ["frobenius:7,3", "psl2cosets:8"])
def test_adjacency_product_check_finds_each_corrupted_entry(spec):
    G = build_instance(spec).group
    cc = two_orbits(G)
    C = intersection_tensor(cc)
    m = cc.m
    rng = np.random.default_rng(3)
    entries = [(0, 0, 0), (m - 1, m - 1, m - 1), (1, 0, 1)]
    entries += [tuple(int(v) for v in rng.integers(0, m, size=3)) for _ in range(6)]
    for t, r, s in entries:
        bad = C.copy()
        bad[t, r, s] += 1
        want = first_failing_pair_by_matmul(cc, bad)
        assert want == (r, s)  # one entry changes exactly one (r, s) identity
        assert adjacency_product_check(cc, bad, G.generators) == (
            False, f"product identity fails at (r={want[0]}, s={want[1]})"
        )
    # two corrupted entries: the first failing pair in r-major order is named
    bad = C.copy()
    bad[0, m - 1, 0] += 1
    bad[1, 1, m - 1] += 1
    want = first_failing_pair_by_matmul(cc, bad)
    assert want == (1, m - 1)
    assert adjacency_product_check(cc, bad, G.generators) == (
        False, f"product identity fails at (r={want[0]}, s={want[1]})"
    )


def test_adjacency_product_check_catches_an_invariant_but_incoherent_table():
    # fusing two orbitals gives labels that every generator preserves; the
    # fused table is no configuration, and the identity on row 0 says so
    G = build_instance("psl2cosets:8").group
    cc = two_orbits(G)
    table = np.where(cc.orbital_of == 3, 2, cc.orbital_of).astype(np.int32)
    fused = dataclasses.replace(cc, orbital_of=table)
    tensor = intersection_tensor(fused)
    want = first_failing_pair_by_matmul(fused, tensor)
    assert want is not None
    assert adjacency_product_check(fused, tensor, G.generators) == (
        False, f"product identity fails at (r={want[0]}, s={want[1]})"
    )


def test_triangle_identity_explicit():
    cc = two_orbits(build_instance("example3_2").group)
    C = intersection_tensor(cc)
    size = cc.valency * cc.n  # transitive: |s| = valency * n
    star = transposed(cc)
    for r in range(cc.m):
        for s in range(cc.m):
            for t in range(cc.m):
                a = size[t] * C[star[t], r, s]
                b = size[r] * C[star[r], s, t]
                c = size[s] * C[star[s], t, r]
                assert a == b == c


def test_trace_identity_links_form_to_trace():
    # n * C[refl, r, s] = trace(A_r A_s) for transitive groups
    for spec in ("sym:4", "frobenius:7,3", "example3_2"):
        cc = two_orbits(build_instance(spec).group)
        C = intersection_tensor(cc)
        mats = adjacency_matrices(cc)
        for r in range(cc.m):
            for s in range(cc.m):
                assert cc.n * C[0, r, s] == np.trace(mats[r] @ mats[s])


def test_intransitive_configuration():
    # two_orbits refuses an intransitive group; the union-find oracle still
    # partitions its pairs, into 5 orbits, 2 of them on the diagonal
    H = PermutationGroup(3, [parse_permutation("(1 2)", 3)])
    with pytest.raises(InputError, match="analysis requires a transitive action"):
        two_orbits(H)
    labels = centralizer_oracle(H)
    assert np.count_nonzero(labels.ravel() == np.arange(9)) == 5
    assert len(set(np.diag(labels).tolist())) == 2
    # the orbits of the pairs (0, c) have the lengths of the stabilizer orbits
    _, row0 = np.unique(labels[0], return_counts=True)
    stab = H.point_stabilizer(0)
    assert sorted(row0.tolist()) == sorted(len(o) for o in stab.orbits())


def test_trivial_group_of_degree_two_is_refused():
    # no chain levels, as at degree 1, but two orbits
    with pytest.raises(InputError, match="analysis requires a transitive action"):
        two_orbits(PermutationGroup(2, []))


# ---------------------------------------------------------------------------
# two_orbits against the label propagation and the union-find oracle
# ---------------------------------------------------------------------------

def pair_orbit_labels(gen_images: np.ndarray) -> np.ndarray:
    """Minimum pair index per orbit of the diagonal action on ordered pairs.

    Iterate min-label propagation along each generator's pair permutation
    (both directions) until a fixpoint.  Stability under the generator maps
    alone makes the labels constant on orbits (and equal to the orbit
    minimum); squared copies of the maps are propagated as well so that long
    single-generator cycles converge in logarithmic rounds rather than linear
    ones.
    """
    gen_images = np.asarray(gen_images, dtype=np.int64)
    k, n = gen_images.shape
    size = n * n
    labels = np.arange(size, dtype=np.int64)
    maps = []
    for g in gen_images:
        maps.append((g[:, None] * n + g[None, :]).reshape(size))
        inv = np.empty(n, dtype=np.int64)
        inv[g] = np.arange(n, dtype=np.int64)
        maps.append((inv[:, None] * n + inv[None, :]).reshape(size))
    accel = [mp.copy() for mp in maps]
    changed = True
    while changed:
        changed = False
        for mp in maps:
            new = np.minimum(labels, labels[mp])
            if not np.array_equal(new, labels):
                labels = new
                changed = True
        for i, mp in enumerate(accel):
            new = np.minimum(labels, labels[mp])
            if not np.array_equal(new, labels):
                labels = new
                changed = True
            accel[i] = mp[mp]
    return labels


def _random_perms(rng, k, n):
    out = []
    for _ in range(k):
        imgs = list(range(n))
        rng.shuffle(imgs)
        out.append(imgs)
    return np.array(out, dtype=np.int64)


def _assert_labels_are_orbit_minima(gens, n):
    labels = pair_orbit_labels(gens)
    # closure by explicit BFS
    size = n * n
    seen = [False] * size
    for start in range(size):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        qpos = 0
        while qpos < len(comp):
            e = comp[qpos]
            qpos += 1
            i, j = divmod(e, n)
            for g in gens:
                e2 = g[i] * n + g[j]
                if not seen[e2]:
                    seen[e2] = True
                    comp.append(e2)
        lo = min(comp)
        assert all(labels[e] == lo for e in comp)


@pytest.mark.parametrize("seed", range(5))
def test_pair_orbit_labels_paths_agree(seed):
    # the min-label propagation agrees with a breadth-first closure
    rng = random.Random(seed)
    n = rng.randrange(3, 25)
    _assert_labels_are_orbit_minima(_random_perms(rng, rng.randrange(1, 4), n), n)


def test_pair_orbit_labels_are_orbit_minima():
    rng = random.Random(7)
    _assert_labels_are_orbit_minima(_random_perms(rng, 2, 8), 8)


def test_pair_orbit_labels_without_generators():
    labels = pair_orbit_labels(np.zeros((0, 4), dtype=np.int64))
    assert np.array_equal(labels, np.arange(16))


def reference_two_orbits(G):
    """The configuration as two_orbits built it from pair_orbit_labels: the
    orbits of the generators on the pairs, sorted reflexive first, then by
    valency, then by least pair."""
    n = G.degree
    gen_images = np.array([g.images for g in G.generators], dtype=np.int64).reshape(-1, n)
    uniq, inverse = np.unique(pair_orbit_labels(gen_images), return_inverse=True)
    m = len(uniq)
    table = inverse.reshape(n, n)
    reps = np.stack([uniq // n, uniq % n], axis=1)
    valency = np.array([np.count_nonzero(table[reps[s, 0]] == s) for s in range(m)],
                       dtype=np.int64)
    reflexive = np.zeros(m, dtype=bool)
    reflexive[np.unique(np.diag(table))] = True
    order = sorted(range(m), key=lambda s: (not reflexive[s], int(valency[s]), int(uniq[s])))
    renumber = np.empty(m, dtype=np.int64)
    renumber[order] = np.arange(m)
    table = renumber[table].astype(np.int32)
    reps = reps[order]
    return {
        "n": n,
        "m": m,
        "orbital_of": table,
        "valency": valency[order],
        "rep": reps,
    }


def assert_matches_references(G, name):
    cc = two_orbits(G)
    want = reference_two_orbits(G)
    assert [f.name for f in dataclasses.fields(cc)] == list(want), name
    for key, value in want.items():
        got = getattr(cc, key)
        if isinstance(value, np.ndarray):
            assert got.dtype == value.dtype and np.array_equal(got, value), (name, key)
        else:
            assert got == value, (name, key)
    # the oracle labels each pair with the least pair of its orbit
    n = G.degree
    assert np.array_equal(centralizer_oracle(G), (cc.rep[:, 0] * n + cc.rep[:, 1])[cc.orbital_of]), name


WORKLOAD_SPECS = [
    "psl2cosets:32", "frobenius:73,2", "frobenius:53,2", "example3_2", "sym:5", "alt:5",
    "altpairs:7", "signtwist:3", "signtwist:4", "signtwist:5", "frobenius:7,3",
    "frobenius:7,6", "frobenius:5,2", "psl2line:4", "psl2line:8", "psl2line:32",
    "psl2cosets:8",
]


@pytest.mark.parametrize("spec", WORKLOAD_SPECS)
def test_two_orbits_matches_the_references_on_the_workload_specs(spec):
    assert_matches_references(build_instance(spec).group, spec)


@pytest.mark.parametrize("spec", ["psl2cosets:8", "psl2cosets:32", "altpairs:9", "signtwist:5"])
def test_two_orbits_matches_the_references_on_chains_stopped_at_the_bound(spec):
    G = build_instance(spec).group
    assert G.chain.stopped_at_bound
    assert_matches_references(G, spec)


def test_two_orbits_matches_the_references_on_degree_one_and_two(tmp_path):
    for text, table in (("degree 1\n", [[0]]), ("degree 2\n(1 2)\n", [[0, 1], [1, 0]])):
        path = tmp_path / f"{len(table)}.txt"
        path.write_text(text)
        G = build_instance(f"file:{path}").group
        assert two_orbits(G).orbital_of.tolist() == table
        assert_matches_references(G, text)


def relabelled(g: Permutation, relabel) -> Permutation:
    """g with each point x renamed relabel[x]: the conjugate r^-1 g r, r the
    permutation x -> relabel[x], which sends relabel[x] to relabel[g(x)]."""
    images = [0] * g.degree
    for x, y in enumerate(g.images):
        images[relabel[x]] = relabel[y]
    return Permutation(images)


def random_transitive_groups(seed, count):
    """Seeded transitive groups of degree 2 to 30 with their points relabelled
    at random: regular cyclic groups, cyclic groups extended by a multiplier
    x -> ax mod n or by a random permutation, and the actions of random
    subgroups of S_k, k <= 6, on the cosets of random subgroups."""
    rng = random.Random(seed)

    def perm(images):
        return Permutation(images)

    out = []
    while len(out) < count:
        kind = rng.randrange(4)
        if kind < 3:
            n = rng.randrange(2, 31)
            gens = [perm([(x + 1) % n for x in range(n)])]
            if kind == 1:
                units = [a for a in range(2, n) if math.gcd(a, n) == 1]
                if units:
                    a = rng.choice(units)
                    gens.append(perm([a * x % n for x in range(n)]))
            elif kind == 2:
                gens.append(perm(rng.sample(range(n), n)))
            G = PermutationGroup(n, gens)
        else:
            k = rng.randrange(2, 7)
            top = PermutationGroup(k, [perm(rng.sample(range(k), k))
                                       for _ in range(rng.randrange(1, 3))])
            if not top.generators:
                continue
            elements = top.chain.elements()
            H = PermutationGroup(k, [perm(elements[rng.randrange(len(elements))].tolist())
                                     for _ in range(rng.randrange(0, 3))])
            if not 2 <= top.order() // H.order() <= 30:
                continue
            G = action_on_cosets(top, H)
        n = G.degree
        relabel = rng.sample(range(n), n)
        out.append(PermutationGroup(n, [relabelled(g, relabel) for g in G.generators]))
    return out


@pytest.mark.parametrize("seed", range(4))
def test_two_orbits_matches_the_references_on_random_transitive_groups(seed):
    for i, G in enumerate(random_transitive_groups(seed, 50)):
        assert_matches_references(G, (seed, i, G.degree))
