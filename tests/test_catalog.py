import dataclasses
import hashlib
import math
from functools import lru_cache

import numpy as np
import pytest

from permsym import catalog
from permsym.analysis import run_analysis
from permsym.catalog import build_instance, catalog_entries
from permsym.coherent import intersection_tensor, two_orbits
from permsym.errors import InputError, VerificationError
from permsym.exactlin import BinaryField
from permsym.perm import Permutation, PermutationGroup, action_on_cosets, classify_action


def classify(G):
    cc = two_orbits(G)
    return classify_action(cc, intersection_tensor(cc))


def test_sym_alt_orders():
    assert build_instance("sym:5").group.order() == 120
    assert build_instance("alt:6").group.order() == 360


@pytest.mark.parametrize("n", range(3, 13))
def test_alt_is_built_from_two_generators(n):
    G = build_instance(f"alt:{n}").group
    assert len(G.generators) == (1 if n == 3 else 2)
    assert G.order() == math.factorial(n) // 2


@pytest.mark.parametrize("n", range(3, 10))
def test_alt_reports_match_the_three_cycle_generators(n):
    # the reports of A_n read nothing of its generating set: those from the
    # two generators equal those from the n - 2 three-cycles (0 1 k)
    two = build_instance(f"alt:{n}")
    cycles = dataclasses.replace(two, group=PermutationGroup(n, catalog._alt_gens(n)))
    for p in (2, 3, 5, 7):
        for oracle in (False, True):
            a = run_analysis(two.spec, p, oracle=oracle, instance=dataclasses.replace(two))
            b = run_analysis(two.spec, p, oracle=oracle, instance=dataclasses.replace(cycles))
            a.timings_ms = b.timings_ms = {}
            assert (a.to_json(), a.to_text()) == (b.to_json(), b.to_text()), (n, p, oracle)


def test_sign_twist_family_subdegrees():
    for n in range(3, 8):
        inst = build_instance(f"signtwist:{n}")
        assert inst.group.degree == (n + 1) * (n + 2) // 2
        cls = classify(inst.group)
        assert sorted(cls.subdegrees) == sorted([1, 2 * n, n * (n - 1) // 2])
        assert cls.faithful


def test_sign_twist_5_matches_alt7_pairs_numbers():
    inst = build_instance("signtwist:5")
    assert inst.group.degree == 21
    assert sorted(classify(inst.group).subdegrees) == [1, 10, 10]


def test_frobenius_subdegrees():
    cls = classify(build_instance("frobenius:7,3").group)
    assert sorted(cls.subdegrees) == [1, 3, 3]
    cls = classify(build_instance("frobenius:5,2").group)
    assert sorted(cls.subdegrees) == [1, 2, 2]
    cls = classify(build_instance("frobenius:7,6").group)
    assert cls.rank == 2  # full affine group is two-transitive


def test_frobenius_errors():
    with pytest.raises(InputError):
        build_instance("frobenius:8,7")  # 8 not prime
    with pytest.raises(InputError):
        build_instance("frobenius:7,4")  # 4 does not divide 6


def element_order(x: Permutation) -> int:
    """The order of a permutation: the lcm of its cycle lengths."""
    return math.lcm(*(len(c) for c in x.cycles()))


def test_shear_instance():
    inst = build_instance("example3_2")
    assert inst.group.degree == 9
    assert inst.group.order() == 27
    a, b, x = inst.group.generators
    assert element_order(x) == 3
    assert inst.regular is not None and inst.regular.gens == (a, b)
    assert inst.regular.point_names[0] == "1"


def test_psl2_line():
    for q in (4, 8, 32):
        inst = build_instance(f"psl2line:{q}")
        assert inst.group.degree == q + 1
        assert inst.group.order() == q * (q * q - 1)
        assert classify(inst.group).faithful
    cls = classify(build_instance("psl2line:8").group)
    assert cls.rank == 2  # two-transitive


def test_psl2_dihedral_cosets_q8():
    inst = build_instance("psl2cosets:8")
    assert inst.group.degree == 28
    assert inst.group.order() == 504
    cls = classify(inst.group)
    nontrivial = [d for d in cls.subdegrees if d != 1]
    assert nontrivial == [9, 9, 9]  # all equal q+1; count (28-1)/9 = 3
    assert cls.three_halves_transitive
    assert cls.faithful


def test_psl2_dihedral_cosets_q32():
    inst = build_instance("psl2cosets:32")
    assert inst.group.degree == 496
    assert inst.group.order() == 32736
    cls = classify(inst.group)
    assert cls.faithful
    nontrivial = [d for d in cls.subdegrees if d != 1]
    assert nontrivial == [33] * 15  # all equal q+1
    assert cls.three_halves_transitive


def test_psl2_dihedral_coset_generators_are_unchanged():
    # generator images of the action on the cosets of the matrix-built
    # dihedral subgroup; they fix the coset numbering, hence every orbital
    # label of these groups
    gens = build_instance("psl2cosets:8").group.generators
    assert [g.cycle_string() for g in gens] == [
        "(1 2)(3 6)(4 9)(7 13)(8 17)(10 18)(11 20)(12 16)(14 23)(15 24)(19 27)(21 22)",
        "(1 3 7 15 25 16 8)(2 4 10 11 5 12 21)(6 13 20 28 27 22 14)(9 18 24 26 19 17 23)",
        "(2 5)(3 8)(4 11)(6 14)(7 16)(9 19)(12 21)(13 22)(15 25)(17 23)(18 26)(20 27)",
    ]
    gens = build_instance("psl2cosets:32").group.generators
    digest = hashlib.sha256(repr([g.images for g in gens]).encode()).hexdigest()
    assert digest == "1a4a8cf5938f6d2bf60d8d9ae17c228c96223e1aef5009edfc0ea1c154f481e3"


def dihedral_subgroup_by_scan(q):
    """The reference dihedral subgroup of PSL(2,q) that the catalog built
    before its matrix construction: the normalizer of the cyclic group
    generated by the first element of order q+1 in the deterministic
    element enumeration."""
    G = build_instance(f"psl2line:{q}").group
    elements = G.chain.elements()
    base = G.chain.base()
    # an element of G is determined by its base images; cur holds those of g^k
    # for k = 1..q+1 in turn, and g has order q+1 iff g^(q+1) is the first power
    # to fix the base
    cur = elements[:, base]
    early = np.zeros(len(elements), dtype=bool)
    for _ in range(q):
        early |= (cur == base).all(axis=1)
        cur = np.take_along_axis(elements, cur, axis=1)
    c = Permutation(elements[np.flatnonzero(~early & (cur == base).all(axis=1))[0]].tolist())
    # g normalizes <c> iff c * g = g * c^k for some k
    cg = elements[:, [c.images[b] for b in base]]
    normal = np.zeros(len(elements), dtype=bool)
    ck = Permutation.identity(G.degree)
    for _ in range(q + 1):
        normal |= (np.array(ck.images)[elements[:, base]] == cg).all(axis=1)
        ck = ck * c
    return PermutationGroup(G.degree, [Permutation(row) for row in elements[normal].tolist()])


def element_set(H):
    return {h.images for h in H.elements()}


@pytest.mark.parametrize("q", [8, 32])
def test_matrix_dihedral_subgroup_is_conjugate_to_the_scanned_one(q):
    G = build_instance(f"psl2line:{q}").group
    scanned, built = dihedral_subgroup_by_scan(q), catalog._dihedral_subgroup(q)
    assert scanned.order() == built.order() == 2 * (q + 1)
    # some g in G conjugates every scanned generator h into the built
    # subgroup, which has the same order, so it conjugates the one onto the
    # other; conj[i] maps elements[i](x) to elements[i](h(x)), the conjugate
    # of h by elements[i]
    elements = G.chain.elements()
    target = {bytes(np.array(h, dtype=np.int32)) for h in element_set(built)}
    conjugating = np.ones(len(elements), dtype=bool)
    for h in scanned.generators:
        conj = np.empty_like(elements)
        np.put_along_axis(conj, elements, elements[:, h.images], axis=1)
        conjugating &= [row.tobytes() in target for row in conj]
    assert conjugating.any()

    # conjugate subgroups give equivalent coset actions, so every report is
    # the same under either coset numbering
    matrix = build_instance(f"psl2cosets:{q}")
    scan = dataclasses.replace(matrix, group=action_on_cosets(G, scanned))
    assert scan.group.generators != matrix.group.generators
    for p in (2, 3, 5, 7, 11, 13, 31):
        for oracle in (False, True):
            a = run_analysis(matrix.spec, p, oracle=oracle, instance=matrix)
            b = run_analysis(matrix.spec, p, oracle=oracle, instance=scan)
            da, db = a.to_dict(), b.to_dict()
            del da["timings_ms"], db["timings_ms"]
            assert (da, a.to_text()) == (db, b.to_text()), (q, p, oracle)


@pytest.mark.parametrize("q,t", [(8, 2), (32, 6)])
def test_dihedral_matrices(q, t):
    field = BinaryField(catalog.PSL_LINE_FIELDS[q])
    c, s = catalog._dihedral_generators(field, q)
    assert c == ((0, 1), (1, t)) and s == ((0, 1), (1, 0))
    identity = ((1, 0), (0, 1))
    # C has order exactly q+1, and no smaller t gives that order
    powers = [c]
    for _ in range(q):
        powers.append(catalog._matrix_mul(field, powers[-1], c))
    assert powers[q] == identity and identity not in powers[:q]
    for smaller in range(t):
        assert catalog._matrix_order(field, ((0, 1), (1, smaller)), q + 1) != q + 1
    # S C S = C^-1 in characteristic 2, and S is an involution
    scs = catalog._matrix_mul(field, catalog._matrix_mul(field, s, c), s)
    assert scs == powers[q - 1] == ((t, 1), (1, 0))
    assert catalog._matrix_mul(field, c, scs) == catalog._matrix_mul(field, s, s) == identity
    H = catalog._dihedral_subgroup(q)
    assert H.order() == len(element_set(H)) == 2 * (q + 1)


@pytest.mark.parametrize("q", [8, 32])
@pytest.mark.parametrize("corrupt", ["wrong t", "no swap"])
def test_dihedral_order_check_catches_a_corrupted_generator(monkeypatch, q, corrupt):
    right = catalog._dihedral_generators

    def corrupted(field, q):
        c, s = right(field, q)
        # t = 1 gives C order 3, so <C, S> is dihedral of order 6
        return (((0, 1), (1, 1)), s) if corrupt == "wrong t" else (c,)

    monkeypatch.setattr(catalog, "_dihedral_generators", corrupted)
    with pytest.raises(VerificationError, match=f"differs from 2\\(q\\+1\\) = {2 * (q + 1)}"):
        catalog._dihedral_subgroup.__wrapped__(q)


def test_psl2_unsupported_q():
    with pytest.raises(InputError):
        build_instance("psl2line:16")
    with pytest.raises(InputError):
        build_instance("psl2cosets:4")


def test_sym_on_pairs_overgroup():
    inst = build_instance("sympairs:7")
    assert inst.group.degree == 21
    assert inst.group.order() == 5040
    assert sorted(classify(inst.group).subdegrees) == [1, 10, 10]


def test_catalog_faithfulness_flags():
    for spec in ("sym:5", "alt:5", "altpairs:7", "signtwist:4", "frobenius:5,2",
                 "example3_2", "psl2line:4", "psl2cosets:8"):
        assert classify(build_instance(spec).group).faithful, spec


def _source_group(head, n):
    """The group that a derived family's action is induced from, built from
    its own generators on its own domain."""
    if head == "altpairs":
        return PermutationGroup(n, catalog._alt_gens(n))
    if head == "sympairs":
        return PermutationGroup(n, catalog._alt_gens(n) + [catalog._cycle(n, [0, 1])])
    if head == "signtwist":
        return PermutationGroup(n + 2, catalog._alt_gens(n + 2))
    return build_instance(f"psl2line:{n}").group


@pytest.mark.parametrize("spec", [
    *(f"altpairs:{n}" for n in range(4, 13)),
    *(f"sympairs:{n}" for n in range(4, 13)),
    *(f"signtwist:{n}" for n in range(3, 9)),
    "psl2cosets:8", "psl2cosets:32",
])
def test_derived_actions_are_faithful_by_the_order_reference(spec):
    # classify_action reports faithful by theorem; the reference is the
    # order comparison the catalog once made at build time: the induced
    # action is faithful iff its image has the source group's order
    head, _, n = spec.partition(":")
    G = build_instance(spec).group
    assert G.order() == _source_group(head, int(n)).order()
    assert classify(G).faithful


@pytest.mark.parametrize("spec,degree", [
    ("sym:10001", 10001), ("alt:10001", 10001), ("altpairs:142", 10011),
    ("sympairs:142", 10011), ("signtwist:140", 10011), ("frobenius:10007,2", 10007),
    ("psl2line:10000", 10001), ("psl2cosets:143", 10153),
])
def test_oversized_parameters_are_refused_before_any_generator(monkeypatch, spec, degree):
    def refuse(*args):
        raise AssertionError("a generator was built")

    monkeypatch.setattr(catalog, "Permutation", refuse)
    with pytest.raises(InputError, match=f"acts on {degree} points, above the cap 1000"):
        build_instance(spec)


def test_largest_degree_under_the_cap_is_accepted(monkeypatch):
    # the largest parameter of each family that the cap bounds; the refusal
    # comes from the stub, so the cap check passed and nothing is built
    def refuse(*args):
        raise AssertionError("a generator was built")

    monkeypatch.setattr(catalog, "Permutation", refuse)
    for spec, degree in [("sym:1000", 1000), ("alt:1000", 1000), ("altpairs:45", 990),
                         ("sympairs:45", 990), ("signtwist:43", 990),
                         ("frobenius:997,2", 997)]:
        head, _, body = spec.partition(":")
        assert catalog.FAMILIES[head].points(*map(int, body.split(","))) == degree
        with pytest.raises(AssertionError, match="a generator was built"):
            build_instance(spec)


def test_unknown_specs_rejected():
    # "sym:\u00b2" is a superscript two: str.isdigit accepts it and int refuses it
    for bad in ("nope", "sym", "sym:x", "altpairs:", "frobenius:7", "altpairs:-141",
                "example3_2:", "sym:5,", "sym:\u00b2"):
        with pytest.raises(InputError):
            build_instance(bad)


def test_file_spec(tmp_path):
    path = tmp_path / "gens.txt"
    path.write_text("degree 3\n(1 2 3)\n")
    inst = build_instance(f"file:{path}")
    assert inst.group.order() == 3


def test_catalog_entries_table():
    rows = catalog_entries()
    specs = [r[0] for r in rows]
    assert "example3_2" in specs and "psl2cosets:q" in specs and "signtwist:n" in specs


def test_catalog_entries_list_the_family_table():
    rows = catalog_entries()
    assert [r[0].partition(":")[0] for r in rows] == [*catalog.FAMILIES, "file"]
    assert rows[-1][0] == "file:<path>"


@pytest.mark.parametrize("head", list(catalog.FAMILIES))
def test_family_example_builds_with_its_spec_and_degree(head):
    family = catalog.FAMILIES[head]
    assert family.example.partition(":")[0] == head
    inst = build_instance(family.example)
    assert inst.spec == family.example
    _, _, body = family.example.partition(":")
    params = [int(p) for p in body.split(",")] if body else []
    assert family.points(*params) == inst.group.degree


@pytest.mark.parametrize("q", [8, 32])
def test_psl2_cosets_builds_the_line_group_once(monkeypatch, q):
    # from an empty cache, psl2cosets:q takes PSL(2,q) on the line from the
    # cached psl2line:q instance, and the dihedral subgroup builds no second
    # copy
    line = catalog.FAMILIES["psl2line"]
    built = []

    def counted(spec, q):
        built.append(spec)
        return line.build(spec, q)

    monkeypatch.setitem(catalog.FAMILIES, "psl2line", dataclasses.replace(line, build=counted))
    monkeypatch.setattr(catalog, "_build", lru_cache(maxsize=None)(catalog._build.__wrapped__))
    monkeypatch.setattr(catalog, "_dihedral_subgroup",
                        lru_cache(maxsize=None)(catalog._dihedral_subgroup.__wrapped__))
    cosets = build_instance(f"psl2cosets:{q}")
    assert cosets.group.degree == q * (q - 1) // 2
    assert build_instance(f"psl2line:{q}").group.order() == q * (q * q - 1)
    assert built == [f"psl2line:{q}"]
