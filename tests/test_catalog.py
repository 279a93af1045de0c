import dataclasses
import hashlib
import math

import pytest

from permsym import catalog
from permsym.analysis import run_analysis
from permsym.catalog import (
    build_instance,
    build_sym_on_pairs,
    catalog_entries,
)
from permsym.coherent import intersection_tensor, two_orbits
from permsym.errors import InputError
from permsym.perm import PermutationGroup, classify_action


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
        assert inst.faithful


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


def test_shear_instance():
    inst = build_instance("example3_2")
    assert inst.group.degree == 9
    assert inst.group.order() == 27
    a, b, x = inst.group.generators
    assert x.order() == 3
    assert inst.regular is not None and inst.regular.gens == (a, b)
    assert inst.regular.point_names[0] == "1"


def test_psl2_line():
    for q in (4, 8, 32):
        inst = build_instance(f"psl2line:{q}")
        assert inst.group.degree == q + 1
        assert inst.group.order() == q * (q * q - 1)
        assert inst.faithful
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
    assert inst.faithful


def test_psl2_dihedral_cosets_q32():
    inst = build_instance("psl2cosets:32")
    assert inst.group.degree == 496
    assert inst.group.order() == 32736
    assert inst.faithful
    cls = classify(inst.group)
    nontrivial = [d for d in cls.subdegrees if d != 1]
    assert nontrivial == [33] * 15  # all equal q+1
    assert cls.three_halves_transitive


def test_psl2_dihedral_coset_generators_are_unchanged():
    # generator images as first built by element-by-element enumeration; they
    # fix the coset numbering, hence every orbital label of these groups
    gens = build_instance("psl2cosets:8").group.generators
    assert [g.cycle_string() for g in gens] == [
        "(2 4)(3 7)(5 9)(6 12)(8 14)(10 15)(11 17)(16 21)(18 25)(19 27)(20 28)(22 24)",
        "(1 2 5 10 11 6 3)(4 8 15 22 28 25 23)(7 13 19 9 16 24 20)(12 18 26 27 14 21 17)",
        "(1 3)(2 6)(4 8)(5 11)(9 16)(12 14)(13 20)(15 23)(17 21)(18 27)(19 24)(22 25)",
    ]
    gens = build_instance("psl2cosets:32").group.generators
    digest = hashlib.sha256(repr([g.images for g in gens]).encode()).hexdigest()
    assert digest == "727c5a6e52b8333e593525865e6ed6341f22fabbafc229057e4014b02f382462"


def test_psl2_unsupported_q():
    with pytest.raises(InputError):
        build_instance("psl2line:16")
    with pytest.raises(InputError):
        build_instance("psl2cosets:4")


def test_sym_on_pairs_overgroup():
    inst = build_sym_on_pairs(7)
    assert inst.group.degree == 21
    assert inst.group.order() == 5040
    assert sorted(classify(inst.group).subdegrees) == [1, 10, 10]


def test_catalog_faithfulness_flags():
    for spec in ("sym:5", "alt:5", "altpairs:7", "signtwist:4", "frobenius:5,2",
                 "example3_2", "psl2line:4", "psl2cosets:8"):
        assert build_instance(spec).faithful, spec


@pytest.mark.parametrize("spec,degree", [
    ("sym:10001", 10001), ("alt:10001", 10001), ("altpairs:142", 10011),
    ("signtwist:140", 10011), ("frobenius:10007,2", 10007),
])
def test_oversized_parameters_are_refused_before_any_generator(monkeypatch, spec, degree):
    def refuse(*args):
        raise AssertionError("a generator was built")

    monkeypatch.setattr(catalog, "Permutation", refuse)
    with pytest.raises(InputError, match=f"acts on {degree} points, above the cap 10000"):
        build_instance(spec)


def test_largest_degree_under_the_cap_is_accepted(monkeypatch):
    # altpairs:141 acts on 9870 points; the refusal comes from the stub, so
    # the cap check passed and nothing of degree 9870 is built
    def refuse(*args):
        raise AssertionError("a generator was built")

    monkeypatch.setattr(catalog, "Permutation", refuse)
    with pytest.raises(AssertionError, match="a generator was built"):
        build_instance("altpairs:141")


def test_unknown_specs_rejected():
    for bad in ("nope", "sym", "sym:x", "altpairs:", "frobenius:7"):
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
