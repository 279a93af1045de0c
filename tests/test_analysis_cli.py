import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import permsym
from permsym import analysis, cli, coherent, endo, perm
from permsym.analysis import configuration, run_analysis
from permsym.catalog import CatalogInstance, build_instance
from permsym.coherent import (
    adjacency_product_check,
    intersection_tensor,
    two_orbits,
    verify_cc_axioms,
)
from permsym.errors import InputError, VerificationError
from permsym.perm import PermutationGroup
from permsym.suite import run_all


def strip_timings(doc: dict) -> dict:
    doc = dict(doc)
    doc.pop("timings_ms", None)
    return doc


def test_report_contents_altpairs():
    rep = run_analysis("altpairs:7", 5)
    doc = rep.to_dict()
    assert doc["degree"] == 21
    assert doc["classification"]["subdegrees"] == [1, 10, 10]
    assert doc["valencies"] == [1, 10, 10]
    assert doc["algebra_dim"] == doc["orbital_count"] == 3
    assert doc["radical_dims"][0] == doc["algebra_dim"]
    assert doc["symmetric_verdict"]["status"] in (
        "symmetric_with_witness",
        "symmetric_semisimple",
    )
    assert doc["checks"]["cc_axioms"] is True


def test_report_deterministic_given_seed():
    a = strip_timings(run_analysis("altpairs:7", 5, seed=3).to_dict())
    b = strip_timings(run_analysis("altpairs:7", 5, seed=3).to_dict())
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_intransitive_rejected(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("degree 3\n(1 2)\n")
    with pytest.raises(InputError, match="transitive"):
        run_analysis(f"file:{path}", 3)


def test_degree_above_pair_table_cap_rejected_before_order(tmp_path, monkeypatch):
    path = tmp_path / "big.txt"
    path.write_text("degree 1001\n(1 2 3)\n")

    def no_order(self):
        raise AssertionError("order computed before the degree cap was checked")

    monkeypatch.setattr(PermutationGroup, "order", no_order)
    with pytest.raises(InputError, match=r"line 1: degree must be in 1\.\.1000, got 1001"):
        run_analysis(f"file:{path}", 2)


@pytest.mark.parametrize("spec,degree", [
    ("sym:1001", 1001), ("alt:1001", 1001), ("altpairs:46", 1035),
    ("sympairs:46", 1035), ("signtwist:44", 1035), ("frobenius:1009,2", 1009),
])
def test_smallest_oversized_parameter_builds_no_chain(monkeypatch, capsys, spec, degree):
    # the cap is checked on the family's point count, before its builder
    # runs: no stabilizer chain (of the group or of the one it is induced
    # from) and no intersection tensor
    def refuse(*args, **kwargs):
        raise AssertionError("refused too late")

    monkeypatch.setattr(perm.StabilizerChain, "build", refuse)
    monkeypatch.setattr(coherent, "intersection_tensor", refuse)
    monkeypatch.setattr(analysis, "intersection_tensor", refuse)
    assert cli.main(["analyze", "--group", spec, "--char", "2"]) == 2
    assert f"{spec} acts on {degree} points, above the cap 1000" in capsys.readouterr().err


def test_composite_characteristic_rejected():
    with pytest.raises(InputError, match="prime"):
        run_analysis("sym:4", 6)


def test_oracle_flag_populates_checks():
    rep = run_analysis("frobenius:7,3", 7, oracle=True)
    assert rep.checks["oracle_dim"] == 3 and rep.checks["oracle_matches"]
    assert rep.checks["hecke"]["hecke_dim"] == 3
    assert rep.checks["hecke"]["matches_rank"]
    # the oracle runs at every degree up to the pair-table cap
    rep = run_analysis("psl2cosets:32", 2, oracle=True)
    assert rep.checks["oracle_dim"] == 16 and rep.checks["oracle_matches"]


@pytest.mark.parametrize("group_spec,config_spec,m", [
    ("frobenius:7,3", "frobenius:7,6", 2),  # two orbitals of the group fused
    ("frobenius:7,6", "frobenius:7,3", 3),  # an orbital of the group split
])
def test_oracle_catches_the_orbitals_of_another_group(group_spec, config_spec, m):
    # the Schur check would catch the wrong orbitals too (see
    # test_schur_check_refuses_the_orbitals_of_another_group); without it,
    # only the oracle compares the orbitals with the group's generators.  The
    # injected configuration is fresh, so it holds no oracle result of its own
    inst = dataclasses.replace(build_instance(group_spec), regular=None)
    object.__setattr__(inst, "configuration", configuration(fresh_instance(config_spec)))
    rep = run_analysis(group_spec, 2, instance=inst)
    assert rep.orbital_count == m
    with pytest.raises(VerificationError, match="centralizer oracle puts pair"):
        run_analysis(group_spec, 2, oracle=True, instance=inst)
    assert inst.configuration.checks == {}


def test_configuration_stage_catches_the_orbitals_of_another_group(monkeypatch):
    # The orbitals of frobenius:7,6 fuse two orbitals of frobenius:7,3.  The
    # fusion passes the axioms, the adjacency identity and the integer proof;
    # the orbits of the group's own point stabilizer do not match it.
    inst = dataclasses.replace(build_instance("frobenius:7,3"), regular=None)
    fused = analysis.two_orbits(build_instance("frobenius:7,6").group)
    monkeypatch.setattr(analysis, "two_orbits", lambda G: fused)
    with pytest.raises(VerificationError, match="has 3 orbits, but there are 2 orbitals"):
        run_analysis("frobenius:7,3", 2, instance=inst)
    assert inst.configuration is None


def test_configuration_stage_catches_the_orbitals_of_a_smaller_stabilizer():
    # The translations of F_2^3 and the coordinate swaps (1 2) and (2 3)
    # generate F_2^3 : S_3 on the 8 vectors.  The chain's first level carries
    # 0 to x by the translation by x; its deepest level holds the swap (2 3).  Without that
    # level the stabilizer K = <(1 2)> has 6 orbits, against the 4 orbitals,
    # and two_orbits labels the pairs by the orbitals of F_2^3 : K.  That
    # finer table passes the orbit count, which reads the same chain, and the
    # axioms; the generator (2 3) does not preserve its labels.
    def swap(i, j):
        return [x & ~(1 << i | 1 << j) | (x >> i & 1) << j | (x >> j & 1) << i
                for x in range(8)]

    gens = [[x ^ 1 << i for x in range(8)] for i in range(3)] + [swap(0, 1), swap(1, 2)]
    assert two_orbits(PermutationGroup(8, gens)).m == 4
    G = PermutationGroup(8, gens)
    assert [(lv.base, len(lv.orbit)) for lv in G.chain.levels] == [(0, 8), (1, 3), (2, 2)]
    del G.chain.levels[-1]
    finer = two_orbits(G)
    assert finer.m == 6
    assert verify_cc_axioms(finer, intersection_tensor(finer)).passed
    inst = CatalogInstance("agl", G)
    with pytest.raises(VerificationError, match="adjacency product identity failed: "
                       "generator 4 does not preserve the orbital of pair"):
        configuration(inst)
    assert inst.configuration is None


# neither an associativity proof nor the axiom checks run, so neither is
# timed (see analysis.configuration)
CONFIGURATION_TIMINGS = {
    "two_orbits", "order", "classify", "tensor", "adjacency_identity",
}


def fresh_instance(spec):
    # build_instance is process-wide; the copy starts with no configuration
    return dataclasses.replace(build_instance(spec))


@pytest.mark.parametrize("spec,primes,oracle", [
    ("psl2cosets:8", (2, 3, 7), False),
    ("frobenius:7,3", (3, 7), True),
])
def test_shared_configuration_gives_the_reports_of_fresh_instances(spec, primes, oracle):
    shared = fresh_instance(spec)
    for i, p in enumerate(primes):
        reused = run_analysis(spec, p, oracle=oracle, instance=shared)
        fresh = run_analysis(spec, p, oracle=oracle, instance=fresh_instance(spec))
        assert json.dumps(strip_timings(reused.to_dict()), sort_keys=True) == json.dumps(
            strip_timings(fresh.to_dict()), sort_keys=True
        )
        assert reused.to_text() == fresh.to_text()
        assert CONFIGURATION_TIMINGS <= set(fresh.timings_ms)
        assert not {"associativity", "axioms"} & set(fresh.timings_ms)
        # only the run that builds the configuration times its stages
        stage_keys = CONFIGURATION_TIMINGS & set(reused.timings_ms)
        assert stage_keys == (CONFIGURATION_TIMINGS if i == 0 else set())


def counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_the_verdict_reads_the_structure_the_analysis_computed(monkeypatch):
    # is_symmetric is given the structure report, so none is computed twice
    stages = counting(monkeypatch, analysis, "structure_report")
    inner = counting(monkeypatch, endo, "structure_report")
    rep = run_analysis("example3_2", 3)
    assert rep.verdict.method == "socle_criterion"
    assert (len(stages), len(inner)) == (1, 0)


F21_GENERATORS = "degree 7\n(1 2 3 4 5 6 7)\n(2 3 5)(4 7 6)\n"  # frobenius:7,3


def test_configuration_refuses_a_table_fused_with_its_transpose(tmp_path, monkeypatch):
    # F21 from a file, so no Schur check runs.  Labelling each pair by the
    # smaller of its orbital and its transpose's fuses orbitals 1 and 2: the
    # fused table is itself a configuration, every generator preserves it,
    # the K-orbit count reads the unchanged m = 3 and the adjacency identity
    # holds.  Only row 0, which lacks label 2, refuses it.
    path = tmp_path / "f21.txt"
    path.write_text(F21_GENERATORS)
    inst = build_instance(f"file:{path}")
    assert inst.group.order() == 21
    cc = two_orbits(inst.group)
    fused = dataclasses.replace(cc, orbital_of=np.minimum(cc.orbital_of, cc.orbital_of.T))
    tensor = intersection_tensor(fused)
    assert fused.m == 3 and adjacency_product_check(fused, tensor, inst.group.generators)[0]
    monkeypatch.setattr(analysis, "two_orbits", lambda G: fused)
    with pytest.raises(VerificationError, match="row 0 of the orbital table"):
        configuration(inst)
    assert inst.configuration is None


def test_configuration_refuses_a_table_without_the_diagonal_as_label_0(monkeypatch):
    # Swapping labels 0 and 1 of example3_2, whose orbitals 0 and 1 both have
    # valency 1, with their least pairs, gives a relabelled configuration
    # that passes every other check; its A_0 is not the unit
    inst = dataclasses.replace(build_instance("example3_2"), regular=None)
    cc = two_orbits(inst.group)
    swap = np.array([1, 0, 2, 3, 4], dtype=np.int32)
    swapped = dataclasses.replace(cc, orbital_of=swap[cc.orbital_of], rep=cc.rep[swap])
    assert np.array_equal(np.bincount(swapped.orbital_of[0]), swapped.valency)
    tensor = intersection_tensor(swapped)
    assert adjacency_product_check(swapped, tensor, inst.group.generators) == (True, None)
    monkeypatch.setattr(analysis, "two_orbits", lambda G: swapped)
    with pytest.raises(VerificationError, match="row 0 of the orbital table"):
        configuration(inst)
    assert inst.configuration is None


def test_configuration_runs_no_axiom_check(monkeypatch):
    # the checks that run imply the axioms; the report still records them
    assert not hasattr(analysis, "verify_cc_axioms")
    calls = counting(monkeypatch, coherent, "verify_cc_axioms")
    for spec in ("frobenius:7,3", "example3_2", "psl2cosets:8"):
        rep = run_analysis(spec, 3, instance=fresh_instance(spec))
        assert rep.checks["cc_axioms"] is True
    assert calls == []


S3_GENERATORS = "degree 6\n(1 2 3)(4 5 6)\n(1 4)(2 6)(3 5)\n"  # S3, regular


@pytest.mark.parametrize("p,dims", [(2, [6, 1, 0]), (3, [6, 4, 2, 0]), (5, [6, 0])])
def test_regular_s3_is_analyzed_through_the_noncommutative_radical_proof(
        tmp_path, monkeypatch, p, dims):
    # the algebra is F_p[S3]: F_2[S3] = F_2[C2] x M_2(F_2); over F_3,
    # J^k = F_3[S3](x - 1)^k for a 3-cycle x; F_5[S3] is semisimple.  Its
    # radical is the Külshammer kernel, which forms the commutators once,
    # and proves a zero radical as it proves any other
    path = tmp_path / "s3.txt"
    path.write_text(S3_GENERATORS)
    calls = counting(monkeypatch, endo, "_commutators")
    doc = run_analysis(f"file:{path}", p).to_dict()
    assert doc["valencies"] == [1] * 6 and doc["radical_dims"] == dims
    assert doc["structure"]["commutative"] is False
    assert doc["symmetric_verdict"]["method"] == "natural_form"
    assert len(calls) == 1


def test_cross_checks_run_once_per_instance(monkeypatch):
    calls = [counting(monkeypatch, analysis, name)
             for name in ("centralizer_oracle", "schur_vs_centralizer")]
    # the Hecke dimension is read off the configuration: no scan runs
    assert not hasattr(analysis, "hecke_check")
    hecke_calls = counting(monkeypatch, endo, "hecke_check")
    inst = fresh_instance("frobenius:7,3")
    timed = []
    for p in (2, 3, 5, 7):
        rep = run_analysis("frobenius:7,3", p, oracle=True, instance=inst)
        timed.append({"schur", "oracle", "hecke"} & set(rep.timings_ms))
        assert rep.checks["oracle_dim"] == 3 and rep.schur["iso_pass"]
        # |H| = 3, so p = 3 has no Hecke dimension
        assert rep.checks.get("hecke", {}).get("hecke_dim") == (None if p == 3 else 3)
    assert [len(c) for c in calls] == [1, 1] and hecke_calls == []
    # each cross-check is timed on the one run that computes it
    assert timed == [{"schur", "oracle"}, set(), set(), set()]


def test_configuration_builds_no_stabilizer_chain_for_the_regular_subgroup(monkeypatch):
    # T's normality in G is not sifted through a chain of T: T <= G is
    # regular, so G = T G_0, and the Schur ring checks that G_0 normalizes T
    inst = fresh_instance("frobenius:73,2")
    inst.group.order()  # G's own chain, which the Schur check sifts T through
    built = []
    build = perm.StabilizerChain.build.__func__

    def recording(cls, degree, generators, order_bound=None):
        built.append(tuple(g.images for g in generators))
        return build(cls, degree, generators, order_bound)

    monkeypatch.setattr(perm.StabilizerChain, "build", classmethod(recording))
    assert configuration(inst).schur is not None
    T_gens = tuple(g.images for g in inst.regular.gens)
    assert T_gens not in built


@pytest.mark.parametrize("spec,m", [("frobenius:499,2", 250), ("frobenius:241,4", 61)])
def test_configuration_refuses_the_algebra_cap_before_the_tensor(monkeypatch, spec, m):
    # the orbital count is the algebra's dimension at every p, so a group
    # above the cap is refused right after two_orbits: neither the m^3
    # tensor nor the Schur check runs
    called = []

    def recording(name, fn):
        def wrapped(*args, **kwargs):
            called.append(name)
            return fn(*args, **kwargs)
        return wrapped

    for name in ("intersection_tensor", "schur_vs_centralizer"):
        monkeypatch.setattr(analysis, name, recording(name, getattr(analysis, name)))
    inst = fresh_instance(spec)
    message = f"algebra dimension {m} exceeds cap {endo.ALGEBRA_DIM_CAP}"
    with pytest.raises(InputError, match=message):
        configuration(inst)
    with pytest.raises(InputError, match=message):
        run_analysis(spec, 2, instance=inst)
    assert called == []
    assert inst.configuration is None


def test_hecke_dimension_is_reported_above_the_scan_cap():
    # |PSL(2,32)| = 32736 is above the scan's cap, and |H| = 992 is prime to 3
    rep = run_analysis("psl2line:32", 3, oracle=True)
    assert rep.checks["hecke"] == {"hecke_dim": 2, "rank": 2, "matches_rank": True}
    with pytest.raises(InputError, match="group order 32736 exceeds cap 5000"):
        endo.hecke_check(build_instance("psl2line:32").group, 0)


def test_a_failing_oracle_comparison_keeps_no_result(monkeypatch):
    inst = fresh_instance("frobenius:7,3")
    oracle = analysis.centralizer_oracle
    monkeypatch.setattr(analysis, "centralizer_oracle", lambda G: 0 * oracle(G))
    with pytest.raises(VerificationError, match="centralizer oracle puts pair"):
        run_analysis("frobenius:7,3", 2, oracle=True, instance=inst)
    assert "oracle" not in inst.configuration.checks
    monkeypatch.setattr(analysis, "centralizer_oracle", oracle)
    assert run_analysis("frobenius:7,3", 2, oracle=True, instance=inst).checks["oracle_dim"] == 3
    assert inst.configuration.checks["oracle"] == 3


def test_negative_seed_rejected():
    with pytest.raises(InputError, match="seed -1 is negative"):
        run_analysis("frobenius:7,3", 2, seed=-1)
    with pytest.raises(InputError, match="seed -1 is negative"):
        run_all(seed=-1, only=["frobenius"])


def test_configuration_is_built_once_per_instance(monkeypatch):
    orbit_calls = counting(monkeypatch, analysis, "two_orbits")
    tensor_calls = counting(monkeypatch, analysis, "intersection_tensor")
    inst = fresh_instance("frobenius:7,3")
    for p in (2, 3, 7):
        rep = run_analysis("frobenius:7,3", p, oracle=True, instance=inst)
        # the adjacency identity implies associativity and the unit, which
        # the package holds no proof of its own for
        assert rep.checks["associativity"] is True
    assert len(orbit_calls) == len(tensor_calls) == 1
    # the seed drives only the witness search, so one configuration serves both
    run_analysis("frobenius:7,3", 3, seed=1, instance=inst)
    run_analysis("frobenius:7,3", 5, seed=1, instance=inst)
    run_analysis("frobenius:7,3", 5, seed=0, instance=inst)
    assert len(orbit_calls) == len(tensor_calls) == 1
    assert inst.configuration is configuration(inst)


def test_intransitive_file_group_is_refused_on_every_call(tmp_path, monkeypatch):
    path = tmp_path / "g.txt"
    path.write_text("degree 4\n(1 2)\n")
    orbit_calls = counting(monkeypatch, analysis, "two_orbits")
    inst = build_instance(f"file:{path}")
    for k, p in enumerate((2, 3, 2), start=1):
        with pytest.raises(InputError, match="transitive"):
            run_analysis(f"file:{path}", p, instance=inst)
        with pytest.raises(InputError, match="transitive"):
            run_analysis(f"file:{path}", p)
        assert len(orbit_calls) == 2 * k  # a refused configuration is not kept
    assert inst.configuration is None


def test_adjacency_identity_is_proved_above_degree_100():
    rep = run_analysis("psl2cosets:32", 3)
    assert rep.degree == 496
    assert rep.checks["adjacency_product_identity"] is True


def test_every_exported_name_resolves():
    missing = [name for name in permsym.__all__ if not hasattr(permsym, name)]
    assert missing == []


def test_cached_configuration_is_read_only():
    config = configuration(fresh_instance("frobenius:7,3"))
    with pytest.raises(ValueError, match="read-only"):
        config.tensor[0, 0, 0] = 5
    with pytest.raises(ValueError, match="read-only"):
        config.cc.orbital_of[0, 1] = 0
    with pytest.raises(ValueError, match="read-only"):
        config.cc.valency[1] += 1


def run_cli(*args):
    # the child imports the same permsym as this process, installed or not
    src = str(Path(permsym.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "permsym", *args],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )
    return proc


# Runs every job of two benchmark workloads in a fresh process and reports
# whether numpy.ma was loaded by numpy's own import, and after the jobs
NUMPY_MA_PROBE = """
import importlib.util, sys
import numpy
on_import = "numpy.ma" in sys.modules
spec = importlib.util.spec_from_file_location("perfbench_workloads", sys.argv[1])
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
import permsym
for name in ("frobenius-modular", "crosscheck"):
    for job in workloads.WORKLOADS[name].jobs:
        if job.kind == "analysis":
            permsym.run_analysis(job.spec, job.p, oracle=job.oracle)
        else:
            permsym.group_theoretic_checks(permsym.build_instance(job.spec).group, 0, job.p)
print(on_import, "numpy.ma" in sys.modules)
"""


def test_the_analysis_path_does_not_import_numpy_ma():
    """Under numpy 2, np.unique and np.isin call np.ma.is_masked, and its
    lazy import of numpy.ma costs 15-24 ms once per process.  The analysis
    path calls neither; numpy 1.x imports numpy.ma with numpy itself."""
    src = str(Path(permsym.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    workloads = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    proc = subprocess.run([sys.executable, "-c", NUMPY_MA_PROBE, str(workloads)],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    on_import, after = proc.stdout.split()
    if on_import == "True":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert after == "False"


# Analyzes two commutative semisimple algebras, whose witness is a search
# space far beyond WITNESS_ENUM_CAP, in a fresh process and reports whether
# numpy.random was loaded
NUMPY_RANDOM_PROBE = """
import sys
import permsym
for spec, p in (("frobenius:73,2", 2), ("psl2cosets:32", 3)):
    assert permsym.run_analysis(spec, p).verdict.status == "symmetric_semisimple"
print("numpy.random" in sys.modules)
"""


def test_a_semisimple_verdict_does_not_import_numpy_random():
    """A commutative algebra with zero radical takes the regular trace as its
    witness, with no sampled search, so numpy.random, whose import costs
    about 10 ms once per process, is never loaded."""
    src = str(Path(permsym.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", NUMPY_RANDOM_PROBE],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_cli_analyze_json():
    proc = run_cli("analyze", "--group", "altpairs:7", "--char", "5", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["degree"] == 21
    assert doc["symmetric_verdict"]["status"].startswith("symmetric")


def test_cli_json_bytes_deterministic():
    args = ("analyze", "--group", "sym:4", "--char", "2", "--format", "json", "--seed", "1")
    a = strip_timings(json.loads(run_cli(*args).stdout))
    b = strip_timings(json.loads(run_cli(*args).stdout))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_cli_text_format():
    proc = run_cli("analyze", "--group", "example3_2", "--char", "3")
    assert proc.returncode == 0
    assert "not_symmetric" in proc.stdout
    assert "b+ab+a2b" in proc.stdout


# example3_2 at p = 3: its negative verdict is read off the socle criterion
EXAMPLE3_2_REPORT = """\
group      : example3_2 (degree 9, order 27)
action     : transitive=True rank=5 subdegrees=[1, 1, 1, 3, 3] primitive=False \
3/2-transitive=False faithful=True
orbitals   : 5 with valencies [1, 1, 1, 3, 3]
algebra    : dim 5 over F_3; radical dims [5, 4, 1, 0]
structure  : top 1, socle (l/r) 3/3, local=True, commutative=True
pairing    : gram symmetric=True nondegenerate=False
verdict    : not_symmetric (method socle_criterion)
             socle dimension 3/3 differs from the top dimension 1; a Frobenius algebra's \
socles are isomorphic to its top
schur ring : match=True basic sums ['1', 'a', 'a2', 'b+ab+a2b', 'b2+ab2+a2b2']
"""


def test_example3_2_report_at_3_is_decided_by_the_socle_criterion():
    rep = run_analysis("example3_2", 3)
    assert rep.to_text() == EXAMPLE3_2_REPORT
    assert rep.to_dict()["symmetric_verdict"] == {
        "status": "not_symmetric",
        "method": "socle_criterion",
        "witness": None,
        "certificate": {
            "socle_criterion": {"top_dim": 1, "left_socle_dim": 3, "right_socle_dim": 3}},
        "notes": "socle dimension 3/3 differs from the top dimension 1; "
                 "a Frobenius algebra's socles are isomorphic to its top",
    }


def test_cli_exit_code_user_error():
    assert run_cli("analyze", "--group", "unknown:1", "--char", "3").returncode == 2
    assert run_cli("analyze", "--group", "sym:4", "--char", "9").returncode == 2
    # intransitive group from a file
    import tempfile, pathlib

    with tempfile.TemporaryDirectory() as d:
        path = pathlib.Path(d) / "g.txt"
        path.write_text("degree 4\n(1 2)\n")
        assert run_cli("analyze", "--file", str(path), "--char", "3").returncode == 2


def test_cli_refuses_an_oversized_catalog_parameter(capsys):
    # sym:n builds two generators, so this stays small even if the catalog's
    # own cap were missing; the message tells which check refused it
    assert cli.main(["analyze", "--group", "sym:20000", "--char", "2"]) == 2
    assert "sym:20000 acts on 20000 points, above the cap 1000" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    ("degree \u00b2\n", "line 1: expected 'degree n'"),
    ("degree 3\n(1 \u00b2)\n", "line 2: bad token"),
], ids=["header", "cycle"])
def test_cli_refuses_a_non_ascii_digit_in_a_file(text, message, tmp_path, capsys):
    # "\u00b2" is a superscript two: str.isdigit accepts it and int refuses it
    path = tmp_path / "gens.txt"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["analyze", "--file", str(path), "--char", "2"]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("kind", ["missing", "directory", "undecodable"])
def test_cli_refuses_an_unreadable_file(kind, tmp_path, capsys):
    path = tmp_path / "gens.txt"
    if kind == "directory":
        path.mkdir()
    elif kind == "undecodable":
        path.write_bytes(b"\xff\xfe")
    assert cli.main(["analyze", "--file", str(path), "--char", "2"]) == 2
    err = capsys.readouterr().err
    assert f"cannot read generator file {path}" in err and "Traceback" not in err


def test_cli_refuses_a_negative_seed(capsys):
    # refused before any stage runs, whether or not the verdict would read it
    for args in (["analyze", "--group", "frobenius:73,2", "--char", "2"],
                 ["suite", "--only", "frobenius"]):
        assert cli.main([*args, "--seed", "-1"]) == 2
        assert "seed -1 is negative" in capsys.readouterr().err


def test_cli_rejects_characteristic_above_bound():
    proc = run_cli("analyze", "--group", "sym:4", "--char", "2147483647")
    assert proc.returncode == 2
    assert "2^28" in proc.stderr


def test_cli_exit_code_internal_error(monkeypatch):
    from permsym.errors import VerificationError

    def boom(*a, **k):
        raise VerificationError("synthetic failure")

    monkeypatch.setattr(cli, "run_analysis", boom)
    code = cli.main(["analyze", "--group", "sym:4", "--char", "2"])
    assert code == 3


def test_cli_file_input_round_trip(tmp_path):
    path = tmp_path / "grid.txt"
    path.write_text("degree 9\n(1 2 3)(4 5 6)(7 8 9)\n(1 4 7)(2 5 8)(3 6 9)\n")
    proc = run_cli("analyze", "--file", str(path), "--char", "2", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["degree"] == 9 and doc["group_order"] == 9
    assert doc["orbital_count"] == 9  # regular action has rank equal to its order


def test_cli_catalog_lists_grammar():
    proc = run_cli("catalog")
    assert proc.returncode == 0
    for token in ("sym:n", "example3_2", "psl2cosets:q", "file:<path>"):
        assert token in proc.stdout


def test_cli_suite_subset_deterministic_and_negative_control():
    a = run_cli("suite", "--only", "frobenius")
    b = run_cli("suite", "--only", "frobenius")
    assert a.returncode == 0 and a.stdout == b.stdout
    bad = run_cli("suite", "--only", "frobenius", "--negative-control")
    assert bad.returncode == 1
    assert "FAIL" in bad.stdout and "frobenius" in bad.stdout


def test_cli_suite_verbose_stdout_is_free_of_timings():
    a = run_cli("suite", "--verbose", "--only", "alt7-pairs")
    b = run_cli("suite", "--verbose", "--only", "alt7-pairs")
    assert a.returncode == 0, a.stdout + a.stderr
    assert "ok: runtime at p=2 < 1s" in a.stdout
    assert a.stdout == b.stdout


def test_runtime_check_shows_the_measured_time_only_on_failure():
    from permsym.suite import _Checker

    c = _Checker("runtime")
    c.expect_within(0.25, 1.0, "runtime")
    c.expect_within(1.5, 1.0, "runtime")
    c.expect_within(1.0, 1.0, "runtime")  # the bound is strict
    assert c.result().details == [
        "ok: runtime < 1s",
        "FAIL: runtime < 1s (measured 1.500s)",
        "FAIL: runtime < 1s (measured 1.000s)",
    ]


def test_cli_suite_unknown_key():
    proc = run_cli("suite", "--only", "not-a-criterion")
    assert proc.returncode == 2
    assert "unknown criteria" in proc.stderr
