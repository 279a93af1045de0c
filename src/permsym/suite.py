"""Verification suite: every exit criterion of the build, runnable from the
CLI (`permsym suite`) and mirrored one-to-one by tests/test_acceptance.py.

Each criterion returns a list of named sub-checks; a criterion passes when
all of its sub-checks do.  Stdout output contains no timings so that two runs
with the same seed are byte-identical; the stated runtime bounds are still
enforced as sub-checks, labelled with the bound only (a failing one also
gives the measured time).
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .analysis import configuration, run_analysis
from .catalog import build_instance
from .coherent import adjacency_product_check, verify_cc_axioms
from .endo import (
    centralizer_algebra,
    hecke_check,
    nilpotent_free_check,
)
from .errors import InputError
from .exactlin import PrimeField
from .perm import group_theoretic_checks

AXIOM_SUITE_SPECS = [
    "sym:5",
    "alt:5",
    "altpairs:7",
    "signtwist:3",
    "signtwist:4",
    "signtwist:5",
    "frobenius:7,3",
    "frobenius:7,6",
    "frobenius:5,2",
    "example3_2",
    "psl2line:4",
    "psl2line:8",
    "psl2line:32",
    "psl2cosets:8",
]

TWO_TRANSITIVE_SWEEP = ["sym:5", "alt:6", "psl2line:4", "psl2line:8", "frobenius:7,6"]

SWEEP_PRIMES = [2, 3, 5, 7, 11, 13]


@dataclass
class CriterionResult:
    key: str
    passed: bool
    details: list[str] = field(default_factory=list)

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.key}"


class _Checker:
    def __init__(self, key):
        self.key = key
        self.checks: list[tuple[bool, str]] = []

    def expect(self, ok: bool, what: str):
        self.checks.append((bool(ok), what))

    def expect_eq(self, got, want, what: str):
        self.expect(got == want, f"{what}: got {got!r}, want {want!r}")

    def expect_within(self, dt: float, bound: float, what: str):
        """A runtime bound.  The label names the bound only, so that passing
        output is free of timings; a failure also gives the measured time."""
        ok = dt < bound
        self.expect(ok, f"{what} < {bound:g}s" + ("" if ok else f" (measured {dt:.3f}s)"))

    def result(self) -> CriterionResult:
        details = [f"{'ok' if ok else 'FAIL'}: {what}" for ok, what in self.checks]
        return CriterionResult(self.key, all(ok for ok, _ in self.checks), details)


class SuiteContext:
    """Shared instance/analysis cache for one suite run."""

    def __init__(self, seed: int = 0, corrupt: bool = False):
        self.seed = seed
        self.corrupt = corrupt
        self._analyses = {}
        self._instances = {}

    def instance(self, spec: str):
        if spec not in self._instances:
            actual = spec
            if self.corrupt and spec == "frobenius:7,3":
                actual = "frobenius:7,6"  # negative control: wrong multiplier group
            self._instances[spec] = build_instance(actual)
        return self._instances[spec]

    def configuration(self, spec: str):
        """The analysis pipeline's cached configuration stage for spec."""
        return configuration(self.instance(spec))

    def analyze(self, spec: str, p: int, oracle: bool = False):
        key = (spec, p, oracle)
        if key not in self._analyses:
            self._analyses[key] = run_analysis(
                spec, p, seed=self.seed, oracle=oracle, instance=self.instance(spec)
            )
        return self._analyses[key]


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def crit_alt7_pairs(ctx: SuiteContext) -> CriterionResult:
    c = _Checker("alt7-pairs")
    for p in (2, 3, 5, 7):
        rep, dt = _timed(lambda: ctx.analyze("altpairs:7", p))
        c.expect_eq(rep.degree, 21, f"degree at p={p}")
        c.expect_eq(rep.classification.rank, 3, f"rank at p={p}")
        c.expect_eq(sorted(rep.classification.subdegrees), [1, 10, 10], f"subdegrees at p={p}")
        c.expect(rep.verdict.is_positive(), f"symmetric verdict at p={p} ({rep.verdict.status})")
        c.expect_within(dt, 1.0, f"runtime at p={p}")
    return c.result()


def crit_affine_shear(ctx: SuiteContext) -> CriterionResult:
    c = _Checker("affine-shear")
    rep, dt = _timed(lambda: ctx.analyze("example3_2", 3))
    c.expect_eq(sorted(rep.classification.subdegrees), [1, 1, 1, 3, 3], "subdegrees")
    c.expect_eq(rep.algebra_dim, 5, "algebra dimension")
    c.expect_eq(
        rep.schur["basic_set_sums"],
        ["1", "a", "a2", "b+ab+a2b", "b2+ab2+a2b2"],
        "basic-set sums",
    )
    c.expect_eq(rep.verdict.status, "not_symmetric", "verdict")
    c.expect(
        (rep.verdict.certificate or {}).get("socle_criterion")
        == {"top_dim": 1, "left_socle_dim": 3, "right_socle_dim": 3},
        "socle criterion: top 1, socle 3",
    )
    c.expect_within(dt, 1.0, "runtime")
    # The basic-set sums above fix the radical series and the socle.  Over
    # F_3, 1 + a + a2 = (a - 1)^2 =: N; the local algebra is span{1, a, a2,
    # bN, b2N} with radical J = span{a - 1, N, bN, b2N}, so dim J = 4 and the
    # top A/J has dimension 1.
    # In J, (a - 1)^2 = N, while (a - 1)N = a^3 - 1 = 0 and N^2 = 3N = 0, so
    # every other product vanishes: J^2 = span{N} and J^3 = 0.
    # The socle {x : Jx = 0} is span{N, bN, b2N}, since (a - 1)bN = b(a - 1)N
    # = 0 and N^2 = 0, while a - 1 is not in it, as (a - 1)^2 = N.  A
    # Frobenius algebra's socle has its top's dimension, and 3 != 1.
    # The value [5, 4, 2, 0] stated earlier for this series is wrong.
    c.expect_eq(
        list(rep.radical_dims), [5, 4, 1, 0], "derived radical power dimensions dim J^k"
    )
    return c.result()


def crit_sign_twist_family(ctx: SuiteContext) -> CriterionResult:
    c = _Checker("sign-twist-family")
    for n in (3, 4, 5):
        def one():
            spec = f"signtwist:{n}"
            return ctx.instance(spec), ctx.configuration(spec).classification

        (inst, cls), dt = _timed(one)
        c.expect_eq(inst.group.degree, (n + 1) * (n + 2) // 2, f"degree at n={n}")
        c.expect_eq(
            sorted(cls.subdegrees), sorted([1, 2 * n, n * (n - 1) // 2]),
            f"subdegrees at n={n}",
        )
        # |A_(n+2)| = (n+2)!/2: the coset action is faithful on A_(n+2)
        c.expect(inst.group.order() == math.factorial(n + 2) // 2, f"faithful at n={n}")
        c.expect_within(dt, 2.0, f"runtime at n={n}")
    rep, dt = _timed(lambda: ctx.analyze("signtwist:5", 5))
    c.expect(rep.verdict.is_positive(), f"symmetric verdict at (n,p)=(5,5) ({rep.verdict.status})")
    c.expect_within(dt, 2.0, "runtime of the (5,5) analysis")
    return c.result()


def crit_psl2_dihedral(ctx: SuiteContext) -> CriterionResult:
    c = _Checker("psl2-dihedral")

    def q8():
        rep = ctx.analyze("psl2cosets:8", 3)
        checks = group_theoretic_checks(ctx.instance("psl2cosets:8").group, 0, 3)
        return rep, checks

    (rep, checks), dt = _timed(q8)
    c.expect_eq(rep.degree, 28, "degree of psl2cosets:8")
    c.expect(rep.classification.three_halves_transitive, "3/2-transitivity of psl2cosets:8")
    nontrivial = [d for d in rep.classification.subdegrees if d != 1]
    c.expect(all(d == 9 for d in nontrivial) and nontrivial, "nontrivial subdegrees all 9")
    c.expect_eq(rep.group_order, 504, "group order 504")
    c.expect(rep.verdict.is_positive(), f"symmetric verdict over F_3 ({rep.verdict.status})")
    c.expect_eq(checks.max_conjugate_intersection, 2, "max conjugate intersection")
    c.expect(checks.normalizer_in_stabilizer, "Sylow normalizer contained in the stabilizer")
    c.expect_within(dt, 5.0, "runtime for psl2cosets:8")

    ctx.instance("psl2cosets:32")  # group construction excluded from the pipeline bound
    rep3, dt3 = _timed(lambda: ctx.analyze("psl2cosets:32", 3))
    rep11, dt11 = _timed(lambda: ctx.analyze("psl2cosets:32", 11))
    c.expect_eq(rep3.degree, 496, "degree of psl2cosets:32")
    c.expect(rep3.verdict.is_positive(), f"symmetric verdict over F_3 ({rep3.verdict.status})")
    c.expect(rep11.verdict.is_positive(), f"symmetric verdict over F_11 ({rep11.verdict.status})")
    c.expect_within(dt3 + dt11, 60.0, "pipeline runtime for psl2cosets:32")
    return c.result()


def crit_frobenius(ctx: SuiteContext) -> CriterionResult:
    c = _Checker("frobenius")

    def run():
        rep3 = ctx.analyze("frobenius:7,3", 3)
        rep7 = ctx.analyze("frobenius:7,3", 7)
        hk = hecke_check(ctx.instance("frobenius:7,3").group, 0)
        return rep3, rep7, hk

    (rep3, rep7, hk), dt = _timed(run)
    c.expect_eq(sorted(rep3.classification.subdegrees), [1, 3, 3], "subdegrees")
    c.expect(rep3.verdict.is_positive(), f"symmetric verdict over F_3 ({rep3.verdict.status})")
    c.expect(rep7.verdict.is_positive(), f"symmetric verdict over F_7 ({rep7.verdict.status})")
    c.expect_eq(hk, 3, "double-coset span dimension over F_7")
    c.expect(hk == rep7.classification.rank, "double-coset dimension equals the rank")
    c.expect_within(dt, 1.0, "runtime")
    return c.result()


def crit_config_axioms(ctx: SuiteContext) -> CriterionResult:
    c = _Checker("config-axioms")
    for spec in AXIOM_SUITE_SPECS:
        config = ctx.configuration(spec)
        rep = verify_cc_axioms(config.cc, config.tensor)
        c.expect(rep.passed, f"axioms and triangle identity for {spec}")
        passed, detail = adjacency_product_check(config.cc, config.tensor,
                                                 ctx.instance(spec).group.generators)
        c.expect(passed, f"integer adjacency product identity for {spec} ({detail})")
    return c.result()


def crit_oracle_equivalence(ctx: SuiteContext) -> CriterionResult:
    c = _Checker("oracle-equivalence")
    for spec in AXIOM_SUITE_SPECS:
        rank = ctx.configuration(spec).cc.m
        for p in (2, 3, 5, 7):
            dim = ctx.analyze(spec, p, oracle=True).checks["oracle_dim"]
            c.expect_eq(dim, rank, f"oracle dimension for {spec} at p={p}")
    return c.result()


def crit_schur_correspondence(ctx: SuiteContext) -> CriterionResult:
    c = _Checker("schur-correspondence")
    rep_a = ctx.analyze("example3_2", 3)
    c.expect(rep_a.schur is not None and rep_a.schur["iso_pass"],
             "Schur correspondence for example3_2 over F_3")
    rep_b = ctx.analyze("frobenius:7,3", 3)
    c.expect(rep_b.schur is not None and rep_b.schur["iso_pass"],
             "Schur correspondence for frobenius:7,3 over F_3")
    rep5 = ctx.analyze("frobenius:7,3", 5)
    c.expect(rep5.schur is not None and rep5.schur["iso_pass"],
             "Schur correspondence for frobenius:7,3 over F_5")
    c.expect_eq(list(rep5.radical_dims), [3, 0], "semisimple radical series over F_5")
    config = ctx.configuration("frobenius:7,3")
    # the configuration's checks prove the constants associative with the
    # unit over Z (see analysis.configuration), so they hold mod 5 unproven
    alg = centralizer_algebra(config.cc, config.tensor, PrimeField(5))
    c.expect(nilpotent_free_check(alg), "no nonzero nilpotents over F_5")
    return c.result()


def crit_overgroup_equal_rank(ctx: SuiteContext) -> CriterionResult:
    c = _Checker("overgroup-equal-rank")
    cfg_a = ctx.configuration("altpairs:7")
    cfg_s = ctx.configuration("sympairs:7")
    c.expect(np.array_equal(cfg_a.cc.orbital_of, cfg_s.cc.orbital_of), "identical orbital tables")
    c.expect(np.array_equal(cfg_a.tensor, cfg_s.tensor), "identical intersection tensors")
    for p in (2, 5):
        rep_a = ctx.analyze("altpairs:7", p)
        rep_s = ctx.analyze("sympairs:7", p)
        same = (
            rep_a.verdict.status == rep_s.verdict.status
            and rep_a.verdict.method == rep_s.verdict.method
            and (rep_a.verdict.witness is None) == (rep_s.verdict.witness is None)
            and (rep_a.verdict.witness is None
                 or np.array_equal(rep_a.verdict.witness, rep_s.verdict.witness))
        )
        c.expect(same, f"identical verdicts at p={p}")
    return c.result()


def crit_three_halves_sweep(ctx: SuiteContext) -> CriterionResult:
    c = _Checker("three-halves-sweep")
    t0 = time.perf_counter()
    specs = ["altpairs:7", "psl2cosets:8", "frobenius:7,3", "frobenius:5,2"] + TWO_TRANSITIVE_SWEEP
    for spec in specs:
        cls = ctx.analyze(spec, SWEEP_PRIMES[0]).classification
        c.expect(cls.three_halves_transitive, f"{spec} is 3/2-transitive")
        for p in SWEEP_PRIMES:
            rep = ctx.analyze(spec, p)
            c.expect(
                rep.verdict.status != "not_symmetric",
                f"no negative verdict for {spec} at p={p}",
            )
            c.expect(
                rep.verdict.is_positive(),
                f"certified positive for {spec} at p={p} ({rep.verdict.status})",
            )
    for p in SWEEP_PRIMES:
        rep = ctx.analyze("sympairs:7", p)
        c.expect(rep.verdict.is_positive(), f"certified positive for sympairs:7 at p={p}")
    dt = time.perf_counter() - t0
    c.expect_within(dt, 300.0, "sweep runtime")
    return c.result()


def crit_invertible_valency_form(ctx: SuiteContext) -> CriterionResult:
    c = _Checker("invertible-valency-form")
    for spec in AXIOM_SUITE_SPECS:
        for p in SWEEP_PRIMES:
            rep = ctx.analyze(spec, p)
            if any(d % p == 0 for d in rep.classification.subdegrees):
                continue
            c.expect(
                rep.natural_form_symmetric and rep.natural_form_nondegenerate,
                f"form symmetric and nondegenerate for {spec} at p={p}",
            )
            c.expect_eq(rep.verdict.method, "natural_form", f"short-circuit for {spec} at p={p}")
    return c.result()


CRITERIA = [
    ("alt7-pairs", crit_alt7_pairs),
    ("affine-shear", crit_affine_shear),
    ("sign-twist-family", crit_sign_twist_family),
    ("psl2-dihedral", crit_psl2_dihedral),
    ("frobenius", crit_frobenius),
    ("config-axioms", crit_config_axioms),
    ("oracle-equivalence", crit_oracle_equivalence),
    ("schur-correspondence", crit_schur_correspondence),
    ("overgroup-equal-rank", crit_overgroup_equal_rank),
    ("three-halves-sweep", crit_three_halves_sweep),
    ("invertible-valency-form", crit_invertible_valency_form),
]


def run_all(seed: int = 0, corrupt: bool = False, only: list[str] | None = None):
    if seed < 0:
        raise InputError(f"seed {seed} is negative")
    if only:
        known = {key for key, _ in CRITERIA}
        unknown = sorted(set(only) - known)
        if unknown:
            raise InputError(f"unknown criteria {unknown}; known: {sorted(known)}")
    ctx = SuiteContext(seed=seed, corrupt=corrupt)
    results = []
    for key, fn in CRITERIA:
        if only and key not in only:
            continue
        try:
            results.append(fn(ctx))
        except Exception as exc:  # a crash is a failing criterion, not a crashed suite
            results.append(CriterionResult(key, False, [f"FAIL: raised {exc!r}"]))
    return results


def render(results, verbose: bool = False) -> str:
    lines = []
    for r in results:
        lines.append(r.line())
        shown = r.details if verbose else [d for d in r.details if d.startswith("FAIL")]
        lines.extend(f"    {d}" for d in shown)
    n_pass = sum(1 for r in results if r.passed)
    lines.append(f"{n_pass}/{len(results)} criteria passed")
    return "\n".join(lines) + "\n"
