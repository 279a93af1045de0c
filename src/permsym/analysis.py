"""The full analysis pipeline behind the CLI, in two stages.  The
configuration stage builds a group from a spec string, computes its orbital
configuration, reads the classification of the action off it, and proves the
integer structure constants and the Schur ring correspondence, once per group.
The per-prime stage reduces the constants mod p, builds the centralizer algebra
over F_p, decides symmetry, and bundles everything into a deterministic report.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .catalog import CatalogInstance, build_instance
from .coherent import (
    CoherentConfiguration,
    adjacency_product_check,
    intersection_tensor,
    two_orbits,
)
from .endo import (
    ALGEBRA_DIM_CAP,
    StructureReport,
    SymmetricVerdict,
    centralizer_algebra,
    centralizer_oracle,
    is_symmetric,
    natural_form,
    radical_chain,
    schur_vs_centralizer,
    structure_report,
)
from .errors import InputError, VerificationError
from .exactlin import PrimeField
from .perm import ActionClassification, PermutationGroup, classify_action, orbits


@dataclass
class AnalysisReport:
    group_spec: str
    degree: int
    group_order: int
    classification: ActionClassification
    orbital_count: int
    valencies: tuple[int, ...]
    characteristic: int
    algebra_dim: int
    natural_form_symmetric: bool
    natural_form_nondegenerate: bool
    radical_dims: tuple[int, ...]
    structure: StructureReport
    verdict: SymmetricVerdict
    schur: dict | None
    checks: dict
    seed: int
    timings_ms: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "group_spec": self.group_spec,
            "degree": self.degree,
            "group_order": self.group_order,
            "classification": {
                "transitive": self.classification.transitive,
                "orbit_sizes": sorted(self.classification.orbit_sizes),
                "subdegrees": sorted(self.classification.subdegrees),
                "rank": self.classification.rank,
                "half_transitive": self.classification.half_transitive,
                "three_halves_transitive": self.classification.three_halves_transitive,
                "primitive": self.classification.primitive,
                "faithful": self.classification.faithful,
            },
            "orbital_count": self.orbital_count,
            "valencies": sorted(self.valencies),
            "characteristic": self.characteristic,
            "algebra_dim": self.algebra_dim,
            "natural_form": {
                "gram_symmetric": self.natural_form_symmetric,
                "gram_nondegenerate": self.natural_form_nondegenerate,
            },
            "radical_dims": list(self.radical_dims),
            "structure": {
                "top_dim": self.structure.top_dim,
                "left_socle_dim": self.structure.left_socle_dim,
                "right_socle_dim": self.structure.right_socle_dim,
                "is_local": self.structure.is_local,
                "commutative": self.structure.commutative,
            },
            "symmetric_verdict": {
                "status": self.verdict.status,
                "method": self.verdict.method,
                "witness": None
                if self.verdict.witness is None
                else [int(v) for v in self.verdict.witness],
                "certificate": self.verdict.certificate,
                "notes": self.verdict.notes,
            },
            "schur": self.schur,
            "checks": self.checks,
            "seed": self.seed,
            "timings_ms": self.timings_ms,
        }

    def to_json(self) -> str:
        import json  # only JSON output needs it
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        d = self.to_dict()
        cls = d["classification"]
        lines = [
            f"group      : {self.group_spec} (degree {self.degree}, order {self.group_order})",
            f"action     : transitive={cls['transitive']} rank={cls['rank']} "
            f"subdegrees={cls['subdegrees']} primitive={cls['primitive']} "
            f"3/2-transitive={cls['three_halves_transitive']} faithful={cls['faithful']}",
            f"orbitals   : {self.orbital_count} with valencies {d['valencies']}",
            f"algebra    : dim {self.algebra_dim} over F_{self.characteristic}; "
            f"radical dims {list(self.radical_dims)}",
            f"structure  : top {self.structure.top_dim}, socle (l/r) "
            f"{self.structure.left_socle_dim}/{self.structure.right_socle_dim}, "
            f"local={self.structure.is_local}, commutative={self.structure.commutative}",
            f"pairing    : gram symmetric={self.natural_form_symmetric} "
            f"nondegenerate={self.natural_form_nondegenerate}",
            f"verdict    : {self.verdict.status} (method {self.verdict.method})",
            f"             {self.verdict.notes}",
        ]
        if self.schur is not None:
            lines.append(
                f"schur ring : match={self.schur['iso_pass']} "
                f"basic sums {self.schur['basic_set_sums']}"
            )
        if "oracle_dim" in self.checks:
            lines.append(
                f"oracle     : centralizer dimension {self.checks['oracle_dim']} "
                f"(matches={self.checks['oracle_matches']})"
            )
        if "hecke" in self.checks:
            h = self.checks["hecke"]
            lines.append(
                f"hecke      : dim {h['hecke_dim']} vs rank {h['rank']} "
                f"(matches={h['matches_rank']})"
            )
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Configuration:
    """The p-independent facts of a transitive action, each computed and
    proved once.  Every array is read-only, because one configuration serves
    the analyses at every characteristic.  ``checks`` keeps only the oracle
    dimension, as ``oracle``, once a run of ``run_analysis`` has checked it."""

    order: int
    cc: CoherentConfiguration
    classification: ActionClassification
    tensor: np.ndarray                  # (m, m, m) integer intersection numbers
    schur: tuple[str, ...] | None       # basic-set sums; None without a regular normal subgroup
    checks: dict = field(default_factory=dict, compare=False)


def _clock(timings: dict | None, name: str, fn):
    t0 = time.perf_counter()
    out = fn()
    if timings is not None:
        timings[name] = round((time.perf_counter() - t0) * 1000.0, 3)
    return out


def configuration(instance: CatalogInstance, timings: dict | None = None) -> Configuration:
    """The configuration stage of the analysis: the group order, the orbital
    configuration, the count of the point stabilizer's orbits against the
    orbitals, the row-0 facts of the table, the integer intersection tensor,
    the adjacency product identity on every pair, the classification read
    off the proven tensor, and, for an instance with a regular normal
    subgroup T, the Schur ring correspondence over Z, whose basic-set sums
    become ``schur``.  These checks imply the configuration axioms and that
    the constants are associative with the unit over Z, so neither is
    checked again (see below).  The Schur check needs no stabilizer chain
    for T: it sifts T's generators through G's chain, and one transversal of
    T proves T regular and lists it (see ``schur_vs_centralizer``).  More
    than ALGEBRA_DIM_CAP orbitals are refused right after ``two_orbits``.
    It is built once per instance and kept on it; a failure raises and is
    not kept.  Only a build records its stage timings into ``timings``."""
    if instance.configuration is not None:
        return instance.configuration
    G = instance.group
    # two_orbits refuses an intransitive group
    cc = _clock(timings, "two_orbits", lambda: two_orbits(G))
    # m is the algebra's dimension at every p: refuse it before the m^3 tensor
    if cc.m > ALGEBRA_DIM_CAP:
        raise InputError(f"algebra dimension {cc.m} exceeds cap {ALGEBRA_DIM_CAP}")
    order = _clock(timings, "order", G.order)
    # The strong generators stored at chain levels >= 1 generate a subgroup
    # K of the stabilizer G_0 of the first base point, so K has at least as
    # many orbits as G_0, whose orbits correspond to the orbitals of G.
    stabilizer_gens = [g for lv in G.chain.levels[1:] for g in lv.gens]
    suborbits = len(orbits(stabilizer_gens, G.degree))
    if suborbits != cc.m:
        raise VerificationError(
            f"the point stabilizer has {suborbits} orbits, but there are {cc.m} orbitals"
        )
    table = cc.orbital_of
    if table[0, 0] != 0 or not np.array_equal(np.bincount(table[0], minlength=cc.m), cc.valency):
        raise VerificationError("row 0 of the orbital table does not match the valencies")

    tensor = _clock(timings, "tensor", lambda: intersection_tensor(cc))
    adj_passed, adj_detail = _clock(
        timings, "adjacency_identity",
        lambda: adjacency_product_check(cc, tensor, G.generators),
    )
    if not adj_passed:
        raise VerificationError(f"adjacency product identity failed: {adj_detail}")
    # These checks prove that the labels are the orbitals, so the axioms of
    # verify_cc_axioms hold and it does not run:
    # - every generator preserves the labels (adjacency_product_check), so
    #   each label class is a union of orbitals;
    # - row 0 holds all m labels, so there are m classes;
    # - K <= G_0 has m orbits, so there are at most m orbitals;
    # - so each class is one orbital: orbital 0, holding (0, 0), is the
    #   diagonal (axiom (1)), the transpose of an orbital is an orbital
    #   (axiom (2)), and each side of the triangle identity counts the
    #   triangles whose sides lie in orbitals r, s and t.
    # They also prove that the constants are associative with the unit over
    # Z, at every m (Higman, Coherent configurations I, 1975):
    # - the A_t are 0/1 matrices with disjoint supports, and every label
    #   occurs in row 0, so no A_t is zero and they are linearly independent;
    # - matrix multiplication is associative, so expanding (A_r A_s) A_u and
    #   A_r (A_s A_u) through the proven identity A_r A_s = sum_t C[t,r,s] A_t
    #   and comparing coefficients gives the associativity of C;
    # - A_0 = I, and I A_s = A_s = A_s I gives the unit on both sides.
    classification = _clock(timings, "classify", lambda: classify_action(cc, tensor))

    schur = None
    if instance.regular is not None:
        T = PermutationGroup(G.degree, instance.regular.gens)
        schur = _clock(
            timings, "schur",
            lambda: schur_vs_centralizer(G, T, cc, tensor,
                                         point_names=instance.regular.point_names),
        )

    for value in (*vars(cc).values(), tensor):
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    config = Configuration(order, cc, classification, tensor, schur)
    # the instance is frozen; its configuration slot is a cache, not part of its value
    object.__setattr__(instance, "configuration", config)
    return config


def _oracle_dim(G: PermutationGroup, cc: CoherentConfiguration) -> int:
    """The number of pair orbits by union-find; raises unless they are the orbitals."""
    n = G.degree
    labels = centralizer_oracle(G)
    # the least pair of each pair's orbital, the oracle's contract
    expected = (cc.rep[:, 0] * n + cc.rep[:, 1])[cc.orbital_of]
    if not np.array_equal(labels, expected):
        a, b = (int(v) for v in np.argwhere(labels != expected)[0])
        raise VerificationError(
            f"centralizer oracle puts pair ({a}, {b}) with pair index "
            f"{labels[a, b]}, its orbital with pair index {expected[a, b]}"
        )
    # each component's least pair is its own label
    return int(np.count_nonzero(labels.ravel() == np.arange(n * n)))


def run_analysis(spec: str, p: int, seed: int = 0, oracle: bool = False,
                 instance: CatalogInstance | None = None) -> AnalysisReport:
    """Run the whole pipeline on a group spec and characteristic.  Raises
    InputError on bad input (intransitive action, composite or too large
    characteristic, negative seed) and VerificationError when an internal
    consistency check fails.

    The p-independent stage comes from ``configuration(instance)``, which is
    kept on the instance.  Catalog instances are process-wide
    (``build_instance`` caches them), so a second analysis of the same group
    reuses the first one's configuration, whatever its seed, and its
    ``timings_ms`` has no configuration-stage keys.  So too the oracle: only
    the analysis that runs it times it.  The seed drives
    only the witness search of ``is_symmetric``.  A test that injects a fault
    into that stage must pass a fresh instance
    (``dataclasses.replace(inst)``)."""
    fieldp = PrimeField(p)
    if seed < 0:
        raise InputError(f"seed {seed} is negative")
    timings = {}

    def clock(name, fn):
        return _clock(timings, name, fn)

    if instance is None:
        instance = clock("build", lambda: build_instance(spec))
    G = instance.group
    config = configuration(instance, timings)
    cc, order = config.cc, config.order

    # No associativity proof runs on any path of the analysis.  The
    # configuration stage's checks imply associativity and the unit over Z,
    # and reduction Z -> F_p is a ring map, so they hold mod p.
    alg = clock("algebra", lambda: centralizer_algebra(cc, config.tensor, fieldp))
    form = clock("natural_form", lambda: natural_form(alg))
    series = clock("radical", lambda: radical_chain(alg))
    structure = clock("structure", lambda: structure_report(alg, series))
    verdict = clock("verdict", lambda: is_symmetric(alg, hint=form, structure=structure,
                                                    seed=seed))

    # the configuration stage raises unless its checks hold, and those imply
    # the axioms, associativity and the unit
    checks = {
        "cc_axioms": True,
        "adjacency_product_identity": True,
        "associativity": True,
    }
    if oracle:
        if "oracle" not in config.checks:  # it reads no p; kept unless it raises
            config.checks["oracle"] = clock("oracle", lambda: _oracle_dim(G, cc))
        checks["oracle_dim"] = config.checks["oracle"]
        checks["oracle_matches"] = True
        # for p prime to |H| = |G| / n, H = G_alpha, the Hecke dimension is
        # |H\G/H| (see hecke_check), and HgH -> (alpha^g)^H is one to one onto
        # the H-orbits, which the configuration stage proved are cc.m
        if order // G.degree % p != 0:
            checks["hecke"] = {"hecke_dim": cc.m, "rank": cc.m, "matches_rank": True}

    return AnalysisReport(
        group_spec=instance.spec,
        degree=G.degree,
        group_order=order,
        classification=config.classification,
        orbital_count=cc.m,
        valencies=tuple(int(v) for v in cc.valency),
        characteristic=p,
        algebra_dim=alg.dim,
        natural_form_symmetric=form.symmetric,
        natural_form_nondegenerate=form.nondegenerate,
        radical_dims=series.dims,
        structure=structure,
        verdict=verdict,
        # the Schur check raises unless its orbital-to-basic-set map is a
        # bijection, so both counts are cc.m
        schur=None if config.schur is None else {
            "iso_pass": True,
            "orbital_count": cc.m,
            "basic_set_count": cc.m,
            "basic_set_sums": list(config.schur),
        },
        checks=checks,
        seed=seed,
        timings_ms=timings,
    )
