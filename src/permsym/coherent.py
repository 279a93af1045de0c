"""Orbital (2-orbit) configurations of permutation groups: the partition of
the pair set, per-orbital metadata, adjacency matrices, and the full
intersection-number tensor, together with the axiom and identity checks that
every configuration built from a group must satisfy.
"""

import random
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import InputError
from .perm import PermutationGroup, orbits

TWO_ORBIT_DEGREE_CAP = 1000
ADJACENCY_CHECK_DEGREE_CAP = 100


@dataclass(frozen=True)
class CoherentConfiguration:
    n: int
    m: int
    orbital_of: np.ndarray        # (n, n) int32, entry = orbital index of the pair
    valency: np.ndarray           # (m,) int64
    star: np.ndarray              # (m,) int64, index of the transposed orbital
    reflexive: np.ndarray         # (m,) bool
    support_orbit: np.ndarray     # (m,) int64, point-orbit index of the rows
    rep: np.ndarray               # (m, 2) int64, least pair of each orbital
    point_orbit_of: np.ndarray    # (n,) int64
    point_orbit_sizes: tuple[int, ...]

    def pairs_of(self, s: int) -> np.ndarray:
        """All pairs of an orbital, as an (k, 2) array in row-major order."""
        rows, cols = np.nonzero(self.orbital_of == s)
        return np.stack([rows, cols], axis=1)


def two_orbits(G: PermutationGroup, cap: int = TWO_ORBIT_DEGREE_CAP) -> CoherentConfiguration:
    """Partition the pair set into orbits of the diagonal action, using only
    the generators (no group enumeration).  Orbitals are sorted reflexive
    first, then by valency, then by least pair, and renumbered."""
    n = G.degree
    if n > cap:
        raise InputError(f"degree {n} exceeds the pair-table cap {cap}")
    gen_images = np.array([g.images for g in G.generators], dtype=np.int64)
    if gen_images.size == 0:
        gen_images = gen_images.reshape(0, n)
    labels = _kernels.pair_orbit_labels(gen_images)
    uniq, inverse = np.unique(labels, return_inverse=True)
    m = len(uniq)
    table = inverse.reshape(n, n)

    point_orbs = orbits(G.generators, n)
    point_orbit_of = np.empty(n, dtype=np.int64)
    for oi, orb in enumerate(point_orbs):
        for x in orb:
            point_orbit_of[x] = oi

    reps = np.stack([uniq // n, uniq % n], axis=1)
    valency = np.empty(m, dtype=np.int64)
    reflexive = np.zeros(m, dtype=bool)
    for s in range(m):
        a = int(reps[s, 0])
        valency[s] = int(np.count_nonzero(table[a] == s))
    diag = table[np.arange(n), np.arange(n)]
    reflexive[np.unique(diag)] = True

    # sort: reflexive first, then valency, then least pair
    order = sorted(range(m), key=lambda s: (not reflexive[s], int(valency[s]), int(uniq[s])))
    renumber = np.empty(m, dtype=np.int64)
    for new, old in enumerate(order):
        renumber[old] = new
    table = renumber[table].astype(np.int32)
    valency = valency[order]
    reflexive = reflexive[order]
    reps = reps[order]
    star = np.empty(m, dtype=np.int64)
    support = np.empty(m, dtype=np.int64)
    for s in range(m):
        a, b = int(reps[s, 0]), int(reps[s, 1])
        star[s] = table[b, a]
        support[s] = point_orbit_of[a]
    return CoherentConfiguration(
        n=n,
        m=m,
        orbital_of=table,
        valency=valency,
        star=star,
        reflexive=reflexive,
        support_orbit=support,
        rep=reps,
        point_orbit_of=point_orbit_of,
        point_orbit_sizes=tuple(len(o) for o in point_orbs),
    )


def intersection_tensor(cc: CoherentConfiguration) -> np.ndarray:
    """C[t, r, s] = number of gamma with (alpha, gamma) in r and (gamma, beta)
    in s, for the stored representative (alpha, beta) of t."""
    m, n = cc.m, cc.n
    C = np.zeros((m, m, m), dtype=np.int64)
    for t in range(m):
        a, b = int(cc.rep[t, 0]), int(cc.rep[t, 1])
        np.add.at(C[t], (cc.orbital_of[a, :], cc.orbital_of[:, b]), 1)
    return C


def _tensor_row_from_pair(cc: CoherentConfiguration, a: int, b: int) -> np.ndarray:
    row = np.zeros((cc.m, cc.m), dtype=np.int64)
    np.add.at(row, (cc.orbital_of[a, :], cc.orbital_of[:, b]), 1)
    return row


@dataclass(frozen=True)
class AxiomReport:
    passed: bool
    failures: tuple[str, ...]


def verify_cc_axioms(cc: CoherentConfiguration, tensor: np.ndarray,
                     trials: int = 3, seed: int = 0) -> AxiomReport:
    """Check the defining axioms of the configuration plus the valency-weighted
    triangle identity |t| C[t*,r,s] = |r| C[r*,s,t] = |s| C[s*,t,r], where |s|
    is the pair-set cardinality valency(s) * |support(s)|.

    Axioms (1) and (2) are checked on every pair; axiom (3) (independence of
    the representative) is spot-checked on `trials` random pairs per orbital.
    Failures indicate an implementation bug, never valid output.
    """
    failures = []
    n, m = cc.n, cc.m

    # (1) the diagonal is exactly the union of the reflexive orbitals
    bad = np.argwhere(cc.reflexive[cc.orbital_of] != np.eye(n, dtype=bool))
    if len(bad):
        a, b = map(int, bad[0])
        if a == b:
            failures.append("diagonal pair assigned to a non-reflexive orbital")
        else:
            failures.append(
                f"reflexive orbital {cc.orbital_of[a, b]} contains off-diagonal pair ({a}, {b})"
            )

    # (2) closure under transposition
    bad = np.argwhere(cc.orbital_of.T != cc.star[cc.orbital_of])
    if len(bad):
        a, b = map(int, bad[0])
        failures.append(
            f"transpose of pair ({a}, {b}) leaves orbital {cc.star[cc.orbital_of[a, b]]}"
        )

    # (3) intersection numbers independent of the representative
    rng = random.Random(seed)
    for t in range(m):
        pairs = cc.pairs_of(t)
        idx = [rng.randrange(len(pairs)) for _ in range(min(trials, len(pairs)))]
        for k in idx:
            a, b = map(int, pairs[k])
            row = _tensor_row_from_pair(cc, a, b)
            if not np.array_equal(row, tensor[t]):
                failures.append(
                    f"intersection numbers for orbital {t} depend on the representative "
                    f"(pair ({a}, {b}))"
                )
                break

    # triangle identity
    size = cc.valency * np.array([cc.point_orbit_sizes[int(o)] for o in cc.support_orbit])
    star = cc.star
    lhs = size[:, None, None] * tensor[star, :, :]  # |t| C[t*, r, s] with axes (t, r, s)
    mid = np.einsum("r,rst->trs", size, tensor[star, :, :])
    rhs = np.einsum("s,str->trs", size, tensor[star, :, :])
    if not (np.array_equal(lhs, mid) and np.array_equal(mid, rhs)):
        bad = np.argwhere((lhs != mid) | (mid != rhs))[0]
        t, r, s = map(int, bad)
        failures.append(
            f"triangle identity fails at (t={t}, r={r}, s={s}): "
            f"{int(lhs[t, r, s])}, {int(mid[t, r, s])}, {int(rhs[t, r, s])}"
        )
    return AxiomReport(passed=not failures, failures=tuple(failures))


def adjacency_matrices(cc: CoherentConfiguration) -> list[np.ndarray]:
    """0/1 adjacency matrix per orbital (encodings are field-independent)."""
    return [(cc.orbital_of == s).astype(np.int64) for s in range(cc.m)]


def adjacency_product_check(cc: CoherentConfiguration, tensor: np.ndarray,
                            cap_degree: int = ADJACENCY_CHECK_DEGREE_CAP):
    """Exact integer check that A_r A_s = sum_t C[t,r,s] A_t for all r, s.
    Returns (checked, passed, detail): checked is False above the degree cap.

    Row a of every product at once: (A_r A_s)[a, b] counts the c with
    (a, c) in r and (c, b) in s, one bincount over (b, r, s); the right-hand
    side at (a, b) is the tensor row of the orbital of (a, b).  A failure
    names the first (r, s) in r-major order."""
    n, m = cc.n, cc.m
    if n > cap_degree:
        return False, True, f"skipped: degree {n} above cap {cap_degree}"
    table = cc.orbital_of.astype(np.int64)
    rhs_rows = tensor.reshape(m, m * m)
    offsets = np.arange(n, dtype=np.int64) * (m * m)
    failed = np.zeros(m * m, dtype=bool)
    for a in range(n):
        # keys[c, b] = (b, r = orbital of (a, c), s = orbital of (c, b))
        keys = table[a][:, None] * m + table + offsets
        lhs = np.bincount(keys.ravel(), minlength=n * m * m).reshape(n, m * m)
        failed |= (lhs != rhs_rows[table[a]]).any(axis=0)
    if failed.any():
        r, s = divmod(int(np.flatnonzero(failed)[0]), m)
        return True, False, f"product identity fails at (r={r}, s={s})"
    return True, True, None
