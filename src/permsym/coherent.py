"""Orbital (2-orbit) configurations of transitive permutation groups: the
partition of the pair set, read off the stabilizer chain, per-orbital
metadata, and the full intersection-number tensor, together with the axiom
and identity checks that every configuration built from a group must
satisfy.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .perm import PermutationGroup, orbits

# cells (b, r, s) counted by one bincount of adjacency_product_check
PRODUCT_BLOCK_CELLS = 1 << 22


@dataclass(frozen=True)
class CoherentConfiguration:
    """The orbitals of a transitive group on n points, numbered 0..m-1 with
    orbital 0 the diagonal, so A_0 = I is the unit of the orbital algebra."""

    n: int
    m: int
    orbital_of: np.ndarray        # (n, n) int32, entry = orbital index of the pair
    valency: np.ndarray           # (m,) int64
    rep: np.ndarray               # (m, 2) int64, least pair of each orbital


def two_orbits(G: PermutationGroup) -> CoherentConfiguration:
    """The orbitals of a transitive G, read off its stabilizer chain; an
    intransitive G is refused.  Orbitals are sorted by valency, then by least
    pair, and renumbered, so orbital 0 is the diagonal.

    G is transitive, so its chain's first base point is 0 (a group that fixes
    0 is not transitive for n > 1), and u_a, the first level's transversal
    row carrying 0 to a, runs over every point a.  The strong generators at
    the deeper levels generate a group K, and the pair (a, c) is labelled by
    the K-orbit of c.u_a^-1: one (n, n) gather through the inverse rows.
    Row 0 is the identity, so every label occurs in row 0, (0, 0) has label
    0, the least pair of each label is (0, least point of its K-orbit), and
    its valency is the length of that K-orbit.

    A complete chain has K = G_0, and then the labels are the orbitals.  The
    configuration stage (``analysis.configuration``) proves it for the table
    it is given, without trusting the chain: it checks the row-0 facts above,
    counts the K-orbits against the m labels, and runs
    ``adjacency_product_check``; see there for the argument."""
    # no cap on n here: PermutationGroup refuses a degree above perm.DEGREE_CAP
    n = G.degree
    levels = G.chain.levels
    if n == 1:  # the trivial group, with no chain levels
        inverse_rows = np.zeros((1, 1), dtype=np.int32)
    elif levels and len(levels[0].orbit) == n:
        inverse_rows = levels[0].inverse_rows[levels[0].position]
    else:
        raise InputError("analysis requires a transitive action")
    # orbits() lists the K-orbits by least point, so the stable sort orders
    # them by length, then by least point, with the fixed point 0 first
    suborbits = sorted(orbits([g for lv in levels[1:] for g in lv.gens], n), key=len)
    suborbit_of = np.empty(n, dtype=np.int32)
    for i, orb in enumerate(suborbits):
        suborbit_of[orb] = i
    table = suborbit_of[inverse_rows]
    m = len(suborbits)
    rep = np.zeros((m, 2), dtype=np.int64)
    rep[:, 1] = [orb[0] for orb in suborbits]
    return CoherentConfiguration(
        n=n,
        m=m,
        orbital_of=table,
        valency=np.array([len(orb) for orb in suborbits], dtype=np.int64),
        rep=rep,
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


@dataclass(frozen=True)
class AxiomReport:
    passed: bool
    failures: tuple[str, ...]


def verify_cc_axioms(cc: CoherentConfiguration, tensor: np.ndarray) -> AxiomReport:
    """Check the defining axioms (1) and (2) of the configuration on every
    pair, plus the valency-weighted triangle identity
    |t| C[t*,r,s] = |r| C[r*,s,t] = |s| C[s*,t,r], where |s| is the pair-set
    cardinality valency(s) * n of a transitive configuration and t* is the
    label of the transpose of t's least pair.  The analysis does not run it:
    the checks of ``analysis.configuration`` imply it.

    Axiom (3), that the intersection numbers do not depend on the
    representative pair, is the adjacency identity on every pair; see
    ``adjacency_product_check``.  Failures indicate an implementation bug,
    never valid output.
    """
    failures = []
    n = cc.n

    # (1) the diagonal is exactly orbital 0
    bad = np.argwhere((cc.orbital_of == 0) != np.eye(n, dtype=bool))
    if len(bad):
        a, b = map(int, bad[0])
        if a == b:
            failures.append(f"diagonal pair ({a}, {a}) assigned to orbital {cc.orbital_of[a, a]}")
        else:
            failures.append(f"orbital 0 contains off-diagonal pair ({a}, {b})")

    # (2) closure under transposition
    star = cc.orbital_of[cc.rep[:, 1], cc.rep[:, 0]]
    bad = np.argwhere(cc.orbital_of.T != star[cc.orbital_of])
    if len(bad):
        a, b = map(int, bad[0])
        failures.append(
            f"transpose of pair ({a}, {b}) leaves orbital {star[cc.orbital_of[a, b]]}"
        )

    # triangle identity
    size = cc.valency * n
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


def adjacency_product_check(cc: CoherentConfiguration, tensor: np.ndarray, generators):
    """Exact integer check that A_r A_s = sum_t C[t,r,s] A_t for all r, s, at
    every degree.  Returns (passed, detail).

    Row a of the identity says that (A_r A_s)[a, b], the number of c with
    (a, c) in r and (c, b) in s, is C[orbital of (a, b), r, s] for every b;
    so on every row it is axiom (3) on every pair.  If a permutation g
    preserves the pair labels, table[g(a), g(b)] = table[a, b], then
    substituting c -> g(c) in that count shows that row g(a) of both sides
    is row a with its columns permuted by g.  So once every generator
    preserves the labels, the identity on one row per point orbit of the
    generators proves it on every pair, and the (r, s) at which it fails
    on some row are those at which it fails on a representative row.

    A label that some generator does not preserve fails first.  Each
    checked row is a bincount over (b, r, s), in column blocks of at most
    PRODUCT_BLOCK_CELLS cells; a failure names the first (r, s) in r-major
    order.

    Both steps gather on the int32 table itself, with no wider copy.  The
    keys are laid out b-major, from the rows of table.T, so that consecutive
    keys fall into the same b's m*m counters, which stay in cache however
    the points are numbered."""
    n, m = cc.n, cc.m
    table = cc.orbital_of
    for i, g in enumerate(generators):
        images = np.asarray(g.images, dtype=np.intp)
        moved = table[images][:, images] != table
        if moved.any():
            a, b = map(int, np.argwhere(moved)[0])
            return False, f"generator {i} does not preserve the orbital of pair ({a}, {b})"
    rhs_rows = tensor.reshape(m, m * m)
    block = max(1, PRODUCT_BLOCK_CELLS // (m * m))
    # every key is below block * m * m
    key_type = np.int32 if block * m * m <= np.iinfo(np.int32).max else np.int64
    failed = np.zeros(m * m, dtype=bool)
    for orbit in orbits(generators, n):
        a = orbit[0]
        row_a = table[a].astype(key_type) * m
        for lo in range(0, n, block):
            rows = table.T[lo:lo + block]
            width = len(rows)
            # keys[b, c] = (b, r = orbital of (a, c), s = orbital of (c, b))
            keys = rows + row_a + np.arange(width, dtype=key_type)[:, None] * (m * m)
            lhs = np.bincount(keys.ravel(), minlength=width * m * m).reshape(width, m * m)
            failed |= (lhs != rhs_rows[table[a, lo:lo + block]]).any(axis=0)
    if failed.any():
        r, s = divmod(int(np.flatnonzero(failed)[0]), m)
        return False, f"product identity fails at (r={r}, s={s})"
    return True, None
