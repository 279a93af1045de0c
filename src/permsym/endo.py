"""The centralizer algebra of a permutation group as a structure-constant
algebra over F_p, the reflexive-coefficient bilinear form, radical series,
socle/top structure, the symmetric-algebra decision procedure, Schur rings
over regular normal subgroups, and the independent cross-checks: the pair
orbits by union-find, and the double cosets that span the Hecke algebra
e·F_pG·e, counted from explicit products.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .coherent import CoherentConfiguration
from .errors import InputError, VerificationError
from .exactlin import PrimeField
from .perm import Permutation, PermutationGroup, orbits

ALGEBRA_DIM_CAP = 60
HECKE_ORDER_CAP = 5000
WITNESS_ENUM_CAP = 1 << 20
WITNESS_SAMPLES = 1000
#: the witness search ranks its candidates' Gram matrices in chunks of at
#: most this many entries
WITNESS_CHUNK_ENTRIES = 1 << 14


# ---------------------------------------------------------------------------
# structure-constant algebras
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SCAlgebra:
    """Finite-dimensional associative unital algebra over a prime field, given
    by structure constants: b_i b_j = sum_t sc[i,j,t] b_t.  Build one with
    ``make_algebra``, which sets ``commutative``."""

    field: PrimeField
    dim: int
    sc: np.ndarray      # (dim, dim, dim) int64, entries reduced mod p
    unit: np.ndarray    # (dim,) int64
    commutative: bool   # sc[i, j] == sc[j, i] for every i, j

    def multiply(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.products(np.asarray(x)[None], np.asarray(y)[None])[0, 0]

    def products(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """All products of two batches: out[i, j] = xs[i] * ys[j], shape
        (len(xs), len(ys), dim).  Two flat exact products mod p: xs against
        the constants gives [i, (b, t)], the coefficient of b_t in
        xs[i] * b_b, and ys against that, regrouped as [b, (i, t)], gives
        [j, (i, t)].  The inputs are reduced first, as the exact product
        requires."""
        p, m = self.field.p, self.dim
        xs = np.asarray(xs, dtype=np.int64) % p
        ys = np.asarray(ys, dtype=np.int64) % p
        left = _kernels._contract(xs, self.sc.reshape(m, m * m), p)
        left = left.reshape(-1, m, m).transpose(1, 0, 2).reshape(m, -1)
        out = _kernels._contract(ys, left, p)
        return out.reshape(len(ys), len(xs), m).transpose(1, 0, 2)

    def power(self, x: np.ndarray, e: int) -> np.ndarray:
        """x^e, or the e-th power of each row of a (k, dim) batch x, by one
        square-and-multiply of exact products.  The result starts as the
        power at e's lowest set bit, not as the unit, and the square after
        the highest bit is not formed: for e >= 1 that is e.bit_length() - 1
        squares and e.bit_count() - 1 other products, 8 in all for e = 73."""
        p, m = self.field.p, self.dim

        def times(xs, ys):  # xs[..., i] * ys[..., i], row by row
            left = _kernels._contract(xs, self.sc.reshape(m, m * m), p).reshape(xs.shape + (m,))
            return _kernels._contract(ys[..., None, :], left, p)[..., 0, :]

        b = np.asarray(x, dtype=np.int64) % p
        if not e:
            return self.unit * np.ones_like(b)
        r = None
        while True:
            if e & 1:
                r = b if r is None else times(r, b)
            e >>= 1
            if not e:
                return r
            b = times(b, b)


def make_algebra(field: PrimeField, sc: np.ndarray, unit: np.ndarray) -> SCAlgebra:
    """The algebra with structure constants sc and unit reduced mod p.  The
    constants are taken as proven associative with that unit: the orbital
    constants are, by the configuration stage (see ``centralizer_algebra``),
    and a quotient by a proven ideal inherits them.  Only the shapes are
    checked here; InputError if they do not match."""
    sc = np.ascontiguousarray(sc, dtype=np.int64) % field.p
    unit = np.asarray(unit, dtype=np.int64) % field.p
    m = unit.size
    if sc.shape != (m, m, m) or unit.shape != (m,):
        raise InputError("structure constant shapes do not match the basis size")
    return SCAlgebra(field=field, dim=m, sc=sc, unit=unit,
                     commutative=np.array_equal(sc, sc.transpose(1, 0, 2)))


def _orbital_constants(cc: CoherentConfiguration, tensor: np.ndarray):
    """Integer structure constants and unit of the orbital basis: A_r A_s =
    sum_t C[t,r,s] A_t, so sc[r,s,t] = C[t,r,s]; the unit is A_0 = I."""
    return tensor.transpose(1, 2, 0), np.eye(cc.m, dtype=np.int64)[0]


def centralizer_algebra(cc: CoherentConfiguration, tensor: np.ndarray,
                        field: PrimeField) -> SCAlgebra:
    """Span of the orbital adjacency matrices with the intersection numbers as
    structure constants, reduced mod p; the unit is A_0 = I.  No proof runs
    mod p: the caller's configuration must have passed the checks of
    ``analysis.configuration``, which prove the constants associative with
    the unit over Z, and reduction Z -> F_p is a ring map."""
    return make_algebra(field, *_orbital_constants(cc, tensor))


def centralizer_oracle(G: PermutationGroup) -> np.ndarray:
    """The orbits of the generators on the n^2 ordered pairs, by union-find
    over the edges (a, b) -> (g(a), g(b)): an (n, n) array holding, for each
    pair, the least pair index a * n + b of its orbit.  It reads only the
    generators, not the stabilizer chain that two_orbits reads the orbitals
    off, so it cross-checks two_orbits.

    The number of orbits is dim End(F_p^n)^G at every p.  X commutes with
    every P_g iff it lies in the nullspace of the system with one row
    e_{g(x)} - e_x per pair x and generator g.  Those rows form the oriented
    incidence matrix of the directed graph on the pairs with edges x -> g(x).
    The edges of a spanning forest are independent over every field and span
    every other edge's row, so over every F_p the rank is n^2 minus the
    number of connected components (Biggs, Algebraic Graph Theory, ch. 4),
    and the nullity is that number."""
    # no cap on n here: PermutationGroup refuses a degree above perm.DEGREE_CAP
    n = G.degree
    # a union links the larger root below the smaller one, so every root is
    # the least pair of its component and parent[x] <= x throughout
    parent = list(range(n * n))

    def root(x):
        r = x
        while parent[r] != r:
            r = parent[r]
        while parent[x] != r:
            parent[x], x = r, parent[x]
        return r

    for g in G.generators:
        img = g.images
        for a in range(n):
            row, image_row = a * n, img[a] * n
            for b in range(n):
                x, y = root(row + b), root(image_row + img[b])
                if x < y:
                    parent[y] = x
                elif y < x:
                    parent[x] = y
    # in increasing order, parent[x] <= x has already been set to its root
    for x in range(n * n):
        parent[x] = parent[parent[x]]
    return np.array(parent, dtype=np.int64).reshape(n, n)


# ---------------------------------------------------------------------------
# the reflexive-coefficient pairing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairingForm:
    functional: np.ndarray   # (m,) coordinates of the linear functional
    gram: np.ndarray         # (m, m): gram[r, s] = functional(b_r b_s)
    symmetric: bool
    nondegenerate: bool


def natural_form(alg: SCAlgebra) -> PairingForm:
    """The form (x, y) -> coefficient of the basis element b_0 in x*y.  On
    the orbital basis b_0 = A_0 = I, the diagonal orbital of a transitive
    configuration (see ``coherent.two_orbits``), and the Gram matrix is
    supported on the pairs (r, r*), r* the transposed orbital, with entries
    the valencies."""
    lam = np.eye(alg.dim, dtype=np.int64)[0]
    gram = alg.sc[:, :, 0] % alg.field.p
    symmetric = np.array_equal(gram, gram.T)
    nondegenerate = _kernels.rank_mod_p(gram, alg.field.p) == alg.dim
    return PairingForm(lam, gram, symmetric, nondegenerate)


# ---------------------------------------------------------------------------
# radical series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadicalSeries:
    """The power series of J with an rref basis of J and J's top V: the d
    rows of that basis at the pivots that J^2's rref lacks, so that they
    span J modulo J^2 (V is J itself when J^2 = 0).  V generates J as a
    one-sided ideal on either side: J^k = J^(k-1) (V + J^2) lies in A V +
    J^(k+1) for every k >= 1, so J lies in A V + J^k for every k, and J^k
    = 0 for some k; so J = A V, and likewise J = V A (Nakayama's argument,
    Curtis and Reiner, Methods of Representation Theory I, 1981, section
    5)."""

    dims: tuple[int, ...]   # [dim J^0 = dim A, dim J, dim J^2, ..., 0]
    radical: np.ndarray     # (dim J, dim A) rref basis of J
    top: np.ndarray         # (d, dim A) rows of that basis spanning J mod J^2


def _rowspace(mat: np.ndarray, p: int) -> np.ndarray:
    if mat.size == 0:
        return np.zeros((0, mat.shape[1] if mat.ndim == 2 else 0), dtype=np.int64)
    rref, rank = _kernels.rref_mod_p(mat, p)
    return rref[:rank]


def _regular_trace(alg: SCAlgebra) -> np.ndarray:
    """The functional x -> tr L(x) of the left-regular representation, as
    its coordinates tau_i = tr L(b_i) = sum_j sc[i, j, j] mod p."""
    return np.trace(alg.sc, axis1=1, axis2=2) % alg.field.p


def _commutators(alg: SCAlgebra) -> np.ndarray:
    """The rows b_i b_j - b_j b_i for i < j, read off the structure
    constants; they span K = [A, A]."""
    i, j = np.triu_indices(alg.dim, 1)
    return _kernels._mod(alg.sc[i, j] - alg.sc[j, i], alg.field.p)


def radical_chain(alg: SCAlgebra) -> RadicalSeries:
    """Jacobson radical J over F_p, from three eliminations, and its power
    series, proven by ``_proven_series``.

    K is the span of the commutators (``_commutators``).  By Jacobson's
    formula for (x + y)^p (Lie Algebras, 1962), (x + y)^p - x^p - y^p lies
    in K, and so does c^p for every c in K; with (a x)^p = a x^p for a in
    F_p, x -> x^p + K is an F_p-linear map that vanishes on K.  Its e-th power on
    A/K (``_iterated_frobenius``), p^e >= dim A, sends x to x^(p^e) + K, and
    its kernel is T = {x : x^(p^e) in K}.  R = {x : x A in T} is the kernel
    of x -> (x b_j mod T)_j, read off the structure constants.  R = J:

    - J is in R.  J is a nilpotent ideal of dimension below dim A, so x^(p^e)
      = 0 for every x in J, and J lies in T; then x A lies in J, so in T.
    - R is in J.  R is a right ideal: x A in T gives (x a) A in x A, so in
      T.  The power series proves R nilpotent, and a nilpotent right ideal
      lies in J (1 - x a is a unit for every a).  Nilpotency alone would not
      do: span{e12} in M_2(F_p) is nilpotent, and J(M_2(F_p)) = 0.

    So a zero R is proven too.  Külshammer's theorem (J. Algebra 72, 1981;
    75, 1982) gives T = J + K, so R never exceeds J and the series always
    reaches 0: A/J is a product of matrix algebras over finite fields, where
    K maps onto the trace-zero matrices, and x A lies there only for x in J.
    On a commutative algebra K = 0 and R = T, the Frobenius kernel; the code
    reads that off ``alg.commutative`` and forms neither K nor R's system."""
    if alg.dim > ALGEBRA_DIM_CAP:
        raise InputError(f"algebra dimension {alg.dim} exceeds cap {ALGEBRA_DIM_CAP}")
    p, m = alg.field.p, alg.dim
    if alg.commutative:
        commutators = np.zeros((0, m), dtype=np.int64)
    else:
        commutators = _rowspace(_commutators(alg), p)
    radical = _rowspace(_kernels.nullspace_mod_p(_iterated_frobenius(alg, commutators), p), p)
    if not alg.commutative:
        # row (j, t), column i: the coefficient of b_t in b_i b_j mod T
        system = _kernels._reduce(alg.sc, radical, p).transpose(1, 2, 0).reshape(m * m, m)
        radical = _rowspace(_kernels.nullspace_mod_p(system, p), p)
    return _proven_series(alg, radical)


def _proven_series(alg: SCAlgebra, radical: np.ndarray) -> RadicalSeries:
    """The power series of a radical candidate R, given by an rref basis,
    with the proof that R is nilpotent.  The series must reach 0; that puts
    a right ideal R in J.  The caller's R is a right ideal that holds J, by
    its construction in ``radical_chain``, so R = J.  A nilpotent ideal
    short of J, such as J^2, passes here: only that construction rules it
    out.

    The powers come from R's top.  R^2 = R R is formed once; it must lie in
    R, so its rref pivots are among R's, and the rows V of R's rref at the
    other pivots span R modulo R^2.  R R = R V is then checked by one rank
    (R V lies in R R, as V lies in R), and it gives R^(i+1) = R^(i-1) R R =
    R^(i-1) R V = R^i V for every i >= 1 with no nilpotency assumed.  So each
    later power is spanned by the previous spanning set times V's d rows,
    and R^(i+1) = R^i V lies in R^i: equal dimensions would mean a
    stationary non-zero series, so a series that reaches 0 decreases
    strictly, and reaching 0 proves that every product of k elements of R
    is 0, so x^k = 0 for every x in R.  A nilpotent R passes: R = V + R^2
    gives R^2 = R V + R^3 = ... = R V + R^k = R V.  Closure alone does not
    give R^3 = R^2 V: on span{v, e} with e^2 = e and v^2 = ve = ev = 0,
    R^2 V = 0 but R^3 = span{e}.

    A spanning set is reduced to its echelon rows only when it has more
    than m rows, which needs d >= 2; the series stops at the first set that
    is all zero, and is refused after m non-zero sets.  For d >= 2, R V and
    the sets are then zero-padded into one stack and ranked by one call.

    For d = 1 no set is ranked: the dims are r, r - 1, ..., 1, 0 for r =
    dim R.  R = V + R^2 gives R^i = R^(i-1) (V + R^2) = R^(i-1) V + R^(i+1)
    for every i >= 1, and R^(i-1) V lies in V^i + R^(i+1) by induction, so
    R^i = V^i + R^(i+1): each power is at most dim V^i <= 1 smaller than
    the one before.  Once R R = R V is ranked and the loop has reached 0,
    the series decreases strictly, as above, so it loses exactly one
    dimension a level, and exactly dim R^2 = r - 1 of the sets R^2, R^3,
    ... are non-zero.  That count is checked in place of the ranks: a
    series that reached 0 early would make it short."""
    p, m = alg.field.p, alg.dim
    dims = [m, radical.shape[0]]
    top = radical
    if radical.shape[0]:
        power = _rowspace(alg.products(radical, radical).reshape(-1, m), p)
        # a row of R^2 lies in R iff reducing it modulo R clears it
        if _kernels._reduce(power, radical, p).any():
            raise VerificationError("radical candidate is not closed under products")
        if power.shape[0] >= radical.shape[0]:
            raise VerificationError("radical candidate is not nilpotent")
        dims.append(power.shape[0])
        if power.shape[0]:
            pivots = (radical != 0).argmax(axis=1)
            at_top = np.ones(m, dtype=bool)
            at_top[(power != 0).argmax(axis=1)] = False
            top = radical[at_top[pivots]]
            # x -> x V as one matrix: times_top[b, (j, t)] is the coefficient
            # of b_t in b_b V[j]
            times_top = alg.products(np.eye(m, dtype=np.int64), top).reshape(m, -1)

            def echelon_rows(span):
                # a set of more than m rows, which needs d >= 2, is cut to its echelon rows
                if span.shape[0] <= m:
                    return span
                span, rank = _kernels._eliminate(span, p, reduced=False)
                return span[:rank]

            # levels[0] spans R V, which must be R R; sets[i] spans R^(i+2),
            # and sets[0] = R^2 is an echelon basis, its rank known
            levels = [echelon_rows(_kernels._contract(radical, times_top, p).reshape(-1, m))]
            sets = [power]
            while True:
                span = _kernels._contract(sets[-1], times_top, p).reshape(-1, m)
                if not span.any():
                    break
                if len(sets) == m:
                    raise VerificationError("radical candidate is not nilpotent")
                sets.append(echelon_rows(span))
            # for d = 1 only R V is ranked; see above
            if top.shape[0] > 1:
                levels += sets[1:]
            stack = np.zeros((len(levels), max(s.shape[0] for s in levels), m), dtype=np.int64)
            for level, span in zip(stack, levels):
                level[:span.shape[0]] = span
            ranks = _kernels.rank_mod_p(stack, p).tolist()
            if ranks[0] != power.shape[0]:
                raise VerificationError("radical candidate is not nilpotent: R R is not R V")
            if top.shape[0] == 1:
                # R R = R V and a loop that reached 0 fix the dims r, r - 1,
                # ..., 0, so exactly dim R^2 of the sets are non-zero
                if len(sets) != power.shape[0]:
                    raise VerificationError("radical candidate is not nilpotent")
                dims.extend(range(power.shape[0] - 1, -1, -1))
            else:
                dims.extend(ranks[1:])
                dims.append(0)
                if any(b >= a for a, b in zip(dims[2:], dims[3:])):
                    raise VerificationError("radical candidate is not nilpotent")
    return RadicalSeries(dims=tuple(dims), radical=radical, top=top)


# ---------------------------------------------------------------------------
# socle / top / local structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StructureReport:
    top_dim: int
    left_socle_dim: int
    right_socle_dim: int
    is_local: bool
    commutative: bool


def structure_report(alg: SCAlgebra, series: RadicalSeries | None = None) -> StructureReport:
    """The top dimension dim A - dim J and the dimensions of the socles
    {x : J x = 0} (left) and {x : x J = 0} (right).  J = A V = V A for the
    top V of the series (see ``RadicalSeries``), and A has a unit, so J x =
    A V x is 0 iff V x is, and x J = x V A is 0 iff x V is: the socles are
    read off V's d rows, not all of J's."""
    if series is None:
        series = radical_chain(alg)
    top_rows, p, m = series.top, alg.field.p, alg.dim
    commutative = alg.commutative
    if top_rows.shape[0] == 0:
        left = right = m
    else:
        # the matrices of x -> v x and x -> x v for every row v of V,
        # stacked: rows (v, t), columns the basis element x; they are equal
        # in a commutative algebra
        eye = np.eye(m, dtype=np.int64)
        left_mats = alg.products(top_rows, eye).transpose(0, 2, 1).reshape(-1, m)
        left = m - _kernels.rank_mod_p(left_mats, p)
        right = left if commutative else m - _kernels.rank_mod_p(
            alg.products(eye, top_rows).transpose(1, 2, 0).reshape(-1, m), p)
    top = m - series.radical.shape[0]
    return StructureReport(
        top_dim=top,
        left_socle_dim=left,
        right_socle_dim=right,
        is_local=top == 1,
        commutative=commutative,
    )


# ---------------------------------------------------------------------------
# symmetric-algebra decision
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetricVerdict:
    # symmetric_with_witness | symmetric_semisimple | symmetric_by_socle (a
    # commutative algebra meeting the socle criterion, no witness sampled) |
    # not_symmetric | inconclusive (a non-commutative algebra's sampled miss)
    status: str
    method: str
    witness: np.ndarray | None
    certificate: dict | None
    notes: str

    def is_positive(self) -> bool:
        return self.status in ("symmetric_with_witness", "symmetric_semisimple",
                               "symmetric_by_socle")


def _first_witness(alg: SCAlgebra, W: np.ndarray, candidates) -> np.ndarray | None:
    """The first functional c W, c a non-zero candidate coefficient vector
    in the order given, whose Gram matrix x, y -> (c W)(x y) has full rank;
    None when there is none.  The candidates are taken in chunks of 1, 2, 4,
    ... up to WITNESS_CHUNK_ENTRIES Gram entries; each chunk's Gram matrices
    come from one product and their ranks from one call."""
    p, m = alg.field.p, alg.dim
    gram_of = alg.sc.reshape(m * m, m).T  # gram_of[t, (r, s)] = sc[r, s, t]
    nonzero = (coeffs for coeffs in candidates if any(coeffs))
    size = 1
    while chunk := list(itertools.islice(nonzero, size)):
        lams = _kernels._contract(np.array(chunk, dtype=np.int64), W, p)
        grams = _kernels._contract(lams, gram_of, p).reshape(-1, m, m)
        full = np.flatnonzero(_kernels.rank_mod_p(grams, p) == m)
        if full.size:
            return lams[full[0]]
        size = min(2 * size, max(1, WITNESS_CHUNK_ENTRIES // (m * m)))
    return None


def _witness_space(alg: SCAlgebra) -> np.ndarray:
    """Basis of the functionals vanishing on all commutators b_i b_j - b_j b_i;
    these are exactly the symmetric associative forms x, y -> lam(x y)."""
    return _kernels.nullspace_mod_p(_commutators(alg), alg.field.p)


def _trace_witness(alg: SCAlgebra) -> np.ndarray:
    """The regular trace tau, with the proof that its Gram matrix x, y ->
    tau(x y) has full rank; see ``is_symmetric``, layer 2."""
    p, m = alg.field.p, alg.dim
    tau = _regular_trace(alg)
    gram = _kernels._contract(tau, alg.sc.reshape(m * m, m).T, p).reshape(m, m)
    if _kernels.rank_mod_p(gram, p) != m:
        raise VerificationError("the trace form of a commutative algebra with zero "
                                "radical is degenerate")
    return tau


def _semisimple_verdict(witness: np.ndarray | None) -> SymmetricVerdict:
    return SymmetricVerdict(
        status="symmetric_semisimple", method="semisimple", witness=witness, certificate=None,
        notes="zero radical; semisimple algebras over a finite field are symmetric")


def is_symmetric(alg: SCAlgebra, hint: PairingForm | None = None,
                 structure: StructureReport | None = None, seed: int = 0) -> SymmetricVerdict:
    """Layered decision:

    1. a symmetric nondegenerate hint form is already a witness;
    2. a commutative algebra with zero radical (top_dim == dim) has the
       regular trace tau(x) = tr L(x) as witness, proven by one rank of its
       Gram matrix: the trace form (x, y) -> tau(x y) of a commutative
       algebra is nondegenerate iff J = 0.  An x in J makes every x y
       nilpotent, of trace 0, so J lies in the form's kernel; and a product
       of finite fields, each separable over F_p, has a nondegenerate trace
       form.  A lower rank refutes the zero radical and raises
       VerificationError;
    3. the socle criterion, on every algebra: a socle whose dimension is not
       top_dim = dim A - dim J is an exact negative, as a symmetric algebra
       is Frobenius and a Frobenius algebra has soc(A_A) = (A/J)_A and
       soc(_A A) = _A(A/J) (Nakayama), so a local algebra, of top_dim 1,
       needs a one-dimensional socle.  On a commutative algebra the
       equality is also sufficient.  Such an algebra is symmetric iff it is
       Frobenius, as lam(x y) = lam(y x) for every lam, and Frobenius iff
       each local block A e_i has a simple socle.  Each soc(A e_i) is a
       non-zero vector space over the residue field k_i, so dim soc(A) >=
       sum dim k_i = dim A - dim J, with equality iff every block's socle is
       simple (T. Y. Lam, Lectures on Modules and Rings, 1999, sections
       15-16; Curtis and Reiner, Methods of Representation Theory I, 1981);
    4. a witness is searched for among the functionals vanishing on
       commutators: all of them when |F|^dim fits WITNESS_ENUM_CAP, else
       seeded samples.  A commutative algebra here, and a non-commutative
       one with zero radical, is symmetric (the regular trace of M_n(F_q),
       n tr, is degenerate when p divides n, so the latter is searched).  On
       these a whole-space miss raises VerificationError, and a sampled
       miss reports the positive verdict with no witness.  On any other
       algebra a whole-space miss is an exact negative and a sampled miss
       is inconclusive.
    """
    if alg.dim > ALGEBRA_DIM_CAP:
        raise InputError(f"algebra dimension {alg.dim} exceeds cap {ALGEBRA_DIM_CAP}")
    p = alg.field.p
    if hint is not None and hint.symmetric and hint.nondegenerate:
        return SymmetricVerdict(
            status="symmetric_with_witness", method="natural_form",
            witness=hint.functional.copy(), certificate=None,
            notes="reflexive-coefficient form is symmetric and nondegenerate")
    if structure is None:
        structure = structure_report(alg)
    top, left, right = structure.top_dim, structure.left_socle_dim, structure.right_socle_dim
    semisimple = top == alg.dim
    if semisimple and alg.commutative:
        return _semisimple_verdict(_trace_witness(alg))
    certificate = {"socle_criterion": {"top_dim": top, "left_socle_dim": left,
                                       "right_socle_dim": right}}
    if left != top or right != top:
        return SymmetricVerdict(
            status="not_symmetric", method="socle_criterion", witness=None,
            certificate=certificate,
            notes=f"socle dimension {left}/{right} differs from the top dimension {top}; "
                  "a Frobenius algebra's socles are isomorphic to its top")

    W = _witness_space(alg)
    w = W.shape[0]
    space = p ** w

    # every candidate when the space fits the budget, else seeded draws
    searched_all = space <= WITNESS_ENUM_CAP
    if searched_all:
        candidates = itertools.product(range(p), repeat=w)
    else:
        rng = np.random.default_rng(seed)
        candidates = (rng.integers(0, p, size=w) for _ in range(WITNESS_SAMPLES))
    witness = _first_witness(alg, W, candidates)

    if witness is None and searched_all and (semisimple or alg.commutative):
        claim = ("every semisimple algebra over F_p is symmetric: the radical series is not J's"
                 if semisimple else
                 "a commutative algebra that meets the socle criterion is symmetric: the "
                 "structure report is not the algebra's")
        raise VerificationError("no witness among all the functionals vanishing on "
                                f"commutators, but {claim}")
    if semisimple:
        return _semisimple_verdict(witness)
    if witness is not None:
        return SymmetricVerdict(
            status="symmetric_with_witness", method="search" if searched_all else "sampling",
            witness=witness, certificate=None,
            notes=f"witness found among functionals vanishing on commutators (dim {w})")
    sampled = f"{WITNESS_SAMPLES} samples from a space of {space} found no witness"
    if alg.commutative:
        return SymmetricVerdict(
            status="symmetric_by_socle", method="socle_criterion", witness=None,
            certificate=certificate,
            notes=f"commutative, with socle dimension = top dimension {top}; {sampled}")
    if searched_all:
        return SymmetricVerdict(
            status="not_symmetric", method="exhausted_search", witness=None,
            certificate={"exhausted_search": {"search_space": space}},
            notes=f"no nondegenerate form among all {space} candidate functionals")
    return SymmetricVerdict(status="inconclusive", method="sampling_no_hit", witness=None,
                            certificate=None, notes=sampled)


# ---------------------------------------------------------------------------
# Schur rings over a regular (normal) subgroup
# ---------------------------------------------------------------------------

def _set_of(sets, order: int) -> np.ndarray:
    """For a partition of range(order), the index of the set holding each point."""
    set_of = np.empty(order, dtype=np.int64)
    for k, s in enumerate(sets):
        set_of[list(s)] = k
    return set_of


@dataclass(frozen=True)
class SchurRing:
    basic_sets: tuple[tuple[int, ...], ...]  # element indices per basic set
    sc: np.ndarray                            # (m, m, m) integer constants
    elements: np.ndarray                      # (n, n) int32: row i is element i


def schur_ring_from_action(T: PermutationGroup, H: PermutationGroup) -> SchurRing:
    """Schur ring spanned by the sums over the H-conjugation orbits on a regular
    subgroup T, with its integer structure constants.  Verifies regularity of
    T, that H normalizes T, and the basic-set axioms (identity is a singleton,
    partition, closure under inversion).  Reduction Z -> F_p is a ring map, so
    the ring mod p is that of F_p[T] at every p.

    One transversal of T at 0 (``PermutationGroup.transversal``) proves T
    regular and lists it.  T is regular iff the orbit of 0 is all n points
    and every Schreier row is the identity: by Schreier's lemma those rows
    generate T_0, so |T| = n.  The n rows are products of generators sending
    0 to n distinct points, so they are exactly T; element i is row i.  As
    0.(x g) = (0.x).g, that is the breadth-first order from the identity by
    right multiplication with the generators, at any base point.

    The constants need no associativity proof.  An element of the regular T
    is determined by its image of 0, so the Cayley table read off the images
    of 0 is T's own, and the sums multiply as in Z[T], which is associative
    with unit e.  The basic-set sums have disjoint non-empty supports, so
    they are linearly independent, and the bincount check proves that each
    product of two of them is the combination of basic-set sums given by the
    constants.  So the constants are those of a subring of Z[T], associative,
    with the singleton {e} as unit."""
    n = T.degree
    orbit, img, schreier = T.transversal(0)
    if len(orbit) != n or (schreier != np.arange(n)).any():
        raise InputError("subgroup is not regular on the domain")
    # element pos[x] carries 0 to x
    pos = np.empty(n, dtype=np.int64)
    pos[orbit] = np.arange(n)

    # Cayley table: mult[a, b] = index of a * b (apply a, then b), found
    # from 0.(a * b) = (0.a).b
    mult = pos[img[:, orbit].T]
    # conjugation by each generator of H, as a permutation of the indices
    conj_maps = []
    for h in H.generators:
        himg = np.array(h.images, dtype=np.int64)
        conj = himg[img[:, np.argsort(himg)]]  # images of h^-1 t h
        cand = pos[conj[:, 0]]
        if not np.array_equal(img[cand], conj):
            raise InputError("H does not normalize the regular subgroup")
        conj_maps.append(Permutation._unchecked(tuple(cand.tolist())))
    sets = sorted((sorted(o) for o in orbits(conj_maps, n)), key=lambda s: (len(s), s[0]))
    m = len(sets)
    set_of = _set_of(sets, n)
    first = np.array([s[0] for s in sets], dtype=np.int64)

    # axioms; row 0 of the transversal is the identity
    if [0] not in sets:
        raise VerificationError("identity is not a singleton basic set")
    # inversion is an involution of T, so it carries each basic set onto a
    # basic set iff it carries each into one
    inverse_set = set_of[np.argmax(mult == 0, axis=1)]
    if not np.array_equal(inverse_set, inverse_set[first[set_of]]):
        raise VerificationError("basic sets are not closed under inversion")

    # counts[r, s, x] = #{(i, j) in sets[r] x sets[s] : i * j = x}
    keys = (set_of[:, None] * m + set_of[None, :]) * n + mult
    counts = np.bincount(keys.ravel(), minlength=m * m * n).reshape(m, m, n)
    if not np.array_equal(counts, counts[:, :, first[set_of]]):
        raise VerificationError("product of basic-set sums is not constant on a basic set")
    return SchurRing(
        basic_sets=tuple(tuple(s) for s in sets),
        sc=counts[:, :, first],
        elements=img,
    )


def schur_vs_centralizer(G: PermutationGroup, T: PermutationGroup,
                         cc: CoherentConfiguration, tensor: np.ndarray, alpha: int = 0,
                         point_names=None) -> tuple[str, ...]:
    """Check that the orbital algebra of ``cc``, with the integer intersection
    numbers ``tensor`` as constants, and the Schur ring of the regular normal
    subgroup T agree over Z, and so mod every p, and return the Schur ring's
    basic-set sums.  The map sending an orbital s to the subset
    V_s = {t in T : (alpha, alpha.t) in s} must be a bijection onto the basic
    sets, match valencies to set sizes, and carry the integer structure
    constants over (with the product order reversed: A_r A_s corresponds to
    V_s V_r).  A mismatch raises VerificationError; a T that is not a regular
    subgroup of G normalized by G_alpha raises InputError.  An element t is
    named point_names[alpha.t].

    T's generators are sifted through G's chain; the ring's one transversal
    of T proves T regular, and alpha.t is read off its rows.  T is not
    checked for normality in G on its own.  T <= G is transitive, so G = T
    G_alpha, and T normalizes itself; schur_ring_from_action checks that
    G_alpha normalizes T, so G does."""
    for t in T.generators:
        if not G.contains(t):
            raise InputError("T is not a subgroup of G")
    # No associativity proof on either side: the ring's constants are those
    # of a subring of Z[T] (see schur_ring_from_action), and the orbital
    # constants those of the span of the adjacency matrices, once the
    # configuration stage's adjacency check has passed.  Below they are
    # compared entry by entry over Z.
    ring = schur_ring_from_action(T, G.point_stabilizer(alpha))
    moved = ring.elements[:, alpha]

    def mismatch(detail):
        return VerificationError(f"Schur ring correspondence failed: {detail}")

    sizes = np.array([len(s) for s in ring.basic_sets])
    set_of = _set_of(ring.basic_sets, G.degree)
    # orbital of (alpha, alpha.t) for every t; sigma[s] is the basic set of
    # some member of V_s, and V_s is that set iff it meets no other set and
    # has its size (basic sets are not empty, so an empty V_s fails)
    orbital_of_t = cc.orbital_of[alpha, moved]
    members = np.bincount(orbital_of_t, minlength=cc.m)
    sigma = np.zeros(cc.m, dtype=np.int64)
    sigma[orbital_of_t] = set_of
    split = np.zeros(cc.m, dtype=bool)
    split[orbital_of_t[sigma[orbital_of_t] != set_of]] = True
    maps = ~split & (sizes[sigma] == members)
    bad = np.flatnonzero(~maps | (cc.valency != members))
    if len(bad):
        s = int(bad[0])
        if not maps[s]:
            raise mismatch(f"orbital {s} does not map to a basic set")
        raise mismatch(f"valency {int(cc.valency[s])} of orbital {s} "
                       f"differs from set size {int(members[s])}")
    if len(sizes) != cc.m or np.bincount(sigma, minlength=cc.m).max() != 1:
        raise mismatch("orbital-to-basic-set map is not a bijection")
    # carried[r, s, t] = ring.sc[sigma[s], sigma[r], sigma[t]]
    carried = ring.sc[np.ix_(sigma, sigma, sigma)].transpose(1, 0, 2)
    bad = np.argwhere(_orbital_constants(cc, tensor)[0] != carried)
    if len(bad):
        r, s, t = map(int, bad[0])
        raise mismatch(f"structure constants differ at (r={r}, s={s}, t={t})")
    names = [str(x) if point_names is None else point_names[x] for x in moved.tolist()]
    return tuple("+".join(names[i] for i in s) for s in ring.basic_sets)


# ---------------------------------------------------------------------------
# the iterated Frobenius map; nilpotent elements in commutative algebras
# ---------------------------------------------------------------------------

def _frobenius_exponent(p: int, m: int) -> int:
    """Least e with p^e >= m: x^(p^e) = 0 for every nilpotent x of a
    dimension-m algebra."""
    e = 0
    while p ** e < m:
        e += 1
    return e


def _iterated_frobenius(alg: SCAlgebra, commutators: np.ndarray) -> np.ndarray:
    """Matrix of x -> x^(p^e) mod K, p^e >= dim, on coordinate column
    vectors, for K the span of the rref basis ``commutators`` of the
    commutators, empty on a commutative algebra.  The map x -> x^p mod K is
    F_p-linear and vanishes on K (see ``radical_chain``), so its e-th power
    is a matrix power; on a commutative algebra its kernel is the
    nilradical."""
    p = alg.field.p
    m = alg.dim
    # column j is b_j^p mod K
    frob = _kernels._reduce(alg.power(np.eye(m, dtype=np.int64), p), commutators, p).T
    total = np.eye(m, dtype=np.int64)
    for _ in range(_frobenius_exponent(p, m)):
        total = _kernels._contract(frob, total, p)
    return total


def nilpotent_free_check(alg: SCAlgebra) -> bool:
    """True iff a commutative algebra has no nonzero nilpotent element: iff
    the iterated Frobenius map x -> x^(p^e) is injective.  Its kernel is the
    nilradical, exactly and at every size, because x^(p^e) = 0 for every
    nilpotent x of a dimension-m algebra once p^e >= m."""
    if not alg.commutative:
        raise InputError("nilpotent-free check requires a commutative algebra")
    no_commutators = np.zeros((0, alg.dim), dtype=np.int64)
    return _kernels.rank_mod_p(_iterated_frobenius(alg, no_commutators), alg.field.p) == alg.dim


# ---------------------------------------------------------------------------
# double-coset sums in the group algebra
# ---------------------------------------------------------------------------

def hecke_check(G: PermutationGroup, alpha: int) -> int:
    """The number of double cosets HgH of the stabilizer H of alpha, each
    built from explicit products, independently of H.orbits().  It needs a
    full element list, so it refuses a group of order above HECKE_ORDER_CAP.
    The analysis reads the count off its configuration instead (see
    ``run_analysis``); the scan is the reference of the tests and the suite.

    The count is the dimension of span{e g e : g in G} in F_pG at every p
    not dividing |H|, where e is the averaged stabilizer sum
    (1/|H|) sum_{h in H} h.  e g e is (1/|H|^2) times the sum of h1 g h2 over
    H x H, which is the double coset HgH with each x in it counted
    |H meet g^-1 H g| times.  That count divides |H|, so for such p the
    coefficient of x is non-zero.  Distinct double cosets are disjoint, so
    the e g e of distinct double cosets have disjoint supports.  The count
    reads no p, so a caller computes it once per group."""
    order = G.order()
    if order > HECKE_ORDER_CAP:
        raise InputError(f"group order {order} exceeds cap {HECKE_ORDER_CAP}")
    H = G.point_stabilizer(alpha)
    # an element of G is determined by its base images: look those up alone
    elements = G.chain.elements()
    base = G.chain.base() or [0]  # any point is a base of the trivial group
    H_elements = H.chain.elements()
    key = np.dtype((np.void, elements.itemsize * len(base)))
    keys = np.ascontiguousarray(elements[:, base]).view(key).ravel()
    sorter = np.argsort(keys)
    visited = np.zeros(order, dtype=bool)
    hecke_dim = 0
    for gi in range(order):
        if visited[gi]:
            continue
        # every h1 * g * h2 as one array, rows indexed [h2, h1]: h2[g[h1[x]]]
        prods = H_elements[:, elements[gi][H_elements]].reshape(-1, G.degree)
        wanted = np.ascontiguousarray(prods[:, base]).view(key).ravel()
        found = sorter[np.searchsorted(keys, wanted, sorter=sorter) % order]
        if not np.array_equal(elements[found], prods):
            raise VerificationError("a double-coset product is missing from the element list")
        visited[found] = True
        hecke_dim += 1
    return hecke_dim
