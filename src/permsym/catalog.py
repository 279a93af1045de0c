"""Constructors for the built-in group actions, keyed by spec strings.

Grammar (1-indexed parameters where applicable):

    sym:n           symmetric group S_n, natural action
    alt:n           alternating group A_n, natural action
    altpairs:n      A_n acting on 2-subsets of {1..n}
    signtwist:n     A_{n+2} on the cosets of a sign-twisted copy of S_n
    frobenius:q,d   {x -> ax+b : a in C_d <= F_q*, b in F_q} on F_q (q prime)
    example3_2      order-27 affine shear group on the 9 vectors of F_3^2
    psl2line:q      PSL(2,q) on the projective line, q in {4,8,32}
    psl2cosets:q    PSL(2,q) on the cosets of a dihedral subgroup of order
                    2(q+1), q in {8,32}
    file:<path>     generator file (see perm.parse_generator_text)
"""

import dataclasses
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .errors import InputError, VerificationError
from .exactlin import binary_field, is_prime
from .perm import (
    DEGREE_CAP,
    Permutation,
    PermutationGroup,
    action_on_cosets,
    action_on_ksubsets,
)

PSL_LINE_FIELDS = {4: 2, 8: 3, 32: 5}  # q -> extension degree m


@dataclass(frozen=True)
class RegularSubgroup:
    """A regular normal subgroup of the instance's group, with display names
    for its elements keyed by the point they carry the base point to."""

    gens: tuple[Permutation, ...]
    point_names: tuple[str, ...]


@dataclass(frozen=True)
class CatalogInstance:
    spec: str
    group: PermutationGroup
    description: str
    faithful: bool
    base_point: int = 0
    regular: RegularSubgroup | None = None
    # the p-independent stage of the analysis (analysis.configuration), None
    # until built; dataclasses.replace gives the copy None
    configuration: object = dataclasses.field(
        default=None, init=False, compare=False, repr=False
    )


def _check_degree(spec: str, degree: int):
    """Refuse a spec whose action would exceed DEGREE_CAP points.  The
    constructors call it before they build any generator: the n - 2
    generators that altpairs:n and signtwist:n induce take memory that grows
    as n times the degree."""
    if degree > DEGREE_CAP:
        raise InputError(f"{spec} acts on {degree} points, above the cap {DEGREE_CAP}")


def _cycle(n, points):
    images = list(range(n))
    for a, b in zip(points, points[1:]):
        images[a] = b
    images[points[-1]] = points[0]
    return Permutation(images)


def _sym_gens(n):
    if n < 2:
        return []
    gens = [_cycle(n, [0, 1])]
    if n > 2:
        gens.append(_cycle(n, list(range(n))))
    return gens


def _alt_gens(n):
    # 3-cycles (0,1,k) generate A_n; altpairs, sympairs and signtwist number
    # their subsets and cosets by these generators
    if n < 3:
        return []
    return [_cycle(n, [0, 1, k]) for k in range(2, n)]


def _alt_two_gens(n):
    """Two generators of A_n: (0 1 2) with the n-cycle (0 1 ... n-1) for odd
    n, or with the (n-1)-cycle (1 2 ... n-1) for even n.  At n = 3 both are
    (0 1 2), and PermutationGroup keeps one."""
    if n < 3:
        return []
    return [_cycle(n, [0, 1, 2]), _cycle(n, list(range(n % 2 == 0, n)))]


@lru_cache(maxsize=None)
def build_sym(n: int) -> CatalogInstance:
    if n < 1:
        raise InputError("sym:n requires n >= 1")
    _check_degree(f"sym:{n}", n)
    return CatalogInstance(
        spec=f"sym:{n}",
        group=PermutationGroup(n, _sym_gens(n)),
        description=f"symmetric group on {n} points, natural action",
        faithful=True,
    )


@lru_cache(maxsize=None)
def build_alt(n: int) -> CatalogInstance:
    if n < 1:
        raise InputError("alt:n requires n >= 1")
    _check_degree(f"alt:{n}", n)
    return CatalogInstance(
        spec=f"alt:{n}",
        group=PermutationGroup(n, _alt_two_gens(n)),
        description=f"alternating group on {n} points, natural action",
        faithful=True,
    )


@lru_cache(maxsize=None)
def build_alt_on_pairs(n: int) -> CatalogInstance:
    if n < 4:
        raise InputError("altpairs:n requires n >= 4")
    _check_degree(f"altpairs:{n}", n * (n - 1) // 2)
    base = PermutationGroup(n, _alt_gens(n))
    group = action_on_ksubsets(base, 2)
    return CatalogInstance(
        spec=f"altpairs:{n}",
        group=group,
        description=f"alternating group A_{n} acting on the {n * (n - 1) // 2} unordered pairs",
        faithful=group.order() == base.order(),
    )


@lru_cache(maxsize=None)
def build_sym_on_pairs(n: int) -> CatalogInstance:
    """Overgroup of altpairs:n obtained by adding a transposition upstairs.
    Not part of the CLI grammar; used by the library and test suite."""
    if n < 4:
        raise InputError("sym-on-pairs requires n >= 4")
    _check_degree(f"sympairs:{n}", n * (n - 1) // 2)
    base = PermutationGroup(n, _alt_gens(n) + [_cycle(n, [0, 1])])
    group = action_on_ksubsets(base, 2)
    return CatalogInstance(
        spec=f"sympairs:{n}",
        group=group,
        description=f"symmetric group S_{n} acting on unordered pairs",
        faithful=group.order() == base.order(),
    )


@lru_cache(maxsize=None)
def build_sign_twist(n: int) -> CatalogInstance:
    """A_{n+2} acting on the right cosets of the sign-twisted embedding of S_n:
    even permutations map to themselves, odd ones pick up the transposition of
    the two extra points."""
    if n < 3:
        raise InputError("signtwist:n requires n >= 3")
    _check_degree(f"signtwist:{n}", (n + 1) * (n + 2) // 2)
    m = n + 2
    big = PermutationGroup(m, _alt_gens(m))
    extra = _cycle(m, [n, n + 1])  # the two added points
    h1 = _cycle(m, [0, 1]) * extra  # image of an odd transposition
    ncyc = _cycle(m, list(range(n)))
    h2 = ncyc if n % 2 == 1 else ncyc * extra  # n-cycle is even iff n is odd
    sub = PermutationGroup(m, [h1, h2])
    if sub.order() != fact(n):
        raise VerificationError("twisted subgroup has unexpected order")
    group = action_on_cosets(big, sub)
    return CatalogInstance(
        spec=f"signtwist:{n}",
        group=group,
        description=(
            f"A_{m} on the {(n + 1) * (n + 2) // 2} cosets of a sign-twisted S_{n}"
        ),
        faithful=group.order() == big.order(),
    )


def fact(n: int) -> int:
    r = 1
    for k in range(2, n + 1):
        r *= k
    return r


def _primitive_root(q: int) -> int:
    for g in range(2, q):
        seen = set()
        v = 1
        for _ in range(q - 1):
            v = v * g % q
            seen.add(v)
        if len(seen) == q - 1:
            return g
    raise VerificationError(f"no primitive root mod {q}")


@lru_cache(maxsize=None)
def build_frobenius(q: int, d: int) -> CatalogInstance:
    """One-dimensional affine maps x -> ax + b with a restricted to the order-d
    subgroup of F_q*; Frobenius for 2 <= d < q-1, two-transitive for d = q-1."""
    _check_degree(f"frobenius:{q},{d}", q)
    if not is_prime(q):
        raise InputError(f"frobenius requires prime q, got {q}")
    if d < 2 or (q - 1) % d != 0:
        raise InputError(f"d must divide q-1 = {q - 1} and be >= 2, got {d}")
    mult = pow(_primitive_root(q), (q - 1) // d, q)
    translation = Permutation([(x + 1) % q for x in range(q)])
    multiplier = Permutation([x * mult % q for x in range(q)])
    group = PermutationGroup(q, [translation, multiplier])
    return CatalogInstance(
        spec=f"frobenius:{q},{d}",
        group=group,
        description=f"affine maps of F_{q} with multipliers in the order-{d} subgroup",
        faithful=True,
        regular=RegularSubgroup(
            gens=(translation,),
            point_names=tuple(str(k) for k in range(q)),
        ),
    )


def _shear_point_names():
    names = []
    for v1 in range(3):
        for v2 in range(3):
            word = ""
            if v1:
                word += "a" if v1 == 1 else "a2"
            if v2:
                word += "b" if v2 == 1 else "b2"
            names.append(word or "1")
    return tuple(names)


@lru_cache(maxsize=None)
def build_affine_shear() -> CatalogInstance:
    """Order-27 subgroup of AGL(2,3) on the 9 vectors of F_3^2: the translation
    group extended by the unipotent shear fixing the first basis vector.
    Points are indexed 3*v1 + v2; the distinguished translation generators are
    a = +(1,0) and b = +(0,1), in that order."""
    def idx(v1, v2):
        return 3 * (v1 % 3) + (v2 % 3)

    a = Permutation([idx(v1 + 1, v2) for v1 in range(3) for v2 in range(3)])
    b = Permutation([idx(v1, v2 + 1) for v1 in range(3) for v2 in range(3)])
    # shear (v1, v2) -> (v1 + v2, v2); conjugation sends the translation by v
    # to the translation by the sheared v, fixing the powers of a
    x = Permutation([idx(v1 + v2, v2) for v1 in range(3) for v2 in range(3)])
    group = PermutationGroup(9, [a, b, x])
    return CatalogInstance(
        spec="example3_2",
        group=group,
        description="order-27 affine shear group on the 9 vectors of F_3^2",
        faithful=True,
        regular=RegularSubgroup(gens=(a, b), point_names=_shear_point_names()),
    )


def _psl2_matrix_perm(field, mat):
    """Permutation of the projective line induced by a 2x2 matrix acting on row
    vectors; point i < q is (1 : element i), point q is (0 : 1)."""
    q = field.order
    images = []

    def point_index(a, b):
        if a != 0:
            return field.mul(b, field.inv(a))
        if b == 0:
            raise VerificationError("zero vector reached on the projective line")
        return q

    (m00, m01), (m10, m11) = mat
    for x in range(q):
        a = field.add(m00, field.mul(x, m10))
        b = field.add(m01, field.mul(x, m11))
        images.append(point_index(a, b))
    images.append(point_index(m10, m11))
    return Permutation(images)


@lru_cache(maxsize=None)
def build_psl2_line(q: int) -> CatalogInstance:
    """PSL(2,q) = SL(2,q) for even q, acting on the q+1 points of the projective
    line over GF(q).  Generated by the unit transvection, the diagonal torus
    element for a multiplicative generator, and the coordinate swap."""
    if q not in PSL_LINE_FIELDS:
        raise InputError(f"psl2line supports q in {sorted(PSL_LINE_FIELDS)}, got {q}")
    field = binary_field(PSL_LINE_FIELDS[q])
    g = 2  # the class of x, primitive because q-1 is prime for q in {4,8,32}
    mats = [
        ((1, 1), (0, 1)),
        ((g, 0), (0, field.inv(g))),
        ((0, 1), (1, 0)),
    ]
    group = PermutationGroup(q + 1, [_psl2_matrix_perm(field, m) for m in mats])
    expected = q * (q * q - 1)
    if group.order() != expected:
        raise VerificationError(
            f"psl2line:{q} order {group.order()} differs from q(q^2-1) = {expected}"
        )
    return CatalogInstance(
        spec=f"psl2line:{q}",
        group=group,
        description=f"PSL(2,{q}) on the {q + 1} points of the projective line",
        faithful=True,
    )


def _matrix_mul(field, a, b):
    """Product of two 2x2 matrices over ``field``, as nested tuples."""
    return tuple(
        tuple(field.add(field.mul(a[i][0], b[0][j]), field.mul(a[i][1], b[1][j])) for j in (0, 1))
        for i in (0, 1)
    )


def _matrix_order(field, mat, cap: int) -> int | None:
    """The order of ``mat`` if it is at most ``cap``, else None."""
    identity = ((1, 0), (0, 1))
    power = mat
    for k in range(1, cap + 1):
        if power == identity:
            return k
        power = _matrix_mul(field, power, mat)
    return None


def _dihedral_generators(field, q: int):
    """The matrices C = ((0, 1), (1, t)), with t the least field element for
    which C has order exactly q+1, and S = ((0, 1), (1, 0))."""
    for t in range(q):
        c = ((0, 1), (1, t))
        if _matrix_order(field, c, q + 1) == q + 1:
            return c, ((0, 1), (1, 0))
    raise VerificationError(f"no companion matrix of order {q + 1} in PSL(2,{q})")


@lru_cache(maxsize=None)
def _dihedral_subgroup(q: int) -> PermutationGroup:
    """Dihedral subgroup H = <C, S> of order 2(q+1) of PSL(2,q), q even,
    built from two matrices (see ``_dihedral_generators``): the normalizer
    of a non-split torus (Dickson; Huppert, Endliche Gruppen I, II.8).

    C has determinant 1 and order q+1, and S has order 2.  In characteristic
    2, S C S = ((t, 1), (1, 0)) = C^-1, so S normalizes <C> and inverts it.
    q+1 is odd, so <C> holds no involution and S lies outside it; hence
    <C, S> is dihedral of order 2(q+1).  PSL(2,q) = SL(2,q) acts faithfully
    on the projective line, so the permutation group has that order too,
    which the order check below confirms."""
    G = build_psl2_line(q).group
    field = binary_field(PSL_LINE_FIELDS[q])
    H = PermutationGroup(
        G.degree, [_psl2_matrix_perm(field, m) for m in _dihedral_generators(field, q)]
    )
    if H.order() != 2 * (q + 1):
        raise VerificationError(
            f"normalizer order {H.order()} differs from 2(q+1) = {2 * (q + 1)}"
        )
    return H


@lru_cache(maxsize=None)
def build_psl2_dihedral_cosets(q: int) -> CatalogInstance:
    if q not in (8, 32):
        raise InputError(f"psl2cosets supports q in (8, 32), got {q}")
    G = build_psl2_line(q).group
    H = _dihedral_subgroup(q)
    group = action_on_cosets(G, H)
    return CatalogInstance(
        spec=f"psl2cosets:{q}",
        group=group,
        description=(
            f"PSL(2,{q}) on the {q * (q - 1) // 2} cosets of a dihedral subgroup "
            f"of order {2 * (q + 1)}"
        ),
        faithful=group.order() == G.order(),
    )


def build_from_file(path: str) -> CatalogInstance:
    from .perm import parse_generator_text

    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read generator file {path}: {exc}") from None
    degree, gens = parse_generator_text(text)
    return CatalogInstance(
        spec=f"file:{path}",
        group=PermutationGroup(degree, gens),
        description=f"group read from {path}",
        faithful=True,
    )


# ---------------------------------------------------------------------------
# spec-string dispatch
# ---------------------------------------------------------------------------

def _int_params(body: str, count: int, spec: str):
    parts = body.split(",")
    if len(parts) != count or not all(p.strip().lstrip("-").isdigit() for p in parts):
        raise InputError(f"bad parameters in group spec {spec!r}")
    return [int(p) for p in parts]


def build_instance(spec: str) -> CatalogInstance:
    spec = spec.strip()
    if spec == "example3_2":
        return build_affine_shear()
    if ":" not in spec:
        raise InputError(f"unknown group spec {spec!r}")
    head, body = spec.split(":", 1)
    if head == "file":
        return build_from_file(body)
    if head == "sym":
        return build_sym(*_int_params(body, 1, spec))
    if head == "alt":
        return build_alt(*_int_params(body, 1, spec))
    if head == "altpairs":
        return build_alt_on_pairs(*_int_params(body, 1, spec))
    if head == "signtwist":
        return build_sign_twist(*_int_params(body, 1, spec))
    if head == "frobenius":
        return build_frobenius(*_int_params(body, 2, spec))
    if head == "psl2line":
        return build_psl2_line(*_int_params(body, 1, spec))
    if head == "psl2cosets":
        return build_psl2_dihedral_cosets(*_int_params(body, 1, spec))
    raise InputError(f"unknown group spec {spec!r}")


def catalog_entries():
    """Rows for the CLI catalog table: (pattern, example, degree, description)."""
    return [
        ("sym:n", "sym:5", "n", "symmetric group, natural action"),
        ("alt:n", "alt:5", "n", "alternating group, natural action"),
        ("altpairs:n", "altpairs:7", "n(n-1)/2", "alternating group on unordered pairs"),
        ("signtwist:n", "signtwist:3", "(n+1)(n+2)/2",
         "A_{n+2} on cosets of a sign-twisted S_n"),
        ("frobenius:q,d", "frobenius:7,3", "q",
         "affine maps of F_q with multipliers in the order-d subgroup"),
        ("example3_2", "example3_2", "9",
         "order-27 affine shear group on the vectors of F_3^2"),
        ("psl2line:q", "psl2line:8", "q+1",
         "PSL(2,q) on the projective line, q in {4,8,32}"),
        ("psl2cosets:q", "psl2cosets:8", "q(q-1)/2",
         "PSL(2,q) on cosets of a dihedral subgroup of order 2(q+1), q in {8,32}"),
        ("file:<path>", "file:gens.txt", "from file", "generator file, one cycle-form generator per line"),
    ]
