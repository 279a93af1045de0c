"""Constructors for the built-in group actions, keyed by spec strings.

A spec is ``head:a,b,...`` with natural-number parameters, or the bare head
of a family that takes none.  ``FAMILIES`` is the grammar, one row per
family, and ``permsym catalog`` prints it; ``file:<path>`` reads a generator
file (see perm.parse_generator_text).
"""

import dataclasses
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .errors import InputError, VerificationError
from .exactlin import BinaryField, is_prime
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
    for its elements keyed by the point that each carries 0 to."""

    gens: tuple[Permutation, ...]
    point_names: tuple[str, ...]


@dataclass(frozen=True)
class CatalogInstance:
    spec: str
    group: PermutationGroup
    regular: RegularSubgroup | None = None
    # the p-independent stage of the analysis (analysis.configuration), None
    # until built; dataclasses.replace gives the copy None
    configuration: object = dataclasses.field(
        default=None, init=False, compare=False, repr=False
    )


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


def _sym(spec, n):
    if n < 1:
        raise InputError("sym:n requires n >= 1")
    return CatalogInstance(spec, PermutationGroup(n, _sym_gens(n)))


def _alt(spec, n):
    if n < 1:
        raise InputError("alt:n requires n >= 1")
    return CatalogInstance(spec, PermutationGroup(n, _alt_two_gens(n)))


def _on_pairs(spec, base):
    return CatalogInstance(spec, action_on_ksubsets(base, 2))


def _altpairs(spec, n):
    if n < 4:
        raise InputError("altpairs:n requires n >= 4")
    return _on_pairs(spec, PermutationGroup(n, _alt_gens(n)))


def _sympairs(spec, n):
    """Overgroup of altpairs:n obtained by adding a transposition upstairs."""
    if n < 4:
        raise InputError("sympairs:n requires n >= 4")
    return _on_pairs(spec, PermutationGroup(n, _alt_gens(n) + [_cycle(n, [0, 1])]))


def _signtwist(spec, n):
    """A_{n+2} acting on the right cosets of the sign-twisted embedding of S_n:
    even permutations map to themselves, odd ones pick up the transposition of
    the two extra points."""
    if n < 3:
        raise InputError("signtwist:n requires n >= 3")
    m = n + 2
    big = PermutationGroup(m, _alt_gens(m))
    extra = _cycle(m, [n, n + 1])  # the two added points
    h1 = _cycle(m, [0, 1]) * extra  # image of an odd transposition
    ncyc = _cycle(m, list(range(n)))
    h2 = ncyc if n % 2 == 1 else ncyc * extra  # n-cycle is even iff n is odd
    sub = PermutationGroup(m, [h1, h2])
    if sub.order() != math.factorial(n):
        raise VerificationError("twisted subgroup has unexpected order")
    return CatalogInstance(spec, action_on_cosets(big, sub))


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


def _frobenius(spec, q, d):
    """One-dimensional affine maps x -> ax + b with a restricted to the order-d
    subgroup of F_q*; Frobenius for 2 <= d < q-1, two-transitive for d = q-1."""
    if not is_prime(q):
        raise InputError(f"frobenius requires prime q, got {q}")
    if d < 2 or (q - 1) % d != 0:
        raise InputError(f"d must divide q-1 = {q - 1} and be >= 2, got {d}")
    mult = pow(_primitive_root(q), (q - 1) // d, q)
    translation = Permutation([(x + 1) % q for x in range(q)])
    multiplier = Permutation([x * mult % q for x in range(q)])
    return CatalogInstance(
        spec,
        PermutationGroup(q, [translation, multiplier]),
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


def _affine_shear(spec):
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
    return CatalogInstance(
        spec,
        PermutationGroup(9, [a, b, x]),
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


def _psl2_line(spec, q):
    """PSL(2,q) = SL(2,q) for even q, acting on the q+1 points of the projective
    line over GF(q).  Generated by the unit transvection, the diagonal torus
    element for a multiplicative generator, and the coordinate swap."""
    if q not in PSL_LINE_FIELDS:
        raise InputError(f"psl2line supports q in {sorted(PSL_LINE_FIELDS)}, got {q}")
    field = BinaryField(PSL_LINE_FIELDS[q])
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
            f"{spec} order {group.order()} differs from q(q^2-1) = {expected}"
        )
    return CatalogInstance(spec, group)


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
    """Dihedral subgroup H = <C, S> of order 2(q+1) of PSL(2,q), q even, on
    the q+1 points of the projective line, built from two matrices (see
    ``_dihedral_generators``): the normalizer of a non-split torus (Dickson;
    Huppert, Endliche Gruppen I, II.8).

    C has determinant 1 and order q+1, and S has order 2.  In characteristic
    2, S C S = ((t, 1), (1, 0)) = C^-1, so S normalizes <C> and inverts it.
    q+1 is odd, so <C> holds no involution and S lies outside it; hence
    <C, S> is dihedral of order 2(q+1).  PSL(2,q) = SL(2,q) acts faithfully
    on the projective line, so the permutation group has that order too,
    which the order check below confirms."""
    field = BinaryField(PSL_LINE_FIELDS[q])
    H = PermutationGroup(
        q + 1, [_psl2_matrix_perm(field, m) for m in _dihedral_generators(field, q)]
    )
    if H.order() != 2 * (q + 1):
        raise VerificationError(
            f"normalizer order {H.order()} differs from 2(q+1) = {2 * (q + 1)}"
        )
    return H


def _psl2_cosets(spec, q):
    if q not in (8, 32):
        raise InputError(f"psl2cosets supports q in (8, 32), got {q}")
    G = _build("psl2line", (q,)).group
    return CatalogInstance(spec, action_on_cosets(G, _dihedral_subgroup(q)))


def build_from_file(path: str) -> CatalogInstance:
    from .perm import parse_generator_text

    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read generator file {path}: {exc}") from None
    degree, gens = parse_generator_text(text)
    return CatalogInstance(f"file:{path}", PermutationGroup(degree, gens))


# ---------------------------------------------------------------------------
# the family table and spec-string dispatch
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """One catalog family: its parameter names, the example, degree formula
    and summary that ``permsym catalog`` lists, ``points(*params)``, the
    number of points it acts on, and ``build(spec, *params)``."""

    params: tuple[str, ...]
    example: str
    degree: str
    summary: str
    points: Callable[..., int]
    build: Callable[..., CatalogInstance]


FAMILIES = {
    "sym": Family(("n",), "sym:5", "n", "symmetric group, natural action",
                  lambda n: n, _sym),
    "alt": Family(("n",), "alt:5", "n", "alternating group, natural action",
                  lambda n: n, _alt),
    "altpairs": Family(("n",), "altpairs:7", "n(n-1)/2",
                       "alternating group on unordered pairs",
                       lambda n: n * (n - 1) // 2, _altpairs),
    "sympairs": Family(("n",), "sympairs:7", "n(n-1)/2",
                       "symmetric group on unordered pairs",
                       lambda n: n * (n - 1) // 2, _sympairs),
    "signtwist": Family(("n",), "signtwist:3", "(n+1)(n+2)/2",
                        "A_{n+2} on cosets of a sign-twisted S_n",
                        lambda n: (n + 1) * (n + 2) // 2, _signtwist),
    "frobenius": Family(("q", "d"), "frobenius:7,3", "q",
                        "affine maps of F_q with multipliers in the order-d subgroup",
                        lambda q, d: q, _frobenius),
    "example3_2": Family((), "example3_2", "9",
                         "order-27 affine shear group on the vectors of F_3^2",
                         lambda: 9, _affine_shear),
    "psl2line": Family(("q",), "psl2line:8", "q+1",
                       "PSL(2,q) on the projective line, q in {4,8,32}",
                       lambda q: q + 1, _psl2_line),
    "psl2cosets": Family(("q",), "psl2cosets:8", "q(q-1)/2",
                         "PSL(2,q) on cosets of a dihedral subgroup of order 2(q+1), q in {8,32}",
                         lambda q: q * (q - 1) // 2, _psl2_cosets),
}


def _spec(head, params):
    return f"{head}:{','.join(map(str, params))}" if params else head


@lru_cache(maxsize=None)
def _build(head: str, params: tuple[int, ...]) -> CatalogInstance:
    """The instance of a family for parsed parameters, built once per process.
    The degree cap is checked on ``points(*params)`` before the builder runs,
    so an oversized spec builds no generator and no stabilizer chain: a
    derived family would build the chain of the group it is induced from."""
    family = FAMILIES[head]
    spec = _spec(head, params)
    points = family.points(*params)
    if points > DEGREE_CAP:
        raise InputError(f"{spec} acts on {points} points, above the cap {DEGREE_CAP}")
    return family.build(spec, *params)


def build_instance(spec: str) -> CatalogInstance:
    spec = spec.strip()
    head, colon, body = spec.partition(":")
    if head == "file" and colon:
        return build_from_file(body)
    family = FAMILIES.get(head)
    if family is None:
        raise InputError(f"unknown group spec {spec!r}")
    parts = [p.strip() for p in body.split(",")] if colon else []
    if len(parts) != len(family.params) or not all(p.isdecimal() for p in parts):
        raise InputError(f"bad parameters in group spec {spec!r}")
    return _build(head, tuple(int(p) for p in parts))


def catalog_entries():
    """Rows for the CLI catalog table: (pattern, example, degree, summary)."""
    return [
        (_spec(head, f.params), f.example, f.degree, f.summary) for head, f in FAMILIES.items()
    ] + [("file:<path>", "file:gens.txt", "from file",
          "generator file, one cycle-form generator per line")]
