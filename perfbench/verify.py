"""Correctness checks for the jobs of one pass, run after the timed region.

Each check returns a list of problems; an empty list means the job is
correct.  Witness functionals and the exhaustive negative certificate are
re-verified here with exact Python-integer arithmetic over F_p, on the
structure constants of the orbital basis (``two_orbits`` plus
``intersection_tensor``, the basis ``run_analysis`` reports the witness in).
Witness bytes and ``timings_ms`` are never compared.
"""

from itertools import product

from workloads import ALGEBRAS, GROUP_CHECKS, GROUPS, NOT_SYMMETRIC, WITH_WITNESS

NEGATIVE_RECHECK_CAP = 1 << 16  # functionals enumerated to re-verify "not symmetric"


def _rref(rows, p):
    """Reduced row-echelon rows and pivot columns of an integer matrix over F_p."""
    rows = [[v % p for v in row] for row in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [v * inv % p for v in rows[r]]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and f:
                rows[i] = [(a - f * b) % p for a, b in zip(row, rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def _nullspace(rows, ncols, p):
    rref, pivots = _rref(rows, p)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = 1
        for row, pc in zip(rref, pivots):
            v[pc] = -row[f] % p
        basis.append(v)
    return basis


def _gram(C, lam, p):
    """Gram matrix of (x, y) -> lam(x y): entry (r, s) is sum_t lam_t C[t][r][s]."""
    m = len(lam)
    return [[sum(lam[t] * C[t][r][s] for t in range(m)) % p for s in range(m)]
            for r in range(m)]


def _commutator_constraints(C, m):
    return [[C[t][r][s] - C[t][s][r] for t in range(m)]
            for r in range(m) for s in range(r + 1, m)]


def _witness_problems(C, witness, p):
    m = len(C)
    lam = [int(v) % p for v in witness]
    if len(lam) != m:
        return [f"witness has length {len(lam)}, algebra dimension {m}"]
    problems = []
    if any(sum(c * l for c, l in zip(row, lam)) % p for row in _commutator_constraints(C, m)):
        problems.append("witness does not vanish on commutators")
    if len(_rref(_gram(C, lam, p), p)[1]) != m:
        problems.append("witness Gram matrix is degenerate")
    return problems


def _negative_problems(C, p):
    """Every functional vanishing on commutators must give a degenerate form."""
    m = len(C)
    W = _nullspace(_commutator_constraints(C, m), m, p)
    if p ** len(W) > NEGATIVE_RECHECK_CAP:
        return [f"witness space {p}^{len(W)} too large to re-verify the negative verdict"]
    for coeffs in product(range(p), repeat=len(W)):
        if any(coeffs):
            lam = [sum(c * w[t] for c, w in zip(coeffs, W)) % p for t in range(m)]
            if len(_rref(_gram(C, lam, p), p)[1]) == m:
                return ["negative verdict, but a nondegenerate symmetric form exists"]
    return []


def check_analysis(job, report, tensor_of):
    """Problems with one AnalysisReport; tensor_of(spec) gives the integer
    intersection tensor C[t][r][s] as nested lists."""
    degree, order, subdegrees, primitive = GROUPS[job.spec]
    dims, structure, status = ALGEBRAS[(job.spec, job.p)]
    cls = report.classification
    st = report.structure
    rank = len(subdegrees)
    got = {
        "degree": (report.degree, degree),
        "group order": (report.group_order, order),
        "transitive": (cls.transitive, True),
        "subdegrees": (tuple(sorted(cls.subdegrees or ())), subdegrees),
        "rank": (cls.rank, rank),
        "primitive": (cls.primitive, primitive),
        "orbital count": (report.orbital_count, rank),
        "valencies": (tuple(sorted(report.valencies)), subdegrees),
        "characteristic": (report.characteristic, job.p),
        "algebra dimension": (report.algebra_dim, rank),
        "radical dims": (tuple(report.radical_dims), dims),
        "structure": ((st.top_dim, st.left_socle_dim, st.right_socle_dim,
                       st.is_local, st.commutative), structure),
        "verdict status": (report.verdict.status, status),
    }
    if job.oracle:
        got["oracle dimension"] = (report.checks.get("oracle_dim"), rank)
    hecke = report.checks.get("hecke")
    if hecke is not None:
        got["hecke dimension"] = (hecke["hecke_dim"], rank)
        got["hecke matches rank"] = (hecke["matches_rank"], True)
    problems = [f"{what}: got {g!r}, want {w!r}" for what, (g, w) in got.items() if g != w]
    if problems:
        return problems
    witness = report.verdict.witness
    if status == WITH_WITNESS and witness is None:
        return ["positive verdict without a witness"]
    if witness is not None:
        problems += _witness_problems(tensor_of(job.spec), witness, job.p)
    if status == NOT_SYMMETRIC:
        problems += _negative_problems(tensor_of(job.spec), job.p)
    return problems


def check_group_checks(job, result):
    want = GROUP_CHECKS[(job.spec, job.p)]
    got = (result.normalizer_in_stabilizer, result.max_conjugate_intersection)
    return [] if got == want else [f"group checks: got {got!r}, want {want!r}"]
