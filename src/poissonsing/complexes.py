"""The four (co)homology complexes of the engine, as one table.

Each computed (co)homology space, of A = F[x,y,z] (side "ambient") or of
A/<phi> (side "surface"), is a subquotient of a complex of graded pieces of
X^0..X^3.  Homology H_k at form degree i is indexed by p = 3-k at
derivation degree j = i - |w| (Omega^k_i is X^{3-k}_j), so that delta^p and
boundary_k both map X^p_j to X^{p+1}_{j+N}, with N = d - |w| and d = deg(phi).

COMPLEXES has one row per (block, side), and a row holds only data: the
name of the differential; whether a constraint T_p = D_p with allowed
values S_p = phi*X^{p-1} (the entry relation_blocks(P, p, j)) applies, as
it does only for surface cohomology, whose cochains are the v with D_p(v)
in phi*X^{p-1}; the halves of the entry relation_blocks(P, p+2, j+N-d) that
make the target relations R_{p+1}: none on A, the phi half phi*X^{p+1} for
surface cohomology, both (d(phi) ^ . + phi*.) for surface homology; and the
certificate that licenses its skipped columns (for ambient homology, its
shared stacks).  The closed forms and engines are bound in
suites.space_family, and every space is named by space_name.  While
boundary_equals_signed_coboundary holds, boundary_{3-p} = +-delta^p on X^p_j
gives both stacks one span, so stack_rank reads ambient homology off the
ambient cohomology stacks; when it fails, the row ranks the boundary.

The cycle stack of X^p_j is [[T; d] | [S; 0] | [0; R]], ranked once by the
one memo stack_pivots, which keeps the pivot set of its echelon (stack_rank
is its size) and no matrix: it fills from the symbol of d only the columns
it reduces.  The boundary stack at (p, j) is the cycle stack at (p-1, j-N).
So every dimension is one linalg.subquotient_dim call
(complex_dim) in n = dim X^p_j, the rank of the stack, the rank of its
relation columns [S; 0] | [0; R], the rank of the stack one step down and
the rank [T | S] of that stack's top rows.  At the ends of the complex no
elimination is needed: for p = -1, X^p is zero and the stack is R alone
(relation_rank, or the source dim of an injective phi block); for p = 3 the
target of d is zero and the stack is [T | S] (relation_rank).

Skipped columns.  stack_pivots reduces only the top columns off the pivots
of an echelon of a subspace W of X^p_j whose stack columns lie in the span
of the relation columns (so each skipped column is a combination of those
and of columns of larger index), once the identity that proves it holds:
  ambient cohomology: W = im delta^{p-1}, the pivots of the stack at
    (p-1, j-N), by delta o delta = 0 (coboundary_squared_vanishes);
  surface cohomology: W = phi*X^p_{j-d}, whose pivots are the indices of
    LM(phi)*m (operators.phi_multiple_pivots, no elimination), as
    stack(phi*x) = [S(D_p x); R(delta x)] by [delta, phi] = 0
    (casimir_multiplication_commutes);
  surface homology: for p >= 1, W = the boundaries plus the source
    relations of X^p_j, the pivots of the row's own stack at (p-1, j-N),
    whose columns are exactly those (the same span), by boundary o boundary
    = 0 (boundary_squared_vanishes) and descent to the quotient
    (quotient_boundary_well_defined); with descent alone, or for p = 0, W =
    the source relations, relation_pivots(P, p+1, j-d).
Each identity is certified once per structure on its probe set, on the
operators' symbols (certificate); until it holds nothing is skipped.  The
relation memo operators.relation_pivots and the relation columns [D_k | phi]
of the surface homology stacks reduce the same operators.relation_columns,
which skip the D_k columns at the phi-multiple pivots
(operators.relation_skip), on the A-linearity of D_k alone.  When
N < 0 the surface homology skip ranks stacks above the window, as the
ambient cohomology skip does.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from sys import intern

from .linalg import KINDS, Symbol, Vector, apply_symbol, basis_of, columns_off_pivots
from .linalg import offset_vector, pivots_of_columns, subquotient_dim, term_maps
from .operators import kept_matrix, operator_matrix, operator_symbol, pieces, phi_multiple_pivots
from .operators import relation_blocks, relation_columns, relation_pivots, relation_rank
from .poisson import PoissonStructure
from .poly import UNIT_WEIGHTS, Poly, monomials_of_degree
from .vectorcalc import VecPoly


@dataclass(frozen=True)
class Complex:
    """One row of the table (see the module docstring)."""

    differential: str
    constrained: bool
    relations: tuple[str, ...]
    licence: str


COMPLEXES: dict[tuple[str, str], Complex] = {
    ("cohomology", "ambient"): Complex("delta", False, (), "coboundary_squared_vanishes"),
    ("cohomology", "surface"): Complex("delta", True, ("phi",), "casimir_multiplication_commutes"),
    ("homology", "ambient"): Complex("boundary", False, (), "boundary_equals_signed_coboundary"),
    ("homology", "surface"):
        Complex("boundary", False, ("koszul", "phi"), "quotient_boundary_well_defined"),
}


def space_label(block: str, k: int) -> str:
    """H^k as "H<k>" (block "cohomology"), H_k as "H_<k>" ("homology")."""
    return ("H%d" if block == "cohomology" else "H_%d") % k


def space_name(block: str, side: str, k: int) -> str:
    """The name of one of the sixteen spaces, as "<label>_<side>"."""
    return "%s_%s" % (space_label(block, k), side)


def cochain_dim(P: PoissonStructure, p: int, j: int) -> int:
    """dim X^p at derivation degree j; X^p is zero outside p in 0..3."""
    return basis_of(KINDS[p], j, P.weights).dim if 0 <= p <= 3 else 0


# The ten monomials of total degree at most 2, and the thirty vectors m*e_j.
PROBES: tuple[Poly, ...] = tuple(
    Poly.monomial(m) for n in range(3) for m in monomials_of_degree(n, UNIT_WEIGHTS)
)
VECTOR_PROBES: tuple[VecPoly, ...] = tuple(
    VecPoly(tuple(f if a == j else Poly.zero() for a in range(3)))  # type: ignore[arg-type]
    for f in PROBES
    for j in range(3)
)


def first_failure(cases: Iterable, check: Callable) -> tuple[int, str]:
    """(cases run, first failure or ""), running check on each case in order."""
    count = 0
    for count, case in enumerate(cases, 1):
        bad = check(case)
        if bad:
            return count, bad
    return count, ""


@lru_cache(maxsize=None)
def certificate(P: PoissonStructure, family: str) -> tuple[int, str]:
    """(cases run, first failure or "") of an identity family on its probe
    set, each operator run on its symbol for P.integral (linalg.apply_symbol),
    from which every engine matrix is built, so phi is c*phi there: each
    identity is homogeneous in phi, so c*phi certifies what phi does (the
    probes stay Poly to name a failure).  The delta families are as in
    suites.identities_suite; D_k o D_{k+1} = 0 for the boundary, Koszul and de
    Rham maps (boundary_, koszul_ and de_rham_squared_vanishes) holds for k = 1
    on VECTOR_PROBES, then k = 2 on PROBES (operators of order at most 2); for
    descent, on the probes of Omega^k = X^{3-k}, boundary_k(phi*c) =
    phi*boundary_k(c), then on those of Omega^{k-1}, boundary_k(D_{4-k} eta) =
    D_{5-k}(boundary_{k-1} eta) (boundary_0 = 0), k = 1..3; for duality,
    boundary_k = (-1)^k * delta^{3-k}, k = 1..3, on the symbol term groups
    read from the probes e_s and x_a*e_s of Omega^k.  All are operators of
    order at most one; equal symbols give equal matrices in every degree."""
    probes = [(0, "f", f) for f in PROBES] + [(1, "v", v) for v in VECTOR_PROBES]

    symbols: dict[str, Symbol] = {}  # on first use: a family extracts only its own

    def run(name, parts):  # a named operator of P.integral (operators.PIECES)
        if name not in symbols:
            symbols[name] = operator_symbol(P, name)
        return apply_symbol(symbols[name], parts)

    def commutes(name, parts):  # name(phi*c) == phi*name(c)
        p, q, _ = pieces(P, name)
        return run(name, run("phi%d" % p, parts)) == run("phi%d" % q, run(name, parts))

    def delta_squared(case):
        k, name, c = case
        if not any(run("delta%d" % (k + 1), run("delta%d" % k, term_maps(c)))):
            return None
        return "delta%d o delta%d on %s=%s" % (k + 1, k, name, c)

    def casimir_commutes(case):
        k, name, c = case
        for j in (0,) if k == 0 else (1, 2):
            if not commutes("delta%d" % j, term_maps(c)):
                return "k=%d, %s=%s" % (j, name, c)
        return None

    def squared(prefix):  # <prefix>_k o <prefix>_{k+1}: k = 1 on vectors, k = 2 on scalars
        def vanishes(case):
            k, c = case
            if not any(run("%s%d" % (prefix, k), run("%s%d" % (prefix, k + 1), term_maps(c)))):
                return None
            return "%s_%d o %s_%d on %s=%s" % (prefix, k, prefix, k + 1, "v" if k == 1 else "f", c)

        return vanishes

    def descends(case):
        identity, k, c = case
        parts = term_maps(c)
        if identity == "phi":
            ok = commutes("boundary%d" % k, parts)
            return None if ok else "boundary_%d(phi*c) != phi*boundary_%d(c) at c=%s" % (k, k, c)
        lhs = run("boundary%d" % k, run("koszul%d" % (4 - k), parts))
        if k == 1:
            return None if not any(lhs) else "boundary_1(D_3 f) != 0 at f=%s" % c
        if lhs != run("koszul%d" % (5 - k), run("boundary%d" % (k - 1), parts)):
            return "boundary_%d(D_%d eta) != D_%d(boundary_%d eta) at eta=%s" % (
                k, 4 - k, 5 - k, k - 1, c)
        return None

    omega = (PROBES, VECTOR_PROBES, VECTOR_PROBES, PROBES)  # Omega^k = X^{3-k}

    def dual(case):  # probe omega[k][n*i + s]: e_s (term group 3, or -1), then x_a*e_s (a = i - 1)
        k, s, i = case
        boundary = operator_symbol(P, "boundary%d" % k)
        signed = operator_symbol(P, "delta%d" % (3 - k)).scaled((-1) ** k)
        if boundary.terms[s][i - 1] == signed.terms[s][i - 1]:
            return None
        c = omega[k][boundary.source_components * i + s]
        return "boundary_%d != (-1)^%d * delta%d at c=%s" % (k, k, 3 - k, c)

    descent = [("phi", k, c) for k in (1, 2, 3) for c in omega[k]]
    descent += [("D", k, c) for k in (1, 2, 3) for c in omega[k - 1]]
    duality = ((k, s, i) for k in (1, 2, 3)  # lazy: no other family extracts a boundary symbol
               for s in range(operator_symbol(P, "boundary%d" % k).source_components)
               for i in range(4))
    chained = [(1, v) for v in VECTOR_PROBES] + [(2, f) for f in PROBES]
    cases, check = {
        "coboundary_squared_vanishes": (probes, delta_squared),
        "casimir_multiplication_commutes": (probes, casimir_commutes),
        "boundary_squared_vanishes": (chained, squared("boundary")),
        "koszul_squared_vanishes": (chained, squared("koszul")),
        "de_rham_squared_vanishes": (chained, squared("de_rham")),
        "quotient_boundary_well_defined": (descent, descends),
        "boundary_equals_signed_coboundary": (duality, dual),
    }[family]
    return first_failure(cases, check)


def _constraint_rank(P: PoissonStructure, row: Complex, p: int, j: int) -> int:
    return relation_rank(P, p, j) if row.constrained else 0


def target_relations(P: PoissonStructure, row: Complex, p: int, j: int) -> Iterable[Vector]:
    """The columns of R_{p+1} that the stack reduces, built only for the halves
    the row names: relation_columns, or phi's (also for k = 4: D_4 is None)."""
    k, i = p + 2, j + P.coboundary_degree - P.degree
    if "koszul" in row.relations and k < 4:
        return relation_columns(P, k, i)
    return kept_matrix(P, intern("phi%d" % (k - 1)), i).columns if row.relations else ()


def _target_rank(P: PoissonStructure, row: Complex, p: int, j: int) -> int:
    """rank R_{p+1}; the phi half alone is injective, of rank its source dim."""
    k, i = p + 2, j + P.coboundary_degree - P.degree
    if "koszul" in row.relations:
        return relation_rank(P, k, i)
    return cochain_dim(P, k - 1, i) if row.relations else 0


def skipped(P: PoissonStructure, block: str, side: str, p: int, j: int) -> int:
    """The pivots in X^p_j of the row's W; 0 until its licence holds, or if it grants no W."""
    licence = COMPLEXES[block, side].licence
    if certificate(P, licence)[1]:
        return 0
    if licence == "coboundary_squared_vanishes":
        return stack_pivots(P, block, side, p - 1, j - P.coboundary_degree) if p else 0
    if licence == "quotient_boundary_well_defined":
        if p and not certificate(P, "boundary_squared_vanishes")[1]:
            return stack_pivots(P, block, side, p - 1, j - P.coboundary_degree)
        return relation_pivots(P, p + 1, j - P.degree)
    if licence == "casimir_multiplication_commutes":
        return phi_multiple_pivots(P, p, j - P.degree)
    return 0


@lru_cache(maxsize=None)
def stack_pivots(P: PoissonStructure, block: str, side: str, p: int, j: int) -> int:
    """The pivots of an echelon of the cycle stack [[T; d] | [S; 0] | [0; R]]
    of X^p_j in the (block, side) complex, for p in 0..2, as the bits of one
    int: its columns in that order, less the top ones at the skipped pivots,
    with R's columns as target_relations gives them.  d is built by name and
    degree (operators.operator_matrix) on the source less those pivots, so
    their columns are never filled, and is not kept."""
    row = COMPLEXES[block, side]
    skip, top = 0, []
    if cochain_dim(P, p, j):
        skip = skipped(P, block, side, p, j)
        name = "delta%d" % p if row.differential == "delta" else "boundary%d" % (3 - p)
        top = operator_matrix(P, name, j, skip).columns
    rows_top, s_cols = 0, []
    if row.constrained and p:
        T, S = relation_blocks(P, p, j)
        rows_top, s_cols = T.target.dim, S.columns
        t_cols = columns_off_pivots(T.columns, skip)
        top = [{**t, **offset_vector(c, rows_top)} for t, c in zip(t_cols, top)]
    r_cols = (offset_vector(c, rows_top) for c in target_relations(P, row, p, j))
    return pivots_of_columns(chain(top, s_cols, r_cols))


def stack_rank(P: PoissonStructure, block: str, side: str, p: int, j: int) -> int:
    """rank of the cycle stack of X^p_j in the (block, side) complex, for p
    in -1..3; the ends need no elimination, and a licensed ambient homology
    row reads the ambient cohomology stack (see the module docstring)."""
    row = COMPLEXES[block, side]
    if row.licence == "boundary_equals_signed_coboundary" and not certificate(P, row.licence)[1]:
        return stack_rank(P, "cohomology", side, p, j)
    if p == 3:
        return _constraint_rank(P, row, p, j)
    if p < 0:
        return _target_rank(P, row, p, j)
    return stack_pivots(P, block, side, p, j).bit_count()


def complex_dim(P: PoissonStructure, block: str, side: str, k: int, i: int) -> int:
    """dim H^k at derivation degree i (block "cohomology") or H_k at form
    degree i ("homology") of A (side "ambient") or A/<phi> ("surface")."""
    row = COMPLEXES[block, side]
    p, j = (k, i) if block == "cohomology" else (3 - k, i - P.weight_sum)
    N = P.coboundary_degree
    relations = (cochain_dim(P, p - 1, j) if row.constrained else 0) + _target_rank(P, row, p, j)
    return subquotient_dim(
        lambda: space_name(block, side, k), i, cochain_dim(P, p, j),
        stack_rank(P, block, side, p, j), relations,
        stack_rank(P, block, side, p - 1, j - N), _constraint_rank(P, row, p - 1, j - N),
    )
