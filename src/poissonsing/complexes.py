"""The complexes of the engine, as one table.

Each computed (co)homology space, of A = F[x,y,z] (side "ambient") or of
A/<phi> (side "surface"), is a subquotient of a complex of graded pieces of
X^0..X^3.  Homology H_k at form degree i is indexed by p = 3-k at
derivation degree j = i - |w| (Omega^k_i is X^{3-k}_j), so that delta^p and
boundary_k both map X^p_j to X^{p+1}_{j+N}, with N = d - |w| and d = deg(phi).
The Koszul complex of grad(phi) (D_p: X^p_j -> X^{p-1}_{j+d}) and the de
Rham complex (divergence, curl, gradient: X^p_j -> X^{p-1}_j) of A, whose
exactness the Koszul suite checks, are two more rows.  The Koszul complex
over A/<phi> is a seventh: its cycle stack at (p, j), the relation entry
[D_p | phi] from X^p_j and X^{p-1}_j into X^{p-1}_{j+d}, spans the surface
constraint of X^p (v with D_p(v) in phi*X^{p-1}) and the relations d(phi) ^
Omega^{3-p} + phi*Omega^{4-p} of Omega^{4-p} of A/<phi> at form degree
j+d+|w| (d(phi) ^ Omega^1 is -D_2, of the same span).

COMPLEXES has one row per (block, side), and a row holds only data: the
family of its differential, whose map out of X^p (operators.OUTGOING) and
step X^p_j -> X^{p+e}_{j+s} (operators.step) come from the grading table;
whether a constraint T_p = D_p with allowed values S_p = phi*X^{p-1} (the
relation entry (p, j)) applies, as it does only for surface cohomology,
whose cochains are the v with D_p(v) in phi*X^{p-1}; the halves of the
relation entry (p+e+1, j+s-d) that make the relations R of the target: none
on A, the phi half for surface cohomology and the Koszul row of A/<phi>,
both (d(phi) ^ . + phi*., the stack of that row) for surface homology; and
the certificate that licenses its skipped columns (for ambient homology,
its shared stacks).  The closed forms and engines are bound in
suites.space_family, and every space is named by space_name.
While boundary_equals_signed_coboundary holds, boundary_{3-p} = +-delta^p
on X^p_j gives both stacks one span, so stack_rank reads ambient homology
off the ambient cohomology stacks; when it fails, the row ranks the boundary.

The cycle stack of X^p_j is [[T; d] | [S; 0] | [0; R]] (stack_columns),
ranked once by the one memo stack_pivots, which keeps the pivot set of its
echelon (stack_rank is its size) and no matrix.  The boundary stack at
(p, j) is the cycle stack one step before, at (p-e, j-s).  So every
dimension is one linalg.subquotient_dim call (complex_dim) in n = dim
X^p_j, the rank of the stack, the rank of its relation columns [S; 0] |
[0; R], the rank of the stack one step before and the rank [T | S] of that
stack's top rows.  At the ends, where the family has no map out of X^p, d
is zero and the rank is rank [T | S] + rank R (a stack rank of the Koszul
row of A/<phi>, or an injective phi block's source dim), with no
elimination.

Skipped columns.  A stack may leave out its columns at coordinates C when
a subspace of its kernel projects onto C: the kernel then holds, for each c
in C, a vector that is 1 at c and 0 on the rest of C, so column c is a
combination of the columns off C, whatever rule picks an echelon's pivots.
stack_pivots leaves out the top columns at the pivots of an echelon of a
subspace W of X^p_j that the stack maps into the span of its relation
columns; W then lies in the kernel's projection, onto those pivots.  A row
takes its W once the identity that proves this holds:
  delta, Koszul and de Rham rows: W = the image of the map into X^p_j, the
    pivots of the row's own stack one step before, by D o D = 0
    (coboundary_, koszul_ and de_rham_squared_vanishes);
  surface cohomology: W = phi*X^p_{j-d}, whose pivots are the indices of
    LM(phi)*m (operators.phi_multiple_pivots, no elimination), as
    stack(phi*x) = [S(D_p x); R(delta x)] by [delta, phi] = 0
    (casimir_multiplication_commutes);
  the Koszul row of A/<phi>: the same W, as [D_p | phi](phi*x, -D_p x) = 0
    by [D_p, phi] = 0 (koszul_multiplication_commutes);
  surface homology: for p >= 1, W = the boundaries plus the source
    relations of X^p_j, the pivots of the row's own stack one step before
    (the same span), by boundary o boundary = 0 (boundary_squared_vanishes)
    and descent to the quotient (quotient_boundary_well_defined); with
    descent alone, or for p = 0, W = the source relations, the pivots of
    the stack of the Koszul row of A/<phi> at (p+1, j-d).
Each identity is certified once per structure on its probe set, on the
operators' symbols (certificate); until it holds nothing is skipped.  The
surface homology stacks reduce the stack_columns of the Koszul row of
A/<phi>, off that row's skip set.  When N < 0 the delta and surface
homology rows skip off stacks above the window.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

from .linalg import KINDS, Symbol, Vector, apply_symbol, basis_of, offset_vector
from .linalg import pivots_of_columns, subquotient_dim, term_maps
from .operators import OUTGOING, operator_columns, operator_symbol, phi_multiple_pivots, pieces
from .operators import step
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
    ("koszul", "ambient"): Complex("koszul", False, (), "koszul_squared_vanishes"),
    ("koszul", "surface"): Complex("koszul", False, ("phi",), "koszul_multiplication_commutes"),
    ("de_rham", "ambient"): Complex("de_rham", False, (), "de_rham_squared_vanishes"),
}


def space_label(block: str, k: int) -> str:
    """H^k as "H<k>" (block "cohomology"), H_k as "H_<k>" ("homology"), and
    the homology at X^k of the Koszul or de Rham row as "<block>_H<k>"."""
    if block == "homology":
        return "H_%d" % k
    return ("H%d" if block == "cohomology" else block + "_H%d") % k


def space_name(block: str, side: str, k: int) -> str:
    """The name of a space, as "<label>_<side>"; a Koszul or de Rham space of
    A by its label alone."""
    label = space_label(block, k)
    return label if side == "ambient" and block in ("koszul", "de_rham") else label + "_" + side


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
    read from the probes e_s and x_a*e_s of Omega^k; D_k(phi*c) =
    phi*D_k(c) (koszul_multiplication_commutes) on the units of X^k (1 for
    k = 3, e_s for k = 1, 2), as [D_k, phi] has order 0.  All are operators
    of order at most one; equal symbols give equal matrices in every
    degree."""
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

    def koszul_commutes(case):
        k, c = case
        ok = commutes("koszul%d" % k, term_maps(c))
        return None if ok else "D_%d(phi*c) != phi*D_%d(c) at c=%s" % (k, k, c)

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
    units = [(k, v) for k in (1, 2) for v in VECTOR_PROBES[:3]] + [(3, PROBES[0])]
    cases, check = {
        "coboundary_squared_vanishes": (probes, delta_squared),
        "casimir_multiplication_commutes": (probes, casimir_commutes),
        "koszul_multiplication_commutes": (units, koszul_commutes),
        "boundary_squared_vanishes": (chained, squared("boundary")),
        "koszul_squared_vanishes": (chained, squared("koszul")),
        "de_rham_squared_vanishes": (chained, squared("de_rham")),
        "quotient_boundary_well_defined": (descent, descends),
        "boundary_equals_signed_coboundary": (duality, dual),
    }[family]
    return first_failure(cases, check)


def _constraint_rank(P: PoissonStructure, row: Complex, p: int, j: int) -> int:
    return stack_rank(P, "koszul", "surface", p, j) if row.constrained else 0


def _relation_entry(P: PoissonStructure, row: Complex, p: int, j: int) -> tuple[int, int]:
    """The relation entry (k, i) whose halves make R, on the target of X^p_j."""
    e, s = step(P, row.differential)
    return p + e + 1, j + s - P.degree


def target_relations(P: PoissonStructure, row: Complex, p: int, j: int) -> Iterable[Vector]:
    """The columns of R that the stack reduces, built only for the halves
    the row names: both, the stack_columns of the Koszul row of A/<phi>
    (phi's alone for k = 4: D_4 is none), or phi's."""
    k, i = _relation_entry(P, row, p, j)
    if "koszul" in row.relations:
        return stack_columns(P, "koszul", "surface", k, i)
    return operator_columns(P, OUTGOING["phi", k - 1], i) if row.relations else ()


def _target_rank(P: PoissonStructure, row: Complex, p: int, j: int) -> int:
    """rank R; the phi half alone is injective, of rank its source dim."""
    k, i = _relation_entry(P, row, p, j)
    if "koszul" in row.relations:
        return stack_rank(P, "koszul", "surface", k, i)
    return cochain_dim(P, k - 1, i) if row.relations else 0


def skipped(P: PoissonStructure, block: str, side: str, p: int, j: int) -> int:
    """The pivots in X^p_j of the row's W; 0 until its licence holds, or if it grants no W."""
    row = COMPLEXES[block, side]
    if certificate(P, row.licence)[1] or row.licence == "boundary_equals_signed_coboundary":
        return 0
    if row.licence in ("casimir_multiplication_commutes", "koszul_multiplication_commutes"):
        return phi_multiple_pivots(P, p, j - P.degree)
    e, s = step(P, row.differential)
    before = (row.differential, p - e) in OUTGOING  # a map lands in X^p_j
    if row.licence == "quotient_boundary_well_defined" and (
            not before or certificate(P, "boundary_squared_vanishes")[1]):
        return stack_pivots(P, "koszul", "surface", p + 1, j - P.degree)
    return stack_pivots(P, block, side, p - e, j - s) if before else 0


def stack_columns(P: PoissonStructure, block: str, side: str, p: int, j: int) -> Iterable[Vector]:
    """The columns of the cycle stack [[T; d] | [S; 0] | [0; R]] of X^p_j in
    the (block, side) complex that an echelon of it reduces, in that order:
    the top ones less those at the skipped pivots, then S's, then R's as
    target_relations gives them.  No column of d at a skipped pivot is
    filled, and no block out of an empty X^p_j."""
    row = COMPLEXES[block, side]
    skip, top = 0, []
    if cochain_dim(P, p, j):
        skip = skipped(P, block, side, p, j)
        top = operator_columns(P, OUTGOING[row.differential, p], j, skip)
    rows_top, s_cols = 0, []
    if row.constrained and p:
        rows_top = cochain_dim(P, p - 1, j + P.degree)
        s_cols = operator_columns(P, OUTGOING["phi", p - 1], j)
        t_cols = operator_columns(P, OUTGOING["koszul", p], j, skip)
        top = [{**t, **offset_vector(c, rows_top)} for t, c in zip(t_cols, top)]
    r_cols = (offset_vector(c, rows_top) for c in target_relations(P, row, p, j))
    return chain(top, s_cols, r_cols)


@lru_cache(maxsize=None)
def stack_pivots(P: PoissonStructure, block: str, side: str, p: int, j: int) -> int:
    """The pivots of an echelon of the stack_columns of X^p_j in the (block,
    side) complex, for p where the family has a map out of X^p, as the bits
    of one int; the one rank memo, which keeps no matrix."""
    return pivots_of_columns(stack_columns(P, block, side, p, j))


def stack_rank(P: PoissonStructure, block: str, side: str, p: int, j: int) -> int:
    """rank of the cycle stack of X^p_j in the (block, side) complex; the
    ends need no elimination, and a licensed ambient homology row reads the
    ambient cohomology stack (see the module docstring)."""
    row = COMPLEXES[block, side]
    if row.licence == "boundary_equals_signed_coboundary" and not certificate(P, row.licence)[1]:
        return stack_rank(P, "cohomology", side, p, j)
    if (row.differential, p) not in OUTGOING:  # d = 0
        return _constraint_rank(P, row, p, j) + _target_rank(P, row, p, j)
    return stack_pivots(P, block, side, p, j).bit_count()


def complex_dim(P: PoissonStructure, block: str, side: str, k: int, i: int) -> int:
    """dim H^k at derivation degree i (block "cohomology") or H_k at form
    degree i ("homology") of A (side "ambient") or A/<phi> ("surface"); on
    the Koszul and de Rham rows, the homology at X^k_i."""
    row = COMPLEXES[block, side]
    p, j = (3 - k, i - P.weight_sum) if block == "homology" else (k, i)
    e, s = step(P, row.differential)
    relations = (cochain_dim(P, p - 1, j) if row.constrained else 0) + _target_rank(P, row, p, j)
    return subquotient_dim(
        lambda: space_name(block, side, k), i, cochain_dim(P, p, j),
        stack_rank(P, block, side, p, j), relations,
        stack_rank(P, block, side, p - e, j - s), _constraint_rank(P, row, p - e, j - s),
    )
