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
both (d(phi) ^ . + phi*., the stack of that row) for surface homology; the
W its skipped columns take (skip, below); and every certificate family
that W rests on (licences).  The closed forms and engines are bound in
suites.space_family, and every space is named by space_name.

The cycle stack of X^p_j is [[T; d] | [S; 0] | [0; R]], ranked once by
the one memo stack_pivots, which keeps the pivot set of its echelon
(stack_rank is its size) and no matrix.  stack_columns gives it as its
other columns ([T; d], then the D_k columns of R) and its relation regions,
the phi-multiples of S and of R.  No phi block is filled: each phi*m has
its own smallest index, that of LM(phi)*m (operators.phi_multiples), and
arrives after every column that starts below it, so it claims that index
as a pivot, unbuilt, unless an echelon row holds it already, and only
then is its column built and reduced.  The boundary stack at
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
skips only while every family it names holds, and its W is one of:
  "stack": the span of the row's stack one step before, the image of the
    map into X^p_j plus the relations R there (R alone at an end).  The
    delta, Koszul and de Rham rows of A (no R) rest on D o D = 0
    (coboundary_, koszul_ and de_rham_squared_vanishes); surface homology,
    whose W is the boundaries plus the source relations of X^p_j (at
    p = 0 the source relations, the stack of the Koszul row of A/<phi> at
    (1, j-d)), on boundary o boundary = 0 (boundary_squared_vanishes) and
    descent to the quotient (quotient_boundary_well_defined), at p = 0 too;
  "relations": R one step before, phi*X^p_{j-d}, whose pivots are the
    indices of LM(phi)*m (operators.phi_multiples, no elimination).
    Surface cohomology rests on [delta, phi] = 0 and [D_p, phi] = 0
    (casimir_ and koszul_multiplication_commutes), as stack(phi*x) =
    [S(D_p x); R(delta x)]; the Koszul row of A/<phi> on [D_p, phi] = 0
    (koszul_multiplication_commutes), as [D_p | phi](phi*x, -D_p x) = 0;
  "shared": none; while boundary_{3-p} = +-delta^p on X^p_j
    (boundary_equals_signed_coboundary) gives both stacks one span,
    stack_rank reads ambient homology off the ambient cohomology stacks,
    and otherwise the row ranks the boundary.
Each family is certified once per structure on the operators' symbols
(certificate, on the cases of IDENTITIES).  The surface homology stacks
take the D_k columns and the regions of the Koszul row of A/<phi> as their
R, off that row's skip set.  When N < 0 the delta and surface homology
rows skip off stacks above the window.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import lru_cache

from .linalg import KINDS, Echelon, Symbol, Vector, apply_symbol, basis_of, offset_vector
from .linalg import subquotient_dim, term_maps
from .operators import OUTGOING, PIECES, operator_columns, operator_symbol, phi_multiples, step
from .poisson import PoissonStructure
from .poly import UNIT_WEIGHTS, Poly, monomials_of_degree
from .vectorcalc import VecPoly


@dataclass(frozen=True)
class Complex:
    """One row of the table (see the module docstring)."""

    differential: str
    constrained: bool
    relations: tuple[str, ...]
    licences: tuple[str, ...]
    skip: str


COMPLEXES: dict[tuple[str, str], Complex] = {
    ("cohomology", "ambient"):
        Complex("delta", False, (), ("coboundary_squared_vanishes",), "stack"),
    ("cohomology", "surface"): Complex(
        "delta", True, ("phi",),
        ("casimir_multiplication_commutes", "koszul_multiplication_commutes"), "relations"),
    ("homology", "ambient"):
        Complex("boundary", False, (), ("boundary_equals_signed_coboundary",), "shared"),
    ("homology", "surface"): Complex(
        "boundary", False, ("koszul", "phi"),
        ("quotient_boundary_well_defined", "boundary_squared_vanishes"), "stack"),
    ("koszul", "ambient"): Complex("koszul", False, (), ("koszul_squared_vanishes",), "stack"),
    ("koszul", "surface"):
        Complex("koszul", False, ("phi",), ("koszul_multiplication_commutes",), "relations"),
    ("de_rham", "ambient"): Complex("de_rham", False, (), ("de_rham_squared_vanishes",), "stack"),
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


def _commutes(name: str, text: str) -> tuple:
    """The identity name(phi*c) == phi*name(c), phi on name's source and
    target pieces (operators.PIECES)."""
    p, q, _ = PIECES[name]
    return (name, "phi%d" % p), ("phi%d" % q, name), text


def _squared(prefix: str) -> list:
    """<prefix>_1 o <prefix>_2 = 0 on VECTOR_PROBES, then <prefix>_2 o <prefix>_3 on PROBES."""
    return [
        ([((prefix + "1", prefix + "2"), (), "%s_1 o %s_2 on v=%%s" % (prefix, prefix))],
         VECTOR_PROBES),
        ([((prefix + "2", prefix + "3"), (), "%s_2 o %s_3 on f=%%s" % (prefix, prefix))], PROBES),
    ]


# Each certificate family: its cases in order, as groups (identities,
# probes), each identity checked on each probe, built only when certificate
# runs the family.  An identity is two chains of named operators
# (operators.PIECES), applied right to left, where an int scales and an
# empty chain is zero, and its failure text, with %s for the probe.  Every
# operator has order at most one, so the probes of degree at most 2 fix a
# composite or a commutator with phi ([D_k, phi] has order 0: the units of
# X^k fix it), and e_s and x_a*e_s fix an operator.  Omega^k = X^{3-k} is
# probed on the probes of its components.
IDENTITIES: dict[str, Callable[[], list]] = {
    "coboundary_squared_vanishes": lambda: [
        ([(("delta1", "delta0"), (), "delta1 o delta0 on f=%s")], PROBES),
        ([(("delta2", "delta1"), (), "delta2 o delta1 on v=%s")], VECTOR_PROBES),
    ],
    "casimir_multiplication_commutes": lambda: [
        ([_commutes("delta0", "k=0, f=%s")], PROBES),
        ([_commutes("delta1", "k=1, v=%s"), _commutes("delta2", "k=2, v=%s")], VECTOR_PROBES),
    ],
    "koszul_multiplication_commutes": lambda: [
        ([_commutes("koszul1", "D_1(phi*c) != phi*D_1(c) at c=%s")], VECTOR_PROBES[:3]),
        ([_commutes("koszul2", "D_2(phi*c) != phi*D_2(c) at c=%s")], VECTOR_PROBES[:3]),
        ([_commutes("koszul3", "D_3(phi*c) != phi*D_3(c) at c=%s")], PROBES[:1]),
    ],
    "boundary_squared_vanishes": lambda: _squared("boundary"),
    "koszul_squared_vanishes": lambda: _squared("koszul"),
    "de_rham_squared_vanishes": lambda: _squared("de_rham"),
    "quotient_boundary_well_defined": lambda: [  # boundary_k on Omega^k, then on D_{4-k} eta
        ([_commutes("boundary1", "boundary_1(phi*c) != phi*boundary_1(c) at c=%s")], VECTOR_PROBES),
        ([_commutes("boundary2", "boundary_2(phi*c) != phi*boundary_2(c) at c=%s")], VECTOR_PROBES),
        ([_commutes("boundary3", "boundary_3(phi*c) != phi*boundary_3(c) at c=%s")], PROBES),
        ([(("boundary1", "koszul3"), (), "boundary_1(D_3 f) != 0 at f=%s")], PROBES),
        ([(("boundary2", "koszul2"), ("koszul3", "boundary1"),
           "boundary_2(D_2 eta) != D_3(boundary_1 eta) at eta=%s")], VECTOR_PROBES),
        ([(("boundary3", "koszul1"), ("koszul2", "boundary2"),
           "boundary_3(D_1 eta) != D_2(boundary_2 eta) at eta=%s")], VECTOR_PROBES),
    ],
    "boundary_equals_signed_coboundary": lambda: [  # on e_s, then x_a*e_s, of Omega^k
        ([(("boundary%d" % k,), ((-1) ** k, "delta%d" % (3 - k)),
           "boundary_%d != (-1)^%d * delta%d at c=%%s" % (k, k, 3 - k))],
         [omega[n * i + s] for s in range(n) for i in range(4)])
        for k, n, omega in ((1, 3, VECTOR_PROBES), (2, 3, VECTOR_PROBES), (3, 1, PROBES))
    ],
}


@lru_cache(maxsize=None)
def certificate(P: PoissonStructure, family: str) -> tuple[int, str]:
    """(cases run, first failure or "") of a family of IDENTITIES, each case
    a probe and the identities checked on it, with every operator run on its
    symbol for P.integral (linalg.apply_symbol), from which every engine
    matrix is built, so phi is c*phi there: each identity is homogeneous in
    phi, so c*phi certifies what phi does (the probes stay Poly to name a
    failure).  Equal symbols give equal matrices in every degree."""
    symbols: dict[str, Symbol] = {}  # on first use: a family extracts only its own

    def value(chain, parts):  # () for the empty chain, which is zero
        for op in reversed(chain):
            if isinstance(op, int):
                parts = tuple({m: op * c for m, c in part.items()} for part in parts)
                continue
            if op not in symbols:
                symbols[op] = operator_symbol(P, op)
            parts = apply_symbol(symbols[op], parts)
        return parts if chain else ()

    def fails(case):
        c, identities = case
        parts = term_maps(c)
        for lhs, rhs, text in identities:
            left, right = value(lhs, parts), value(rhs, parts)
            if left != right if lhs and rhs else any(left + right):
                return text % (c,)
        return None

    groups = IDENTITIES[family]()
    return first_failure(((c, identities) for identities, probes in groups for c in probes), fails)


def licensed(P: PoissonStructure, row: Complex) -> bool:
    """Whether every family the row names holds: only then does it skip or share."""
    return not any(certificate(P, family)[1] for family in row.licences)


def _constraint_rank(P: PoissonStructure, row: Complex, p: int, j: int) -> int:
    return stack_rank(P, "koszul", "surface", p, j) if row.constrained else 0


def _relation_entry(P: PoissonStructure, row: Complex, p: int, j: int) -> tuple[int, int]:
    """The relation entry (k, i) whose halves make R, on the target of X^p_j."""
    e, s = step(P, row.differential)
    return p + e + 1, j + s - P.degree


def _target_rank(P: PoissonStructure, row: Complex, p: int, j: int) -> int:
    """rank R; the phi half alone is injective, of rank its source dim."""
    k, i = _relation_entry(P, row, p, j)
    if "koszul" in row.relations:
        return stack_rank(P, "koszul", "surface", k, i)
    return cochain_dim(P, k - 1, i) if row.relations else 0


def skipped(P: PoissonStructure, block: str, side: str, p: int, j: int) -> int:
    """The pivots in X^p_j of the row's W; 0 unless it is licensed, or if it grants no W."""
    row = COMPLEXES[block, side]
    if row.skip == "shared" or not licensed(P, row):
        return 0
    e, s = step(P, row.differential)
    if row.skip == "stack" and (row.differential, p - e) in OUTGOING:  # a map lands in X^p_j
        return stack_pivots(P, block, side, p - e, j - s)
    k, i = _relation_entry(P, row, p - e, j - s)  # R one step before
    if "koszul" in row.relations:
        return stack_pivots(P, "koszul", "surface", k, i)
    return sum(1 << lead for lead in phi_multiples(P, k - 1, i)[0]) if row.relations else 0


def stack_columns(
    P: PoissonStructure, block: str, side: str, p: int, j: int
) -> tuple[list[Vector], list[tuple[int, int, int]]]:
    """The cycle stack [[T; d] | [S; 0] | [0; R]] of X^p_j in the (block,
    side) complex, as its other columns and its relation regions, each in
    the order an echelon of it reduces them.  The other columns are the top
    ones less those at the skipped pivots, then, for surface homology, the
    D_k columns of the Koszul row of A/<phi> in R; a region (offset, k, i)
    is the phi-multiples of X^k_i on the rows from offset on: S's, then the
    phi half of R.  No column of d or T at a skipped pivot is filled, and
    no block out of an empty X^p_j."""
    row = COMPLEXES[block, side]
    skip, columns = 0, []
    if cochain_dim(P, p, j):
        skip = skipped(P, block, side, p, j)
        columns = operator_columns(P, OUTGOING[row.differential, p], j, skip)
    rows_top, regions = 0, []
    if row.constrained and p:
        rows_top = cochain_dim(P, p - 1, j + P.degree)
        regions.append((0, p - 1, j))
        t_cols = operator_columns(P, OUTGOING["koszul", p], j, skip)
        columns = [{**t, **offset_vector(c, rows_top)} for t, c in zip(t_cols, columns)]
    if row.relations:
        k, i = _relation_entry(P, row, p, j)
        relations = [(0, k - 1, i)]
        if "koszul" in row.relations:  # both halves: the stack of the Koszul row of A/<phi>
            wedges, relations = stack_columns(P, "koszul", "surface", k, i)
            columns = [*columns, *(offset_vector(c, rows_top) for c in wedges)]
        regions += [(rows_top + offset, q, n) for offset, q, n in relations]
    return columns, regions


@lru_cache(maxsize=None)
def stack_pivots(P: PoissonStructure, block: str, side: str, p: int, j: int) -> int:
    """The pivots of an echelon of the stack of X^p_j in the (block, side)
    complex (stack_columns), for p where the family has a map out of X^p, as
    the bits of one int; the one rank memo, which keeps no matrix.  After
    the other columns, each phi-multiple of the regions, in order, claims
    its leading index (operators.phi_multiples) unbuilt while that is no
    pivot, and is built and inserted otherwise: every later column starts
    at a larger index, and a reduction only raises it, so no column ever
    reduces at a claimed index, and the pivots and every reduction are
    those of the whole stack."""
    columns, regions = stack_columns(P, block, side, p, j)
    echelon = Echelon()
    for column in columns:
        echelon.insert(column)
    claimed = 0
    for offset, k, i in regions:
        leads, column_of = phi_multiples(P, k, i)
        for t, lead in enumerate(leads):
            if echelon.has_pivot(offset + lead):
                echelon.insert(offset_vector(column_of(t), offset))
            else:
                claimed |= 1 << (offset + lead)
    return echelon.pivots() | claimed


def stack_rank(P: PoissonStructure, block: str, side: str, p: int, j: int) -> int:
    """rank of the cycle stack of X^p_j in the (block, side) complex; the
    ends need no elimination, and a licensed ambient homology row reads the
    ambient cohomology stack (see the module docstring)."""
    row = COMPLEXES[block, side]
    if row.skip == "shared" and licensed(P, row):
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
