"""Graded bases and exact linear algebra over the rationals, in integers.

The graded pieces of the multiderivation spaces X^0..X^3 over A = F[x,y,z]
(X^0 is A itself) are finite dimensional; their bases are monomials placed
in a single component, enumerated in the fixed monomial order (component 1
< 2 < 3).  Operators between graded pieces become exact sparse matrices with
int entries, filled from the symbols of an integral multiple of phi
(PoissonStructure.integral; no rank depends on the scale).  A Vector has int
entries and no zeros and is never mutated once built.  Every dimension count
reduces to ranks, kernels and cokernels computed by fraction-free integer
row reduction (rows kept primitive via gcd normalization, so no rounding and
no coefficient blowup in practice); an echelon reduces only its own copies,
in place, and raises TypeError on an entry that is no int.  Every computed
(co)homology dimension is one formula in five such ranks (subquotient_dim),
with the zero spaces at the ends of each complex contributing rank 0.

Every operator the engine uses is a linear differential operator of order at
most one with polynomial coefficients,

    op(f*e_s) = sum_t (c0_st*f + sum_a c_ast*df/dx_a) * e_t,

so it is read off once as its symbol (symbol_of: the coefficients c0_st and
c_ast, probed on 1, x, y, z in each source component and checked on the
quadratic monomials), and matrix_of fills every column of every graded
piece from that symbol by exponent arithmetic and basis index lookups; no
polynomial is built per column.  apply_symbol runs the operator on one
cochain's term maps (term_maps) the same way, for the identity certificates.

Degree bookkeeping: X0..X3 are the only kinds of graded piece.  A vector
(f1,f2,f3) of derivation degree i has component degrees i+w_j in X^1 and
i+|w|-w_j in X^2, and X^3 at degree i is A at degree i+|w|; each component is
a piece A_d, held once per weight system: X1..X3 share the X0 basis's monomial
tuple and position map.  The Kahler form spaces are not enumerated apart:
Omega^k at form degree i is X^{3-k} at derivation degree i-|w| (same
components), the Jacobian ideal is the image of X^1 under the dot product
with grad(phi), and so every matrix of the engine maps between these four kinds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Sequence, Union

from .poly import Monomial, Poly, Scalar, WeightSystem, monomials_of_degree
from .vectorcalc import VecPoly

Vector = dict[int, int]  # sparse coordinates (see the module docstring)
KINDS = ("X0", "X1", "X2", "X3")  # the kinds of graded piece, X^k at index k
Cochain = Union[Poly, VecPoly]


class DegreeMismatch(ValueError):
    """An operator output fell outside the target graded piece."""


class NegativeDimension(RuntimeError):
    """A subquotient of negative dimension: the ranks that gave it are wrong,
    as when a structure's boundary is not a differential."""


def component_degrees(kind: str, i: int, w: WeightSystem) -> tuple[int, ...]:
    """Polynomial degrees of the components of the graded piece kind_i."""
    w1, w2, w3 = w.weights
    shifts = dict(zip(KINDS, ((0,), (w1, w2, w3), (w2 + w3, w1 + w3, w1 + w2), (w1 + w2 + w3,))))
    if kind not in shifts:
        raise ValueError("unknown space kind %r" % kind)
    return tuple(i + shift for shift in shifts[kind])


@dataclass(frozen=True)
class GradedBasis:
    """Monomial basis of one graded piece of X^k (X^0 is A itself), on basis_of's X0 tuples."""

    kind: str
    degree: int
    weights: WeightSystem
    component_degrees: tuple[int, ...]
    monomials: tuple[tuple[Monomial, ...], ...]

    @cached_property
    def _index(self) -> tuple[tuple[int, dict[Monomial, int]], ...]:
        """(offset, position map) per component, built on first use (only target
        bases and coords_of read it): element offset + j is the monomial at place
        j of its component.  A component that is the cached X0 tuple shares that
        piece's map; a filtered one (from without()) gets its own."""
        index, offset = [], 0
        for d, monos in zip(self.component_degrees, self.monomials):
            piece = self if self.kind == "X0" else basis_of("X0", d, self.weights)
            shared = piece is not self and monos is piece.monomials[0]
            positions = piece._index[0][1] if shared else {m: j for j, m in enumerate(monos)}
            index.append((offset, positions))
            offset += len(monos)
        return tuple(index)

    def without(self, pivots: int) -> "GradedBasis":
        """This basis less its elements at the bits of pivots, in order: the
        source of a matrix that fills only the other columns."""
        bits = iter(bin(pivots)[:1:-1].ljust(self.dim, "0"))
        monos = tuple(tuple(m for m in ms if next(bits) == "0") for ms in self.monomials)
        return GradedBasis(self.kind, self.degree, self.weights, self.component_degrees, monos)

    @property
    def is_vector(self) -> bool:
        return len(self.monomials) == 3

    @property
    def dim(self) -> int:
        return sum(len(ms) for ms in self.monomials)

    def element_from_coords(self, vec: Vector) -> Cochain:
        """Rebuild the cochain with the given coordinates in this basis."""
        parts = []
        j = 0
        for monos in self.monomials:
            parts.append(Poly({m: vec.get(j + t, 0) for t, m in enumerate(monos)}))
            j += len(monos)
        return VecPoly(tuple(parts)) if self.is_vector else parts[0]  # type: ignore[arg-type]

    def coords_of(self, obj: Cochain) -> Vector:
        """Coordinates of a Poly/VecPoly in this basis; DegreeMismatch if it
        contains a monomial outside this graded piece."""
        shape, expected = ("vector", VecPoly) if self.is_vector else ("scalar", Poly)
        if not isinstance(obj, expected):
            raise DegreeMismatch("expected a %s cochain for %s" % (shape, self.kind))
        vec: Vector = {}
        parts = obj.components if self.is_vector else (obj,)
        for comp, ((offset, positions), p) in enumerate(zip(self._index, parts)):
            for m, c in p.terms.items():
                j = positions.get(m)
                if j is None:
                    raise DegreeMismatch(
                        "monomial %s in component %d does not lie in %s at degree %d"
                        % (m, comp + 1, self.kind, self.degree)
                    )
                vec[offset + j] = c
        return vec


@lru_cache(maxsize=None)
def basis_of(kind: str, i: int, w: WeightSystem) -> GradedBasis:
    """The ordered monomial basis of the graded piece kind_i, for the kinds
    X0..X3; ValueError for any other kind.  Each component of X1..X3 is the
    monomial tuple of the cached X0 piece of its degree: one copy of each A_d."""
    degs = component_degrees(kind, i, w)
    if kind == "X0":
        return GradedBasis(kind, i, w, degs, (tuple(monomials_of_degree(i, w)),))
    return GradedBasis(kind, i, w, degs, tuple(basis_of("X0", d, w).monomials[0] for d in degs))


# ---------------------------------------------------------------------------
# Integer row echelon over Q
# ---------------------------------------------------------------------------


class Echelon:
    """Incremental integer row echelon over Q.  A stored row is primitive, with a positive
    entry at its pivot (its smallest index).  Every vector is reduced by _reduce, one loop
    over a primitive copy, which alone stores rows.  insert, insert_int and contains are the
    only ways in."""

    __slots__ = ("_rows",)

    def __init__(self):
        self._rows: dict[int, dict[int, int]] = {}

    def _reduce(self, vec: Vector, store: bool) -> dict[int, int] | None:
        """Reduce a primitive copy of vec in place; the residual, or None if it is zero.
        With store, the residual is stored under its pivot, with a positive entry there.

        Each step is row <- (b/g)*row - (a/g)*pivot with a, b the entries at
        the pivot column and g = gcd(a, b), then row <- row/gcd(row); the
        scaling is skipped when b/g = 1, the common case.
        """
        gcd = math.gcd
        rows = self._rows
        row = dict(vec)
        get = row.get
        g = gcd(*row.values())
        while True:
            if g > 1:
                for k, v in row.items():
                    row[k] = v // g
            if not row:
                return None
            p = min(row)
            piv = rows.get(p)
            if piv is None:
                break
            a = row[p]
            b = piv[p]
            if b != 1:
                g = gcd(a, b)
                a //= g
                b //= g
                if b != 1:
                    for k, v in row.items():
                        row[k] = b * v
            for k, v in piv.items():
                s = get(k, 0) - a * v
                if s:
                    row[k] = s
                else:
                    del row[k]
            g = gcd(*row.values())
        if store:
            if row[p] < 0:
                for k, v in row.items():
                    row[k] = -v
            rows[p] = row
        return row

    def insert(self, vec: Vector) -> bool:
        """Add vec to the span; True if the rank grew."""
        return self._reduce(vec, True) is not None

    def insert_int(self, vec: Vector) -> dict[int, int] | None:
        """Add vec to the span; the stored row, or None if the rank did not grow."""
        return self._reduce(vec, True)

    def contains(self, vec: Vector) -> bool:
        return self._reduce(vec, False) is None

    def has_pivot(self, p: int) -> bool:
        return p in self._rows

    def pivots(self) -> int:
        """The pivot rows, as the bits of one int; its bit_count() is the rank."""
        return sum(1 << p for p in self._rows)


def pivots_of_columns(columns: Iterable[Vector]) -> int:
    """The pivots of an echelon of the columns (Echelon.pivots)."""
    ech = Echelon()
    insert = ech.insert
    for col in columns:
        insert(col)
    return ech.pivots()


def rank_of_columns(columns: Iterable[Vector]) -> int:
    return pivots_of_columns(columns).bit_count()


def kernel_of_columns(columns: Sequence[Vector], rows: int) -> list[Vector]:
    """Basis of {x : sum_j x_j * col_j = 0}, via integer tracking columns.

    Each column is augmented with a 1 in a tracking coordinate; rows of the
    echelon supported entirely in the tracking zone read off integer kernel
    vectors directly.
    """
    ech = Echelon()
    kernel: list[Vector] = []
    for j, col in enumerate(columns):
        res = ech.insert_int({**col, rows + j: 1})
        if res is not None and min(res) >= rows:
            kernel.append({k - rows: v for k, v in res.items()})
    return kernel


# ---------------------------------------------------------------------------
# Operator matrices between graded pieces
# ---------------------------------------------------------------------------


class GradedOperatorMatrix:
    """Exact matrix of a linear operator between two graded bases.

    Column j holds the target coordinates of the operator applied to source
    basis element j.  Stored sparsely; the entries are ints for an integral
    symbol.  A matrix is a value: it holds its bases and columns only.
    """

    def __init__(self, source: GradedBasis, target: GradedBasis, columns: Sequence[Vector]):
        self.source = source
        self.target = target
        self.columns = list(columns)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.target.dim, self.source.dim)


# ---------------------------------------------------------------------------
# First-order symbols
# ---------------------------------------------------------------------------

# A symbol term (t, o0, o1, o2, c) sends the source monomial x^e to
# c * x^(e + o) in target component t; a derivative term along axis a also
# takes the factor e[a] (o is then the coefficient's exponent minus e_a).
SymbolTerm = tuple[int, int, int, int, Scalar]


@dataclass(frozen=True)
class Symbol:
    """First-order symbol of a linear differential operator.

    terms[s] holds four term groups for source component s: the terms of
    c_ast for the axes a = x, y, z, then those of c0_st, each group sorted,
    so that equal operators have equal symbols.
    """

    source_components: int
    target_components: int
    terms: tuple[tuple[tuple[SymbolTerm, ...], ...], ...]


def symbol_of(op: Callable[[Cochain], Cochain], source_components: int) -> Symbol:
    """The symbol of op, acting on Poly (1 component) or VecPoly (3).

    op(e_s) gives c0_st and op(x_a*e_s) - x_a*c0_st gives c_ast; the quadratic
    probes x_a*x_b*e_s must then agree with that symbol (apply_symbol on
    component s), else op is not of order at most one and ValueError is raised.
    """
    if source_components not in (1, 3):
        raise ValueError("an operator acts on 1 or 3 components")
    xs = [Poly.variable(a) for a in range(3)]
    target_components = 0

    def probe(p: Poly, s: int) -> tuple[Poly, ...]:
        nonlocal target_components
        if source_components == 3:
            parts = [Poly.zero()] * 3
            parts[s] = p
            p = VecPoly(tuple(parts))  # type: ignore[assignment,arg-type]
        value = op(p)
        out = value.components if isinstance(value, VecPoly) else (value,)
        if target_components and len(out) != target_components:
            raise ValueError("the operator returns cochains of different arity")
        target_components = len(out)
        return out

    terms = []
    for s in range(source_components):
        c0 = probe(Poly.one(), s)
        c1 = [tuple(o - xs[a] * z for o, z in zip(probe(xs[a], s), c0)) for a in range(3)]
        groups = tuple(
            tuple(sorted(
                (t, *(x - (axis == a) for axis, x in enumerate(m)), c)
                for t, p in enumerate(coefficients)
                for m, c in p.terms.items()
            ))
            for a, coefficients in enumerate((*c1, c0))
        )
        on_s = Symbol(1, target_components, (groups,))
        for a in range(3):
            for b in range(a, 3):
                q = xs[a] * xs[b]
                if tuple(p.terms for p in probe(q, s)) != apply_symbol(on_s, (q.terms,)):
                    raise ValueError("the operator is not of order at most one")
        terms.append(groups)
    return Symbol(source_components, target_components, tuple(terms))  # type: ignore[arg-type]


def term_maps(c: Cochain) -> tuple[dict[Monomial, Scalar], ...]:
    """A Poly or VecPoly as apply_symbol reads it: one term map per component."""
    return tuple(p.terms for p in c.components) if isinstance(c, VecPoly) else (c.terms,)


def apply_symbol(symbol: Symbol, parts: Sequence[dict]) -> tuple[dict[Monomial, Scalar], ...]:
    """The operator with this symbol on a cochain's term maps, one per source component (a
    ValueError for any other count), by matrix_of's exponent arithmetic; zeros dropped."""
    out: list[dict] = [{} for _ in range(symbol.target_components)]
    for groups, part in zip(symbol.terms, parts, strict=True):
        for axis, group in enumerate(groups if part else ()):  # d/dx, d/dy, d/dz, order 0
            items = part.items() if group else ()
            scaled = items if axis == 3 else [(e, e[axis] * c) for e, c in items if e[axis]]
            for t, o0, o1, o2, c in group:
                acc = out[t]
                for (e0, e1, e2), k in scaled:
                    m = (e0 + o0, e1 + o1, e2 + o2)
                    s = acc.pop(m, 0) + k * c
                    if s:
                        acc[m] = s
    return tuple(out)


def matrix_of(symbol: Symbol, source: GradedBasis, target: GradedBasis) -> GradedOperatorMatrix:
    """Matrix of the operator with this symbol from source into target.

    Each column is summed directly on target indices, from exponent
    arithmetic and index lookups, one symbol term at a time over all the
    columns of a source component (so each column takes its terms in the
    symbol's order); zero sums are dropped, and a nonzero sum outside the
    target piece raises DegreeMismatch.
    """
    if symbol.source_components != len(source.monomials):
        raise DegreeMismatch(
            "the operator acts on %d components, %s has %d"
            % (symbol.source_components, source.kind, len(source.monomials))
        )
    if symbol.target_components != len(target.monomials):
        raise DegreeMismatch(
            "expected a %s cochain for %s"
            % ("vector" if target.is_vector else "scalar", target.kind)
        )
    index = target._index
    columns: list[Vector] = []
    outside: dict = {}  # (column, t, monomial) -> a sum off the target, which must vanish
    for groups, monos in zip(symbol.terms, source.monomials):
        if not monos:
            continue
        cols: list[Vector] = [{} for _ in monos]
        numbered = list(enumerate(zip(cols, monos), len(columns)))
        for axis, group in enumerate(groups):  # d/dx, d/dy, d/dz, then order 0
            if not group:
                continue
            factors = [e[axis] for e in monos] if axis < 3 else [1] * len(monos)
            for t, o0, o1, o2, c in group:
                offset, positions = index[t]
                get = positions.get
                for (n, (col, (e0, e1, e2))), k in zip(numbered, factors):
                    if not k:
                        continue
                    m = (e0 + o0, e1 + o1, e2 + o2)
                    j = get(m)
                    if j is None:
                        key = (n, t, m)
                        outside[key] = outside.get(key, 0) + k * c
                        continue
                    j += offset
                    s = col.get(j, 0) + k * c
                    if s:
                        col[j] = s
                    else:
                        del col[j]
        columns += cols
    offenders = [key for key, v in outside.items() if v]
    if offenders:  # the first offender of the lowest column, whatever the fill order
        _, t, m = min(offenders, key=lambda key: key[0])
        raise DegreeMismatch(
            "monomial %s in component %d does not lie in %s at degree %d"
            % (m, t + 1, target.kind, target.degree)
        )
    return GradedOperatorMatrix(source, target, columns)


# ---------------------------------------------------------------------------
# Block helpers for subquotient dimension counts
# ---------------------------------------------------------------------------


def offset_vector(vec: Vector, offset: int) -> Vector:
    if not offset:
        return vec
    return {k + offset: v for k, v in vec.items()}


def subquotient_dim(
    space: Callable[[], str], i: int, n: int, cycles: int, relations: int, boundaries: int,
    constraint: int,
) -> int:
    """dim Z/B at degree i: n - cycles + relations - (boundaries - constraint).

    Z is the set of vectors v of an n-dimensional graded piece whose image
    A*v lies in the span of some relation columns R: its dimension is
    n - rank[A | R] + rank R, with cycles = rank[A | R] and relations =
    rank R.  B is the image, under the bottom rows, of the kernel of the
    top (constraint) rows of a stacked block: boundaries is the rank of the
    whole stack and constraint that of its top rows.  The ends of a complex
    are zero spaces, whose ranks the callers' rank helpers return, so every
    degree takes this one formula.  A negative result is a rank error; the
    NegativeDimension names space() (called only then), the degree and the five numbers.
    """
    dim = n - cycles + relations - (boundaries - constraint)
    if dim < 0:
        raise NegativeDimension(
            "negative dimension %d of %s at degree %d: n %d - cycles %d + relations %d "
            "- (boundaries %d - constraint %d)"
            % (dim, space(), i, n, cycles, relations, boundaries, constraint)
        )
    return dim
