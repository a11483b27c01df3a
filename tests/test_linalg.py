from __future__ import annotations

import copy
import gc
import math
import random
from fractions import Fraction

import pytest

from poissonsing import (
    DegreeMismatch,
    Poly,
    VecPoly,
    WeightSystem,
    basis_of,
    cross,
    matrix_of,
    monomials_of_degree,
    parse_poly,
    symbol_of,
)
from poissonsing.cli import main
from poissonsing.linalg import Echelon, GradedBasis, columns_off_pivots, kernel_of_columns
from poissonsing.linalg import pivots_of_columns, rank_of_columns
from poissonsing.operators import operator_matrix

from .conftest import (
    basis_element,
    cokernel_representatives,
    compose_columns,
    echelon_rank,
    entry,
    form_basis,
    identity_matrix,
    image_basis,
    oracle_columns,
    structure,
    to_dense,
)

W111 = WeightSystem((1, 1, 1))


class TestBases:
    def test_x1_dimension_at_zero(self):
        assert basis_of("X1", 0, W111).dim == 9

    def test_x2_constants(self):
        b = basis_of("X2", -2, W111)
        assert b.dim == 3
        assert b.component_degrees == (0, 0, 0)

    def test_x3_bottom(self):
        b = basis_of("X3", -3, W111)
        assert b.dim == 1
        assert isinstance(basis_element(b, 0), Poly)

    def test_negative_derivation_degrees_are_legal(self):
        w = WeightSystem((15, 10, 6))
        b = basis_of("X2", -16, w)
        assert b.dim == sum(len(monomials_of_degree(d, w)) for d in b.component_degrees)
        assert basis_of("X1", -40, w).dim == 0

    def test_omega_shifts_match_x_shifts(self):
        # f*dx_J at form degree i has deg f = i - (the weights of the x_j in
        # J), components ordered 1; dx, dy, dz; dy^dz, dz^dx, dx^dy; dx^dy^dz
        P = structure("x^2+y^3+z^6", (3, 2, 1))
        expected = {(0, 4): (4,), (1, 5): (2, 3, 4), (2, 7): (4, 3, 2), (3, 9): (3,)}
        for (k, i), degrees in expected.items():
            assert form_basis(P, k, i).component_degrees == degrees

    def test_x0_to_x3_are_the_only_kinds(self):
        for kind in ("A", "Omega1", "X4"):
            with pytest.raises(ValueError, match="unknown space kind"):
                basis_of(kind, 0, W111)

    def test_element_ordering_is_component_then_monomial(self):
        b = basis_of("X1", 0, W111)
        first = basis_element(b, 0)
        assert isinstance(first, VecPoly)
        assert first[0] == Poly.variable(0)  # x in component 1
        assert first[1].is_zero()

    def test_coords_roundtrip(self):
        rng = random.Random(8)
        for kind in ("X0", "X1", "X2", "X3"):
            b = basis_of(kind, 2, W111)
            vec = {j: Fraction(rng.randint(-5, 5)) for j in range(b.dim)}
            vec = {j: c for j, c in vec.items() if c}
            element = b.element_from_coords(vec)
            assert isinstance(element, VecPoly) == b.is_vector
            assert b.coords_of(element) == vec

    def test_degree_mismatch(self):
        b = basis_of("X0", 2, W111)
        with pytest.raises(DegreeMismatch):
            b.coords_of(parse_poly("x"))

    def test_coords_of_names_the_wrong_cochain(self):
        x, y2 = parse_poly("x"), parse_poly("y^2")
        with pytest.raises(DegreeMismatch, match="expected a vector cochain for X1"):
            basis_of("X1", 0, W111).coords_of(x)
        with pytest.raises(DegreeMismatch, match="expected a scalar cochain for X0"):
            basis_of("X0", 1, W111).coords_of(VecPoly((x, x, x)))
        with pytest.raises(
            DegreeMismatch,
            match=r"monomial \(0, 2, 0\) in component 2 does not lie in X1 at degree 0",
        ):
            basis_of("X1", 0, W111).coords_of(VecPoly((x, y2, Poly.zero())))

    def test_graded_pieces_of_a_are_held_once(self, capsys):
        # after verify on a few Brieskorn-Pham inputs, every component of a
        # cached X1..X3 basis is the monomial tuple of the cached X0 piece of
        # its degree, so each monomial of each weight system is one object
        screened = [("x^2+y^3+z^4", "6,4,3"), ("x^2+y^3+z^5", "15,10,6"),
                    ("x^3+y^4+z^4", "4,3,3")]
        for phi, weights in screened:
            argv = ["verify", "--suite", "cohomology", "--phi", phi, "--weights", weights]
            assert main(argv) == 0
        capsys.readouterr()
        systems = {WeightSystem(tuple(map(int, w.split(",")))) for _, w in screened}
        gc.collect()
        cached = [b for b in gc.get_objects() if isinstance(b, GradedBasis)
                  and b.weights in systems and basis_of(b.kind, b.degree, b.weights) is b]
        assert {b.kind for b in cached} == {"X0", "X1", "X2", "X3"}
        for b in cached:
            for d, monos in zip(b.component_degrees, b.monomials):
                assert monos is basis_of("X0", d, b.weights).monomials[0], (b.kind, b.degree)
        objects = {id(m) for b in cached for monos in b.monomials for m in monos}
        pairs = {(b.weights, m) for b in cached for monos in b.monomials for m in monos}
        assert len(objects) == len(pairs)

    @pytest.mark.parametrize("kind,pivots", [("X1", 0b1000000000100101), ("X2", 0b1011000000011)])
    def test_a_restricted_basis_keeps_its_own_positions(self, kind, pivots):
        # a basis from without() has filtered components, so it must not read
        # the shared position maps: its coordinates, from coords_of and from
        # matrix_of into it, are those of a basis built directly on copies of
        # its tuples, and a monomial it dropped lies outside it
        whole = basis_of(kind, 1, W111)
        part = whole.without(pivots)
        copies = tuple(tuple(list(monos)) for monos in part.monomials)
        direct = GradedBasis(kind, 1, W111, part.component_degrees, copies)
        vec = {j: j + 1 for j in range(part.dim)}
        element = direct.element_from_coords(vec)
        assert part.coords_of(element) == direct.coords_of(element) == vec
        identity = symbol_of(lambda v: v, 3)
        columns = [{j: 1} for j in range(part.dim)]
        assert matrix_of(identity, direct, part).columns == columns
        assert matrix_of(identity, part, direct).columns == columns
        dropped = whole.element_from_coords({(pivots & -pivots).bit_length() - 1: 1})
        with pytest.raises(DegreeMismatch):
            part.coords_of(dropped)
        with pytest.raises(DegreeMismatch):
            matrix_of(identity, whole, part)


class TestMatrices:
    def test_identity(self):
        b = basis_of("X1", 1, W111)
        m = matrix_of(symbol_of(lambda v: v, 3), b, b)
        assert m.shape == (b.dim, b.dim) and m.columns == identity_matrix(b).columns
        assert rank_of_columns(m.columns) == b.dim
        assert kernel_of_columns(m.columns, m.target.dim) == []

    def test_zero_matrix(self):
        src = basis_of("X0", 2, W111)
        tgt = basis_of("X0", 3, W111)
        m = matrix_of(symbol_of(lambda p: Poly.zero(), 1), src, tgt)
        assert rank_of_columns(m.columns) == 0
        assert len(kernel_of_columns(m.columns, m.target.dim)) == src.dim

    def test_multiplication_by_phi_column(self):
        phi = parse_poly("x^2+y^2+z^2")
        src = basis_of("X0", 0, W111)
        tgt = basis_of("X0", 2, W111)
        m = matrix_of(symbol_of(lambda p: p * phi, 1), src, tgt)
        assert m.shape == (6, 1)
        assert sorted(m.columns[0].values()) == [1, 1, 1]
        dense = to_dense(m)
        assert len(dense) == 6 and all(len(row) == 1 for row in dense)
        assert sum(entry(m, i, 0) for i in range(6)) == 3
        assert entry(m, 1, 0) == 0  # the x*y slot

    def test_cross_with_gradient_on_constant_vectors(self):
        # constant 2-derivations against grad(x^2+y^2+z^2): 9x3 of rank 3
        phi = parse_poly("x^2+y^2+z^2")
        from poissonsing import grad

        nabla = grad(phi)
        src = basis_of("X2", -2, W111)
        tgt = basis_of("X1", 0, W111)
        m = matrix_of(symbol_of(lambda v: cross(v, nabla), 3), src, tgt)
        assert m.shape == (9, 3)
        assert rank_of_columns(m.columns) == 3

    def test_a_restricted_source_fills_only_the_other_columns(self, cubic):
        # the source less some elements gives the other columns, in order,
        # and builds no index: only target bases read one
        src, tgt = basis_of("X1", 1, W111), basis_of("X2", 1, W111)
        symbol = symbol_of(cubic.delta1, 3)
        whole = matrix_of(symbol, src, tgt).columns
        pivots = 0b1000000000100101
        part = matrix_of(symbol, src.without(pivots), tgt)
        assert part.columns == columns_off_pivots(whole, pivots)
        assert part.source.dim == src.dim - 4
        assert "_index" not in vars(part.source)
        assert src.without(0) == src

    def test_composition_matches_matrix_product(self):
        phi = parse_poly("x^3+y^3+z^3")
        from poissonsing import PoissonStructure

        P = PoissonStructure(phi, W111)
        src = basis_of("X0", 2, W111)
        mid = basis_of("X1", 2, W111)
        tgt = basis_of("X2", 2, W111)
        d0 = matrix_of(symbol_of(P.delta0, 1), src, mid)
        d1 = matrix_of(symbol_of(P.delta1, 3), mid, tgt)
        composed = oracle_columns(lambda f: P.delta1(P.delta0(f)), src, tgt)
        assert compose_columns(d1, d0) == composed
        assert not any(composed)

    def test_rank_nullity_randomized(self):
        rng = random.Random(4)
        for _ in range(40):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            columns = [
                {i: rng.randint(-3, 3) for i in range(rows) if rng.random() < 0.6}
                for _ in range(cols)
            ]
            columns = [{i: c for i, c in col.items() if c} for col in columns]
            r = rank_of_columns(columns)
            kernel = kernel_of_columns(columns, rows)
            assert r + len(kernel) == cols
            for vec in kernel:
                image: dict[int, int] = {}
                for j, c in vec.items():
                    for i, v in columns[j].items():
                        image[i] = image.get(i, 0) + c * v
                assert all(v == 0 for v in image.values())

    def test_cokernel_representatives_greedy(self):
        # image spanned by (1,1,0): greedy picks e_0 then e_2
        src = basis_of("X0", 0, W111)
        tgt = basis_of("X0", 1, W111)
        m = matrix_of(symbol_of(lambda p: p * parse_poly("x+y"), 1), src, tgt)
        reps = cokernel_representatives(m)
        assert [t for t, _ in reps] == [0, 2]
        assert [str(e) for _, e in reps] == ["x", "z"]

    def test_image_basis_spans_columns(self):
        phi = parse_poly("x^3+y^3+z^3")
        src = basis_of("X0", 1, W111)
        tgt = basis_of("X0", 4, W111)
        m = matrix_of(symbol_of(lambda p: p * phi, 1), src, tgt)
        ech = Echelon()
        for row in image_basis(m):
            ech.insert(row)
        for col in m.columns:
            assert ech.contains(col)
        assert len(image_basis(m)) == rank_of_columns(m.columns)


class TestEchelon:
    def test_membership(self):
        ech = Echelon()
        ech.insert({0: 1, 1: 1})
        assert ech.contains({0: 2, 1: 2})
        assert not ech.contains({0: 1})

    def test_fractional_input(self):
        # the span of (1/3, 0, 5/7), given by its integer multiple: a
        # fractional column is scaled to integers above the echelon
        ech = Echelon()
        assert ech.insert({0: 7, 2: 15})
        assert ech.contains({0: 7, 2: 15})
        assert ech.contains({0: -14, 2: -30})

    def test_rank_stops_growing(self):
        ech = Echelon()
        ech.insert({0: 1})
        ech.insert({1: 1})
        assert not ech.insert({0: 3, 1: -2})
        assert echelon_rank(ech) == 2


class _CopyingEchelon:
    """The echelon as it was before in-place reduction: every step builds a
    new row dict.  Reference for the stored rows of Echelon."""

    def __init__(self):
        self._rows = {}

    @staticmethod
    def _primitive(row):
        g = 0
        for v in row.values():
            g = math.gcd(g, v)
            if g == 1:
                return row
        if g > 1:
            return {k: v // g for k, v in row.items()}
        return row

    @classmethod
    def _int_vector(cls, vec):
        return cls._primitive({k: c for k, c in vec.items() if c})

    def _reduced(self, row):
        while row:
            p = min(row)
            piv = self._rows.get(p)
            if piv is None:
                return row
            a = row[p]
            b = piv[p]
            g = math.gcd(a, b)
            mr = b // g
            mp = a // g
            new = {k: mr * v for k, v in row.items()}
            for k, v in piv.items():
                s = new.get(k, 0) - mp * v
                if s:
                    new[k] = s
                else:
                    new.pop(k, None)
            row = self._primitive(new)
        return row

    def insert(self, vec):
        row = self._reduced(self._int_vector(vec))
        if not row:
            return False
        p = min(row)
        if row[p] < 0:
            row = {k: -v for k, v in row.items()}
        self._rows[p] = row
        return True

    def contains(self, vec):
        return not self._reduced(self._int_vector(vec))


def _fraction_rank(columns, rows):
    """Rank by dense Gaussian elimination over Fraction."""
    m = [[Fraction(col.get(i, 0)) for col in columns] for i in range(rows)]
    rank = 0
    for c in range(len(columns)):
        pivot = next((r for r in range(rank, rows) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rows):
            if r != rank and m[r][c]:
                f = m[r][c] / m[rank][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def _random_columns(rng, rows, cols):
    """Sparse integer columns, each the integer multiple (by the lcm of its
    denominators) of one whose entries are ints and Fractions; some are
    combinations of earlier ones, so that reductions reach zero."""
    columns = []
    for _ in range(cols):
        if columns and rng.random() < 0.3:
            a, b = rng.sample(range(-4, 5), 2)
            u, v = rng.choice(columns), rng.choice(columns)
            col = {i: a * u.get(i, 0) + b * v.get(i, 0) for i in set(u) | set(v)}
        else:
            col = {}
            for i in range(rows):
                if rng.random() < 0.5:
                    c = rng.randint(-9, 9)
                    col[i] = Fraction(c, rng.randint(1, 6)) if rng.random() < 0.3 else c
        lcm = math.lcm(*(c.denominator for c in col.values()))
        columns.append({i: int(c * lcm) for i, c in col.items() if c})
    return columns


class TestInPlaceReduction:
    def test_stored_rows_match_the_copying_reduction(self):
        rng = random.Random(20)
        for _ in range(150):
            rows, cols = rng.randint(1, 10), rng.randint(1, 12)
            columns = _random_columns(rng, rows, cols)
            new, old = Echelon(), _CopyingEchelon()
            for col in columns:
                assert new.insert(col) == old.insert(col)
            assert new._rows == old._rows
            probes = _random_columns(rng, rows, 4)
            assert [new.contains(v) for v in probes] == [old.contains(v) for v in probes]
            assert echelon_rank(new) == _fraction_rank(columns, rows)

    def test_nonunit_pivots_are_exercised(self):
        # the first row stores pivot entry 2, so the second is scaled
        ech = Echelon()
        ech.insert({0: 2, 1: 3})
        assert ech.insert({0: 3, 1: 1, 2: 1})
        # 2*(3, 1, 1) - 3*(2, 3, 0) = (0, -7, 2), stored with a positive pivot
        assert ech._rows == {0: {0: 2, 1: 3}, 1: {1: 7, 2: -2}}

    def test_caller_columns_are_never_changed(self, cubic):
        m = operator_matrix(cubic, "delta1", 2)
        snapshot = copy.deepcopy(m.columns)
        ech = Echelon()
        for col in m.columns:
            ech.insert(col)
            ech.contains(col)
            ech.insert_int(col)
        kernel_of_columns(m.columns, m.target.dim)
        rank_of_columns(m.columns)
        assert m.columns == snapshot
        assert operator_matrix(cubic, "delta1", 2).columns == snapshot
        stored = {id(row) for row in ech._rows.values()}
        assert not stored & {id(col) for col in m.columns}


def _oracle_pivots(columns, rows):
    """The pivots of the span of the columns, by the dense oracle: index i
    leads a vector of the span iff coordinate i is independent of those
    before it, that is, iff it raises the rank of the first rows."""
    ranks = [_fraction_rank(columns, n) for n in range(rows + 1)]
    return {i for i in range(rows) if ranks[i + 1] > ranks[i]}


def _contract_columns(rng, rows, cols):
    """Sparse integer columns: negative leading entries, leading entries
    with a common factor, repeated and empty columns, and combinations."""
    columns = []
    for _ in range(cols):
        kind = rng.random()
        if kind < 0.1:
            col = {}
        elif columns and kind < 0.25:
            col = dict(rng.choice(columns))
        elif columns and kind < 0.45:
            base = rng.choice(columns)
            k = rng.choice((-6, -3, -2, -1, 2, 4))
            col = {i: k * v for i, v in base.items()}
        elif columns and kind < 0.6:
            a, b = rng.sample((-3, -2, -1, 1, 2, 3), 2)
            u, v = rng.choice(columns), rng.choice(columns)
            col = {i: a * u.get(i, 0) + b * v.get(i, 0) for i in set(u) | set(v)}
        else:
            k = rng.choice((1, 2, 3, -1, -4))
            col = {i: k * rng.randint(-5, 5) for i in range(rows) if rng.random() < 0.5}
        columns.append({i: c for i, c in sorted(col.items()) if c})
    return columns


class TestEchelonContract:
    def test_generator_covers_the_contract(self):
        rng = random.Random(21)
        columns = [c for _ in range(60) for c in _contract_columns(rng, 8, 10) if c]
        leading = [col[min(col)] for col in columns]
        assert any(a < 0 for a in leading)
        assert any(math.gcd(*col.values()) > 1 for col in columns)
        rng = random.Random(21)
        batches = [_contract_columns(rng, 8, 10) for _ in range(60)]
        assert any({} in batch for batch in batches)
        assert any(len(batch) > len({tuple(c.items()) for c in batch}) for batch in batches)

    def test_pivots_ranks_and_stored_rows(self):
        rng = random.Random(21)
        for _ in range(120):
            rows, cols = rng.randint(1, 8), rng.randint(1, 12)
            columns = _contract_columns(rng, rows, cols)
            new, old = Echelon(), _CopyingEchelon()
            grew = [new.insert(col) for col in columns]
            assert grew == [old.insert(col) for col in columns]
            assert new._rows == old._rows
            pivots = _oracle_pivots(columns, rows)
            assert set(new._rows) == pivots
            assert pivots_of_columns(columns) == sum(1 << p for p in pivots)
            assert rank_of_columns(columns) == sum(grew) == _fraction_rank(columns, rows)
            for p, row in new._rows.items():
                assert min(row) == p and row[p] > 0 and math.gcd(*row.values()) == 1
                assert all(type(v) is int and v for v in row.values())
            for col in columns:
                assert new.contains(col)

    def test_a_fraction_entry_raises(self):
        ech = Echelon()
        ech.insert({0: 1, 1: 6})
        stored = {p: dict(row) for p, row in ech._rows.items()}
        # a new pivot, an existing one, and one whose reduction would cancel
        for vec in ({1: Fraction(1, 2)}, {2: Fraction(3)}, {0: Fraction(1, 2), 1: 3},
                    {0: 2, 1: Fraction(1, 3)}):
            for call in (ech.insert, ech.insert_int, ech.contains):
                with pytest.raises(TypeError):
                    call(vec)
            with pytest.raises(TypeError):
                rank_of_columns([vec])
            assert ech._rows == stored
