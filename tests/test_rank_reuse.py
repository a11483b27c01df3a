"""Each stacked block is ranked once: the surface (co)homology dimensions of
the one table of complexes (complexes.complex_dim) agree with two-stack
reference routines, and their failures name ranks.

The reference routines below rank the coboundary (boundary) stack of every
(k, i) afresh, as the engine did before the stack at (k, i) was recognised
as the cocycle (cycle) stack one step down.  The references include U12,
where N = deg(phi) - |w| is positive, so the step down lowers the degree.

The engine reduces only the stack columns off its certified skip sets; every
stack it ranks has the rank of the whole stack, and a structure whose
certificate fails skips nothing and gets the dims of the whole stacks.  A
stack fills only those columns of its differential and keeps none, so after
a run the only matrices alive are those the operator caches hold.

Ambient homology ranks no stack of its own while the duality certificate
holds: it reads the ambient cohomology stacks.  With that certificate
failed, its row ranks the boundary and agrees with the shifted cohomology.
Every licence of the table is a certificate family that holds on the
catalog.  The relation entries [D_k | phi] are the stacks of the Koszul row
of A/<phi>, which skips the D_k columns at the phi-multiple pivots only
while [D_k, phi] = 0 is certified.

The Koszul suite reads its ranks off the Koszul and de Rham rows of the
table, which rank each map off the pivots of the image of the map into its
source while D o D = 0 is certified: each block is ranked once, each block
it skips keeps the pivots of the whole block, and with either licence
failed it skips nothing of that family and gives the same results.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter

import pytest

from poissonsing import PoissonStructure, Poly, WeightSystem, cohomology, complexes, grad, linalg
from poissonsing import operators, suites
from poissonsing.cli import main
from poissonsing.cohomology import default_window
from poissonsing.complexes import complex_dim
from poissonsing.homology import default_form_window, homology_dims, projection_commutes
from poissonsing.linalg import Echelon, GradedOperatorMatrix, basis_of, offset_vector
from poissonsing.linalg import pivots_of_columns, rank_of_columns
from poissonsing.operators import OUTGOING, kept_matrix, operator_matrix, phi_multiple_pivots

from .conftest import boundary_matrix, boundary_plus, echelon_rank, form_basis, planted, structure

# the licence under which ambient homology shares the cohomology stacks
DUALITY = "boundary_equals_signed_coboundary"

REFERENCE_PHI = [
    ("x^3+y^3+z^3", (1, 1, 1)),
    ("x^2*y+y^3+z^2", (2, 2, 3)),
    ("x^2+y^3+z^5", (15, 10, 6)),
    ("x^3+y^3+z^4", (4, 4, 3)),
]


def _constraint_blocks(P, k, i):
    """(n, rows_top, D_cols, P_cols): V = {v in X^k_i : D_k(v) in phi*X^{k-1}}
    as the projection of ker [D | P], from the Koszul map D_k and the
    phi-multiples of X^{k-1}; X^0 has no constraint."""
    n = basis_of("X%d" % k, i, P.weights).dim
    if k == 0:
        return n, 0, [], []
    D = kept_matrix(P, "koszul%d" % k, i)
    return n, D.target.dim, D.columns, kept_matrix(P, "phi%d" % (k - 1), i).columns


def _constraint_rank(P, k, i):
    _, _, d_cols, p_cols = _constraint_blocks(P, k, i)
    return rank_of_columns([*d_cols, *p_cols])


def _omega_relation_columns(P, k, i):
    """The degree-i relations of Omega^k = X^{3-k}: d(phi) wedged with the
    basis of Omega^{k-1}, then phi times that of Omega^k, both at form degree
    i - deg(phi); d(phi) ^ Omega^{k-1} is the Koszul map D_{4-k}."""
    j = i - P.weight_sum - P.degree
    wedges = kept_matrix(P, "koszul%d" % (4 - k), j).columns if k else []
    return [*wedges, *kept_matrix(P, "phi%d" % (3 - k), j).columns]


def _stack_rank(P, k, i, extra_k, extra_degree):
    """rank of [D | delta ; P | 0 ; 0 | phi-multiples of X^extra_k]."""
    n, rows_top, d_cols, p_cols = _constraint_blocks(P, k, i)
    delta_cols = operator_matrix(P, "delta%d" % k, i).columns if n else []
    ech = Echelon()
    for j in range(n):
        merged = dict(d_cols[j]) if d_cols else {}
        merged.update(offset_vector(delta_cols[j], rows_top))
        ech.insert(merged)
    for col in p_cols:
        ech.insert(col)
    for col in kept_matrix(P, "phi%d" % extra_k, extra_degree).columns:
        ech.insert(offset_vector(col, rows_top))
    return echelon_rank(ech)


def two_stack_surface_cohomology_dim(P, k, i):
    N, d = P.coboundary_degree, P.degree
    n, _, d_cols, p_cols = _constraint_blocks(P, k, i)
    if k == 3:
        ech = Echelon()
        for col in list(d_cols) + list(p_cols):
            ech.insert(col)
        z_ambient = n + len(p_cols) - echelon_rank(ech)
    else:
        n_p2 = basis_of("X%d" % (k + 1), i + N - d, P.weights).dim
        z_ambient = n + len(p_cols) + n_p2 - _stack_rank(P, k, i, k + 1, i + N - d)
    if k == 0:
        b_ambient = basis_of("X0", i - d, P.weights).dim
    else:
        b_ambient = _stack_rank(P, k - 1, i - N, k, i - d) - _constraint_rank(P, k - 1, i - N)
    return z_ambient - b_ambient


def two_stack_surface_homology_dim(P, k, i):
    N = P.coboundary_degree
    n = form_basis(P, k, i).dim
    if k == 0:
        cycles = n
    else:
        ech = Echelon()
        if n:
            for col in boundary_matrix(P, k, i).columns:
                ech.insert(col)
        relations = _omega_relation_columns(P, k - 1, i + N)
        for col in relations:
            ech.insert(col)
        cycles = n - echelon_rank(ech) + rank_of_columns(relations)
    echb = Echelon()
    if k < 3 and form_basis(P, k + 1, i - N).dim:
        for col in boundary_matrix(P, k + 1, i - N).columns:
            echb.insert(col)
    for col in _omega_relation_columns(P, k, i):
        echb.insert(col)
    return cycles - echelon_rank(echb)


@pytest.mark.parametrize("phi,weights", REFERENCE_PHI, ids=[p for p, _ in REFERENCE_PHI])
def test_surface_cohomology_matches_two_stack_reference(phi, weights):
    P = structure(phi, weights)
    lo, hi = default_window(P)
    for k in range(4):
        for i in range(lo, hi + 1):
            assert complex_dim(P, "cohomology", "surface", k, i) == (
                two_stack_surface_cohomology_dim(P, k, i)
            ), (k, i)


@pytest.mark.parametrize("phi,weights", REFERENCE_PHI, ids=[p for p, _ in REFERENCE_PHI])
def test_surface_homology_matches_two_stack_reference(phi, weights):
    P = structure(phi, weights)
    lo, hi = default_form_window(P)
    for k in range(4):
        for i in range(lo, hi + 1):
            assert complex_dim(P, "homology", "surface", k, i) == (
                two_stack_surface_homology_dim(P, k, i)
            ), (k, i)


@pytest.mark.parametrize("phi,weights", REFERENCE_PHI, ids=[p for p, _ in REFERENCE_PHI])
def test_ambient_homology_row_agrees_with_the_reindexed_cohomology(monkeypatch, phi, weights):
    # while the duality certificate holds, ambient homology reads the
    # cohomology stacks; with it failed by force, the row ranks the boundary
    # matrices itself, and its dims are the cohomology engine's, |w| lower
    P = structure(phi, weights)
    certify, read, filled = complexes.certificate, complexes.operator_columns, set()

    def failing(P, family):
        if family == DUALITY:
            return 1, "forced"
        return certify(P, family)

    def recording(P, name, i, skip=0):
        filled.add(name[:-1])
        return read(P, name, i, skip)

    monkeypatch.setattr(complexes, "certificate", failing)
    monkeypatch.setattr(complexes, "operator_columns", recording)
    complexes.stack_pivots.cache_clear()
    window, s = default_form_window(P), P.weight_sum
    for k in range(4):
        co = cohomology.brute_force_dims(P, 3 - k, (window[0] - s, window[1] - s))
        assert homology_dims(P, k, window).as_dict() == {i + s: n for i, n in co.dims}, k
    assert "boundary" in filled


# ---------------------------------------------------------------------------
# A negative dimension names the ranks it came from
# ---------------------------------------------------------------------------


# deg(phi) - |w| = 1, so the step down lowers the degree
QUARTIC = ("x^4+y^4+z^4", (1, 1, 1))


# test id, caller and its leading arguments, patched rank helpers, and the
# message they must give: n - cycles + relations - (boundaries - constraint)
# is negative.  The stack ranks are patched on stack_rank (P, block, side,
# p, j), which complex_dim reads; homology H_k sits at p = 3 - k.  The
# constraint of surface cohomology, the relations of surface homology and
# the cycles of the surface cochains are ranks of the Koszul row of A/<phi>.
NEGATIVE = [
    (
        "cohomology_dim", complexes, complex_dim, ("cohomology", "ambient", 1, 2),
        {"stack_rank": lambda P, block, side, p, j: 40 if p == 0 else 5},
        "-15 of H1_ambient at degree 2: n 30 - cycles 5 + relations 0 "
        "- (boundaries 40 - constraint 0)",
    ),
    (
        "surface_cohomology_dim", complexes, complex_dim, ("cohomology", "surface", 2, 3),
        {
            "stack_rank":
                lambda P, block, side, p, j: 7 if block == "koszul" else 999 if p == 1 else 50,
        },
        "-924 of H2_surface at degree 3: n 63 - cycles 50 + relations 55 "
        "- (boundaries 999 - constraint 7)",
    ),
    (
        "surface_cochain_dim", cohomology, cohomology.surface_cochain_dim, (3, 5),
        {"stack_rank": lambda P, block, side, p, j: 999},
        "-861 of X3_surface at degree 5: n 45 - cycles 999 + relations 108 "
        "- (boundaries 15 - constraint 0)",
    ),
    (
        "surface_homology_dim", complexes, complex_dim, ("homology", "surface", 1, 5),
        {
            "stack_rank":
                lambda P, block, side, p, j: 4 if block == "koszul" else 777 if p == 1 else 3,
        },
        "-731 of H_1_surface at degree 5: n 45 - cycles 3 + relations 4 "
        "- (boundaries 777 - constraint 0)",
    ),
]


@pytest.mark.parametrize(
    "module,caller,args,ranks,message", [case[1:] for case in NEGATIVE],
    ids=[case[0] for case in NEGATIVE],
)
def test_negative_dimension_names_the_space_degree_and_ranks(
    monkeypatch, module, caller, args, ranks, message
):
    for name, rank in ranks.items():
        monkeypatch.setattr(module, name, rank)
    with pytest.raises(RuntimeError) as err:
        caller(structure(*QUARTIC), *args)
    assert str(err.value) == "negative dimension " + message


# ---------------------------------------------------------------------------
# Skipped columns keep every stack rank
# ---------------------------------------------------------------------------


def whole_stack_rank(P, block, side, p, j):
    """rank of the cycle stack [[T; d] | [S; 0] | [0; R]] of X^p_j, for p
    where the row's family has a map out of X^p (0..2 for delta and the
    boundary, 1..3 for Koszul and de Rham), with every column reduced, from
    the engine's matrices: the Koszul row of A/<phi> stacks [D_p | phi]."""
    row = complexes.COMPLEXES[block, side]
    top = []
    if basis_of("X%d" % p, j, P.weights).dim:
        if row.differential == "boundary":
            d = boundary_matrix(P, 3 - p, j + P.weight_sum)
        else:
            d = operator_matrix(P, "%s%d" % (row.differential, p), j)
        top = d.columns
    rows_top, s_cols = 0, []
    if row.constrained and p:
        T, S = kept_matrix(P, "koszul%d" % p, j), kept_matrix(P, "phi%d" % (p - 1), j)
        rows_top, s_cols = T.target.dim, S.columns
        top = [{**t, **offset_vector(c, rows_top)} for t, c in zip(T.columns, top)]
    # the whole relation blocks [D_k | phi] of R, on the target of X^p_j,
    # none of their columns skipped (no D_4): R_{p+1} one deg(phi) below
    # for the (co)homology rows, phi on X^{p-1}_j for the Koszul row
    if row.differential == "koszul":
        k, i = p, j
    else:
        k, i = p + 2, j + P.coboundary_degree - P.degree
    relations = []
    if "koszul" in row.relations and k < 4:
        relations.append(kept_matrix(P, "koszul%d" % k, i))
    if row.relations:
        relations.append(kept_matrix(P, "phi%d" % (k - 1), i))
    r_cols = [offset_vector(c, rows_top) for m in relations for c in m.columns]
    return rank_of_columns([*top, *s_cols, *r_cols])


def dim_or_error(P, block, side, k, i):
    try:
        return complex_dim(P, block, side, k, i)
    except RuntimeError as exc:
        return str(exc)


def engine_run(monkeypatch, P, window=None):
    """The (block, side, p, j) of every stack the memo holds after every
    row ran on a derivation window (default: P's), homology on the window
    shifted by |w|, and the dims (or errors) they gave; the relation
    entries are the stacks of the Koszul row of A/<phi>."""
    keys = set()
    memo = complexes.stack_pivots

    def recording(P, block, side, p, j):
        keys.add((block, side, p, j))
        return memo(P, block, side, p, j)

    monkeypatch.setattr(complexes, "stack_pivots", recording)
    dims = {}
    lo, hi = window or default_window(P)
    for block, side in complexes.COMPLEXES:
        shift = P.weight_sum if block == "homology" else 0
        for k in range(4):
            for i in range(lo + shift, hi + shift + 1):
                dims[block, side, k, i] = dim_or_error(P, block, side, k, i)
    monkeypatch.setattr(complexes, "stack_pivots", memo)
    return keys, dims


@pytest.mark.parametrize("phi,weights", REFERENCE_PHI, ids=[p for p, _ in REFERENCE_PHI])
def test_skipped_stacks_keep_the_rank_of_the_whole_stack(monkeypatch, phi, weights):
    P = structure(phi, weights)
    keys, _ = engine_run(monkeypatch, P)
    for key in sorted(keys):
        assert complexes.stack_rank(P, *key) == whole_stack_rank(P, *key), key
    # every row whose licence grants a skip set skips somewhere; ambient
    # homology shares the ambient cohomology stacks and ranks none of its own
    skipping = {key[:2] for key in keys if complexes.skipped(P, *key)}
    licensed = {row for row, c in complexes.COMPLEXES.items() if c.licence != DUALITY}
    assert skipping == licensed
    assert [key for key in keys if key[:2] == ("homology", "ambient")] == []
    # the Koszul row of A/<phi> skips the D_k columns of the phi-multiples,
    # and keeps the pivots of the whole [D_k | phi]
    relations = sorted(key[2:] for key in keys if key[:2] == ("koszul", "surface"))
    assert relations
    for k, i in relations:
        assert 1 <= k <= 3, (k, i)
        D, phi = kept_matrix(P, "koszul%d" % k, i), kept_matrix(P, "phi%d" % (k - 1), i)
        whole = pivots_of_columns(D.columns + phi.columns)
        assert complexes.stack_pivots(P, "koszul", "surface", k, i) == whole, (k, i)
    assert any(phi_multiple_pivots(P, k, i - P.degree) for k, i in relations)


def test_every_licence_is_a_certificate_that_holds_on_the_catalog(catalog_structures):
    # a licence that names no certificate family would raise KeyError only
    # when the engine first reads it
    licences = sorted({row.licence for row in complexes.COMPLEXES.values()})
    for P, _ in catalog_structures:
        for licence in licences:
            cases, failure = complexes.certificate(P, licence)
            assert cases > 0 and failure == "", (P, licence)
        # [D_k, phi] has order 0: the units of X^1, X^2 and X^3 certify it
        assert complexes.certificate(P, "koszul_multiplication_commutes") == (7, ""), P


@pytest.mark.parametrize("phi,weights", REFERENCE_PHI, ids=[p for p, _ in REFERENCE_PHI])
def test_each_stack_fills_only_its_unskipped_top_columns(monkeypatch, phi, weights):
    # the columns of d that each stack fills, counted where they are built:
    # a coboundary or boundary stack fills its unskipped columns, and a
    # Koszul or de Rham stack none, as it reads the kept block; the memo is
    # bypassed, and every entry it reads is held already
    P = structure(phi, weights)
    keys, _ = engine_run(monkeypatch, P)
    built = []
    matrix_of = operators.matrix_of

    def counted(symbol, source, target):
        m = matrix_of(symbol, source, target)
        built.append((symbol, len(m.columns)))
        return m

    monkeypatch.setattr(operators, "matrix_of", counted)
    for block, side, p, j in sorted(keys):
        row = complexes.COMPLEXES[block, side]
        name = OUTGOING[row.differential, p]
        d = operators.operator_symbol(P, name)
        built.clear()
        pivots = complexes.stack_pivots.__wrapped__(P, block, side, p, j)
        filled = sum(n for symbol, n in built if symbol is d)
        unskipped = basis_of("X%d" % p, j, P.weights).dim
        unskipped -= complexes.skipped(P, block, side, p, j).bit_count()
        kept = row.differential in ("koszul", "de_rham")
        assert filled == (0 if kept else unskipped), (block, side, p, j)
        assert pivots.bit_count() == whole_stack_rank(P, block, side, p, j), (block, side, p, j)


# Brieskorn-Pham inputs of the screening workload, and their weights
SCREENED = [("x^2+y^2+z^3", "3,3,2"), ("x^2+y^3+z^4", "6,4,3"), ("x^3+y^3+z^4", "4,4,3"),
            ("x^2+y^4+z^5", "10,5,4")]


def test_verify_leaves_matrices_only_in_the_operator_caches(capsys):
    # after verify on four inputs in one process, clearing the caches of
    # operators frees every matrix of their weights: none is held elsewhere,
    # and no coboundary or boundary matrix (which raises the X^p index) is
    # held at all
    for phi, weights in SCREENED:
        assert main(["verify", "--suite", "cohomology", "--phi", phi, "--weights", weights]) == 0
    capsys.readouterr()
    weights = {WeightSystem(tuple(map(int, w.split(",")))) for _, w in SCREENED}
    gc.collect()
    live = [m for m in gc.get_objects()
            if isinstance(m, GradedOperatorMatrix) and m.source.weights in weights]
    assert live
    assert all(m.target.kind <= m.source.kind for m in live)
    refs = [weakref.ref(m) for m in live]
    del live
    for cached in vars(operators).values():
        if getattr(cached, "__module__", None) == operators.__name__ and hasattr(
            cached, "cache_clear"
        ):
            cached.cache_clear()
    gc.collect()
    assert [ref() for ref in refs if ref() is not None] == []


# the Koszul and de Rham rows of the table, and the certificates that
# license their skips
KOSZUL_ROWS = {"koszul_squared_vanishes": "koszul", "de_rham_squared_vanishes": "de_rham"}


def koszul_run(monkeypatch, P):
    """The Koszul suite's results on P's default window, from an empty stack
    memo; the (block, p, j) of every rank it reads off the Koszul and de
    Rham rows; and the (block, p, j, skip) of every stack of those rows
    ranked, with the kept matrices whose columns it read."""
    complexes.stack_pivots.cache_clear()
    reads, ranked, kept = [], [], []
    rank, read, keep = suites.stack_rank, complexes.operator_columns, operators.kept_matrix

    def reading(P, block, side, p, j):
        if block in KOSZUL_ROWS.values():
            reads.append((block, p, j))
        return rank(P, block, side, p, j)

    def ranking(P, name, i, skip=0):
        family = name.rstrip("0123")
        if family in KOSZUL_ROWS.values():
            ranked.append((family, operators.PIECES[name][0], i, skip))
        return read(P, name, i, skip)

    def keeping(*args):
        kept.append(keep(*args))
        return kept[-1]

    monkeypatch.setattr(suites, "stack_rank", reading)
    monkeypatch.setattr(complexes, "operator_columns", ranking)
    monkeypatch.setattr(operators, "kept_matrix", keeping)
    results = suites.koszul_suite(P, default_window(P))
    monkeypatch.setattr(suites, "stack_rank", rank)
    monkeypatch.setattr(complexes, "operator_columns", read)
    monkeypatch.setattr(operators, "kept_matrix", keep)
    complexes.stack_pivots.cache_clear()
    return results, reads, ranked, kept


def test_kept_matrices_hold_no_state_and_the_koszul_suite_ranks_each_block_once(
    monkeypatch, cubic
):
    # the Koszul suite keeps no rank of its own: it reads the stack memo,
    # each kept matrix it reads holds its bases and columns only, and
    # although rows share blocks, no block is ranked twice
    results, reads, ranked, kept = koszul_run(monkeypatch, cubic)
    assert all(r.passed for r in results)
    assert kept and all(set(vars(m)) == {"source", "target", "columns"} for m in kept)
    blocks = Counter((block, p, j) for block, p, j, _ in ranked)
    assert set(blocks.values()) == {1}
    nonzero = [(b, p, j) for b, p, j in reads if complexes.cochain_dim(cubic, p, j)]
    assert set(blocks) == set(nonzero) and len(blocks) < len(nonzero)


def test_koszul_suite_skips_keep_the_rank_of_each_block(monkeypatch, catalog_structures):
    # D_2 skips the pivots of im D_3, D_1 those of im D_2, curl those of
    # im grad and div those of im curl; each skipped block keeps its pivots
    for P, _ in catalog_structures:
        results, _, ranked, _ = koszul_run(monkeypatch, P)
        assert all(r.passed for r in results), P
        for block in KOSZUL_ROWS.values():
            assert any(skip for family, _, _, skip in ranked if family == block), P
        for block, p, j, skip in ranked:
            columns = kept_matrix(P, "%s%d" % (block, p), j).columns
            whole = pivots_of_columns(columns)
            assert pivots_of_columns(linalg.columns_off_pivots(columns, skip)) == whole, P
            assert complexes.stack_pivots(P, block, "ambient", p, j) == whole, P


@pytest.mark.parametrize("licence", sorted(KOSZUL_ROWS))
def test_a_failed_koszul_licence_skips_nothing(monkeypatch, cubic, licence):
    results, _, _, _ = koszul_run(monkeypatch, cubic)
    certify = complexes.certificate

    def failing(P, family):
        return (1, "forced") if family == licence else certify(P, family)

    monkeypatch.setattr(complexes, "certificate", failing)
    forced, _, ranked, _ = koszul_run(monkeypatch, cubic)
    assert forced == results
    assert [skip for block, _, _, skip in ranked if block == KOSZUL_ROWS[licence] and skip] == []
    other, = set(KOSZUL_ROWS.values()) - {KOSZUL_ROWS[licence]}
    assert any(skip for block, _, _, skip in ranked if block == other)


@pytest.mark.parametrize("phi,weights", REFERENCE_PHI, ids=[p for p, _ in REFERENCE_PHI])
def test_phi_multiple_pivots_are_the_column_minima(phi, weights):
    # the indices of LM(phi)*m, found without elimination, are where each
    # column of phi on X^k_i starts
    P = structure(phi, weights)
    for k in range(4):
        for i in range(-5, 25):
            minima = [min(col) for col in kept_matrix(P, "phi%d" % k, i).columns]
            assert phi_multiple_pivots(P, k, i) == sum(1 << q for q in minima), (k, i)
            assert len(set(minima)) == len(minima), (k, i)


def identities_failure(P):
    results = suites.identities_suite(P, default_window(P))
    return [r.details for r in results if r.name == "coboundary_squared_vanishes" and not r.passed]


def descent_failure(P):
    # what homology_suite reports as quotient_boundary_well_defined
    return [projection_commutes(P)[1]]


def squared_failure(P):
    # what homology_suite reports as boundary_squared_vanishes
    return [complexes.certificate(P, "boundary_squared_vanishes")[1]]


def koszul_failure(P):
    # the licence of the Koszul row of A/<phi>, which no suite reports
    return [complexes.certificate(P, "koszul_multiplication_commutes")[1]]


def no_skip(P, p, j):
    return 0


def source_relations(P, p, j):
    # the surface homology skip of descent alone: the relations of X^p_j
    return complexes.stack_pivots(P, "koszul", "surface", p + 1, j - P.degree)


# A planted structure of x^3+y^3+z^3 (N = 0), or that structure with a
# certificate failed by force, the row its fault concerns, the failed family
# that certifies the row, its first failing probe, and the skip set the row
# keeps at (p, j): none, or for boundary o boundary alone, the skip of descent.
FAULTS = [
    (
        "delta_squared_nonzero",
        {"delta1": lambda self, v: PoissonStructure.delta1(self, v) + v * Poly.variable(0)}, None,
        ("cohomology", "ambient"), identities_failure, "delta1 o delta0 on f=x", no_skip,
    ),
    (
        "boundary_not_commuting_with_phi",
        {"boundary": boundary_plus(3, lambda f: grad(f) * Poly.variable(0) ** 2)}, None,
        ("homology", "surface"), descent_failure, "boundary_3(phi*c) != phi*boundary_3(c) at c=1",
        no_skip,
    ),
    (
        "boundary_squared_failed_with_descent_holding",
        {}, "boundary_squared_vanishes",
        ("homology", "surface"), squared_failure, "forced", source_relations,
    ),
    (
        "koszul_multiplication_failed",
        {}, "koszul_multiplication_commutes",
        ("koszul", "surface"), koszul_failure, "forced", no_skip,
    ),
]


@pytest.mark.parametrize(
    "methods,forced,row,family_failure,failure,skip", [case[1:] for case in FAULTS],
    ids=[case[0] for case in FAULTS],
)
def test_a_failed_certificate_skips_nothing(
    monkeypatch, methods, forced, row, family_failure, failure, skip
):
    # nothing that the failed family certifies is skipped: a row whose only
    # licence failed skips nothing, and surface homology with descent still
    # holding skips the source relations alone; every other row whose
    # licence holds keeps its skip set (surface cohomology its Casimir skip
    # when the Koszul row of A/<phi>, which shares its T and S, fails)
    P = planted("x^3+y^3+z^3", (1, 1, 1), **methods)
    if forced:
        certify = complexes.certificate
        monkeypatch.setattr(
            complexes, "certificate",
            lambda P, family: (1, "forced") if family == forced else certify(P, family),
        )
    # the default window ends at 9; without its certificate a row costs more
    keys, dims = engine_run(monkeypatch, P, (-3, 6))
    stacks = sorted(key for key in keys if key[:2] == row)
    assert stacks
    assert [complexes.skipped(P, *key) for key in stacks] == [skip(P, *key[2:]) for key in stacks]
    assert any(skip(P, *key[2:]) for key in stacks) == (skip is not no_skip)
    holding = {
        other for other, c in complexes.COMPLEXES.items()
        if other != row and c.licence != DUALITY and not complexes.certificate(P, c.licence)[1]
    }
    assert holding and holding <= {key[:2] for key in keys if complexes.skipped(P, *key)}
    # the dims of the whole stacks, as when no column was ever skipped
    ends = complexes.stack_rank

    def whole(P, block, side, p, j):
        if (complexes.COMPLEXES[block, side].differential, p) in OUTGOING:
            return whole_stack_rank(P, block, side, p, j)
        return ends(P, block, side, p, j)

    monkeypatch.setattr(complexes, "stack_rank", whole)
    assert dims == {key: dim_or_error(P, *key) for key in dims}
    assert family_failure(P) == [failure]


# Echelon.insert calls of complex_dims over the four (co)homology rows on
# x^3+y^3+z^3, on the default windows, from an empty stack memo: 10,215
# with the skip sets of every row, 11,542 without the skip set of the
# Koszul row of A/<phi> (the D_k columns at the phi-multiple pivots of its
# stacks, which rank the constraint of surface cohomology and the relations
# of surface homology), 13,701 with that skip set alone, and 15,028 with
# every column reduced.  Ambient homology reads the ambient cohomology
# stacks and inserts nothing of its own, and the Koszul row of A/<phi> then
# inserts nothing: the (co)homology rows ranked each stack it reads.  The
# ambient Koszul and de Rham rows then add 3,087 with their skip sets and
# 4,810 with every column reduced.
INSERTS_WITHOUT_SKIPPING = 15028
INSERTS = 10215
KOSZUL_INSERTS_WITHOUT_SKIPPING = 4810
KOSZUL_INSERTS = 3087


def test_skip_sets_save_echelon_inserts(monkeypatch, cubic):
    complexes.stack_pivots.cache_clear()
    calls = []
    insert = linalg.Echelon.insert

    def counted(self, vec):
        calls.append(1)
        return insert(self, vec)

    monkeypatch.setattr(linalg.Echelon, "insert", counted)
    rows = Counter()
    for block, side in complexes.COMPLEXES:
        window = default_form_window(cubic) if block == "homology" else default_window(cubic)
        before = len(calls)
        for k in range(4):
            cohomology.complex_dims(cubic, block, side, k, window)
        rows[block, side] += len(calls) - before
    homology = sum(n for (block, _), n in rows.items() if block in ("cohomology", "homology"))
    assert homology <= INSERTS < INSERTS_WITHOUT_SKIPPING
    assert rows["koszul", "surface"] == 0
    koszul = rows["koszul", "ambient"] + rows["de_rham", "ambient"]
    assert koszul <= KOSZUL_INSERTS < KOSZUL_INSERTS_WITHOUT_SKIPPING
