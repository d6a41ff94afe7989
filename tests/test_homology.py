import random
from collections import Counter
from itertools import combinations, compress
from math import comb
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from cellposet import graphs, posets, reduction
from cellposet.constructions import (_rp_graph, boundary_of_simplex,
                                     connected_sum,
                                     cross_polytope_quotient,
                                     parallel_edges_graph,
                                     product_spheres_graph)
from cellposet import homology
from cellposet.homology import (_check_simplicial, _face_counts, _pivots,
                                _require_simplicial, _upward_pass,
                                betti_gf2, h_double_prime,
                                is_homology_manifold, link_bettis,
                                validate_poset)
from cellposet.checkers import check_manifold_h
from cellposet.graphs import (ColoredGraph, require_admissible,
                              validate_admissible)
from cellposet.posets import (SimplicialPoset, f_vector, from_graph,
                              h_vector, is_pseudomanifold, is_pure)
from cellposet.reduction import _cancel_greedily, _Table, greedy_reduce

from conftest import (admissible_graphs, betti_order_complex, bfs_roots,
                      boolean_by_definition, boundary_rows, census_graphs,
                      facets, gf2_rank, insert_dipole, is_homology_sphere,
                      link, rewired_posets, rewired_simplex_boundary,
                      shuffled, simplex_boundary_wedge, sphere_pattern,
                      two_pillows, unmarked, vertex_sets)


def full_simplex_poset(d: int) -> SimplicialPoset:
    """All faces of a d-simplex including the top cell: contractible."""
    ids = {(): 0}
    ranks, covers, labels = [0], [()], ["0"]
    for size in range(1, d + 2):
        for sub in combinations(range(d + 1), size):
            ids[sub] = len(ranks)
            ranks.append(size)
            labels.append(str(sub))
            covers.append(tuple(
                ids[tuple(x for x in sub if x != drop)] for drop in sub))
    return SimplicialPoset(d + 1, tuple(ranks), tuple(covers), tuple(labels))


class TestGF2Rank:
    def test_known_small_matrix(self):
        # rows 110, 011, 101 over GF(2): rank 2
        assert gf2_rank([0b011, 0b110, 0b101]) == 2

    def test_identity(self):
        assert gf2_rank([1 << i for i in range(5)]) == 5

    def test_zero_rows(self):
        assert gf2_rank([0, 0]) == 0


@st.composite
def gf2_rows(draw):
    """Bit-packed rows up to about 300 bits wide: some drawn, then sums of
    drawn rows, repeats and zero rows among them, in any order."""
    width = draw(st.integers(1, 300))
    rows = draw(st.lists(st.integers(0, (1 << width) - 1), max_size=25))
    if rows:
        for subset in draw(st.lists(st.sets(st.sampled_from(rows)),
                                    max_size=10)):
            total = 0
            for row in subset:
                total ^= row
            rows.append(total)
        rows += draw(st.lists(st.sampled_from(rows), max_size=5))
    rows += [0] * draw(st.integers(0, 3))
    return draw(st.permutations(rows))


class TestPivots:
    """The one elimination kernel, `homology._pivots`: each reduced row
    keyed by its bit length."""

    @settings(max_examples=200)
    @given(gf2_rows())
    def test_basis_of_the_row_space(self, rows):
        basis = _pivots(rows)
        assert len(basis) == gf2_rank(rows)
        assert all(key == row.bit_length() for key, row in basis.items())
        # the basis spans every input row: each reduces to zero on it (a
        # row outside the span meets a missing key)
        for row in rows:
            while row:
                row ^= basis[row.bit_length()]
        # and lies in their span
        assert gf2_rank(rows + list(basis.values())) == len(basis)


class TestBetti:
    def test_torus(self, torus_graph):
        assert betti_gf2(from_graph(torus_graph)) == (0, 2, 1)

    def test_simplex_boundaries_are_spheres(self):
        for d in (1, 2, 3, 4):
            assert betti_gf2(boundary_of_simplex(d)) == (0,) * (d - 1) + (1,)

    def test_projective_plane(self):
        p = cross_polytope_quotient(3)
        assert betti_gf2(p) == (0, 1, 1)
        assert betti_order_complex(p) == (0, 1, 1)

    def test_two_facet_spheres(self):
        for d in (1, 2, 3):
            p = from_graph(parallel_edges_graph(d))
            assert betti_gf2(p) == (0,) * (d - 1) + (1,)

    def test_oracle_on_contractible_poset(self):
        p = full_simplex_poset(2)
        assert betti_order_complex(p) == (0, 0, 0)
        assert betti_gf2(p) == (0, 0, 0)

    def test_sum_of_two_lone_facets_is_refused(self):
        # the sum drops the 3-simplex's one rank-4 cell from both summands,
        # so no cell of rank d = 4 is left
        p = full_simplex_poset(3)
        (top,) = p.cells_by_rank[p.d]
        with pytest.raises(ValueError, match="^d is 4, but the greatest "
                           "cell rank is 3$"):
            connected_sum(p, p, top, top)

    def test_oracle_agrees_on_torus(self, torus_graph):
        p = from_graph(torus_graph)
        assert betti_order_complex(p) == betti_gf2(p) == (0, 2, 1)

    @given(admissible_graphs(max_pairs=3))
    def test_engines_agree_on_random_graphs(self, g):
        p = from_graph(g)
        assert betti_gf2(p) == betti_order_complex(p)

    @given(admissible_graphs(max_pairs=3))
    def test_euler_poincare(self, g):
        p = from_graph(g)
        f = f_vector(p)
        betti = betti_gf2(p)
        # reduced Euler characteristic two ways
        chi_cells = sum((-1) ** k * f[k] for k in range(len(f)))
        chi_betti = sum((-1) ** i * b for i, b in enumerate(betti))
        assert -chi_cells == chi_betti


class TestChainComplex:
    def test_boundary_squared_is_checked(self):
        # a rank-3 cell over a non-boolean interval: boundary^2 != 0
        p = SimplicialPoset(
            3,
            (0, 1, 1, 1, 1, 2, 2, 2, 3),
            ((), (0,), (0,), (0,), (0,), (1, 2), (2, 3), (1, 4), (5, 6, 7)),
            tuple("abcdefghi"))
        with pytest.raises(ValueError, match="boundary squared"):
            _check_simplicial(p)

    def test_manifold_test_checks_the_boundary_first(self):
        # the links of this poset are never eliminated: the one check on
        # the parent's complex refuses it
        p = SimplicialPoset(
            3,
            (0, 1, 1, 1, 1, 2, 2, 2, 3),
            ((), (0,), (0,), (0,), (0,), (1, 2), (2, 3), (1, 4), (5, 6, 7)),
            tuple("abcdefghi"))
        with pytest.raises(ValueError, match="boundary squared"):
            is_homology_manifold(p)

    def test_row_bit_limit(self, monkeypatch):
        # the rows of the boundary of the 3-simplex take
        # 4*1 + 6*4 + 4*6 = 52 bits: allowed at a limit of 52 only
        p = boundary_of_simplex(3)
        monkeypatch.setattr(posets, "MAX_ROW_BITS", 52)
        assert [len(rows) for rows in boundary_rows(p)] == [4, 6, 4]
        assert validate_poset(p) == [] and betti_gf2(p) == (0, 0, 1)
        monkeypatch.setattr(posets, "MAX_ROW_BITS", 51)
        for engine in (validate_poset, betti_gf2, is_homology_manifold,
                       is_homology_sphere, link_bettis):
            with pytest.raises(ValueError, match=(
                    r"^the chain complex has 52 bits of boundary rows, more "
                    r"than the limit of 51$")):
                engine(p)

    @pytest.mark.parametrize("marked", [True, False])
    @pytest.mark.parametrize("engine", [
        betti_gf2, validate_poset, is_homology_manifold,
        lambda p: list(link_bettis(p))],
        ids=["betti_gf2", "validate_poset", "is_homology_manifold",
             "link_bettis"])
    def test_the_row_bit_guard_runs_once_and_first(self, engine, marked):
        def build():
            p = from_graph(product_spheres_graph(1, 2))
            return p if marked else unmarked(p)

        p = build()
        with mock.patch.object(homology, "_require_row_bits",
                               wraps=posets._require_row_bits) as guard:
            engine(p)
        guard.assert_called_once_with(p)
        # a refusal comes before any proof or row is built, so before the
        # poset caches its position or up table
        q = build()
        with mock.patch.object(homology, "_require_row_bits",
                               side_effect=ValueError("refused")):
            with pytest.raises(ValueError, match="^refused$"):
                engine(q)
        assert "_positions" not in vars(q) and "_up_table" not in vars(q)

    def test_augmentation_row(self, torus_graph):
        rows = boundary_rows(from_graph(torus_graph))
        assert all(row == 1 for row in rows[0])


def per_degree_betti(p: SimplicialPoset) -> tuple[int, ...]:
    """Oracle for the clearing of `betti_gf2`: the Betti vector from the
    ranks of the same rows, each degree eliminated on its own, every row
    reduced.  With the cell counts fixed, equal Betti vectors mean equal
    ranks: beta_{d-1} fixes the degree-d rank, and each beta_{k-1} then
    fixes the degree-k rank."""
    f = f_vector(p)
    ranks = [gf2_rank(rows) for rows in boundary_rows(p)] + [0]
    return tuple(f[k] - ranks[k - 1] - ranks[k] for k in range(1, p.d + 1))


class TestClearing:
    """The cleared top-down elimination gives the per-degree ranks."""

    @given(admissible_graphs(colors=(2, 3, 4)))
    def test_graph_posets(self, g):
        p = from_graph(g)
        assert betti_gf2(p) == per_degree_betti(p)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_projective_spaces(self, n):
        p = cross_polytope_quotient(n)
        assert betti_gf2(p) == per_degree_betti(p)

    @given(st.data())
    def test_connected_sums(self, data):
        d = data.draw(st.sampled_from([2, 3]))
        p = from_graph(data.draw(admissible_graphs(colors=(d,))))
        q = from_graph(data.draw(admissible_graphs(colors=(d,))))
        s = connected_sum(p, q, facets(p)[0], facets(q)[-1])
        assert betti_gf2(s) == per_degree_betti(s)

    def test_product_of_spheres(self):
        p = from_graph(product_spheres_graph(2, 2))
        assert betti_gf2(p) == per_degree_betti(p) == (0, 0, 2, 0, 1)


def written_out_h_double_prime(h, betti) -> tuple[int, ...]:
    """The sum in the `h_double_prime` docstring, one binomial and one
    alternating sum per entry."""
    d = len(h) - 1
    inner = [h[k] - comb(d, k) * sum((-1) ** (k - l) * betti[l - 1]
                                     for l in range(1, k + 1))
             for k in range(1, d)]
    return (1, *inner, *([betti[d - 1]] if d >= 1 else []))


class TestHDoublePrime:
    def test_torus(self):
        assert h_double_prime((1, 0, 6, -1), (0, 2, 1)) == (1, 0, 0, 1)

    def test_sphere_betti_is_identity(self):
        h = (1, 5, 5, 1)
        assert h_double_prime(h, (0, 0, 1)) == h

    def test_projective_plane(self):
        assert h_double_prime((1, 0, 3, 0), (0, 1, 1)) == (1, 0, 0, 1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            h_double_prime((1, 0, 0, 1), (0, 1))

    def test_d_zero(self):
        assert h_double_prime((5,), ()) == (1,)

    def test_d_one(self):
        assert h_double_prime((3, 7), (2,)) == (1, 2)

    @given(st.integers(0, 10).flatmap(lambda d: st.tuples(
        st.lists(st.integers(-50, 50), min_size=d + 1, max_size=d + 1),
        st.lists(st.integers(0, 5), min_size=d, max_size=d))))
    def test_matches_the_written_out_sum(self, case):
        h, betti = map(tuple, case)
        assert h_double_prime(h, betti) == written_out_h_double_prime(h, betti)


class TestSphereManifoldPredicates:
    def test_simplex_boundary(self):
        p = boundary_of_simplex(3)
        assert is_homology_sphere(p)
        assert is_homology_manifold(p)

    def test_torus(self, torus_graph):
        p = from_graph(torus_graph)
        assert not is_homology_sphere(p)
        assert is_homology_manifold(p)

    def test_projective_plane_is_a_gf2_manifold(self):
        p = cross_polytope_quotient(3)
        assert is_homology_manifold(p)
        assert not is_homology_sphere(p)

    def test_contractible_is_not_a_sphere(self):
        assert not is_homology_sphere(full_simplex_poset(2))


def lower_half(betti: tuple[int, ...]) -> tuple[int, ...]:
    """The entries beta_0 .. beta_{floor(e/2)} of the Betti vector of a
    link of dimension e, which has e + 1 entries."""
    return betti[:(len(betti) + 1) // 2]


def oracle_link_bettis(p: SimplicialPoset) -> list:
    """(cell, order-complex Betti vector of its link) for every cell of
    rank >= 1, in cell order, the link built as its own poset by `link`.
    A link below rank d - rank(c) has no homology above its own rank, so
    its vector is padded with zeros to d - rank(c) entries."""
    def padded(c):
        betti = betti_order_complex(link(p, c))
        return betti + (0,) * (p.d - p.ranks[c] - len(betti))
    return [(c, padded(c)) for c in range(1, p.n_cells)]


def oracle_verdicts(p: SimplicialPoset, links) -> tuple[bool, bool]:
    """The manifold and sphere verdicts read from `links`, the oracle's
    whole link Betti vectors of `p`."""
    spherical = all(betti == sphere_pattern(len(betti)) for _, betti in links)
    return (is_pure(p) and spherical,
            betti_order_complex(p) == sphere_pattern(p.d) and spherical)


def assert_links_match_the_oracle(p: SimplicialPoset) -> bool:
    """Every cell's vector from `link_bettis` is the lower half of the
    oracle's, and the two predicates give the verdicts read from the
    oracle's whole vectors; returns the manifold verdict."""
    links = oracle_link_bettis(p)
    assert sorted(link_bettis(p)) == [(c, lower_half(betti))
                                      for c, betti in links]
    verdict = is_homology_manifold(p)
    assert (verdict, is_homology_sphere(p)) == oracle_verdicts(p, links)
    return verdict


def sphere_with_an_extra_edge(hanging: bool, d: int = 4) -> SimplicialPoset:
    """The boundary of the d-simplex with one more edge, the last cell,
    which nothing covers: a simplicial poset that is not pure.  The edge
    hangs from vertex 1, or lies apart on two new vertices."""
    p = boundary_of_simplex(d)
    n = p.n_cells
    new = (n,) if hanging else (n, n + 1)
    ends = (1,) + new if hanging else new
    return SimplicialPoset(
        d, p.ranks + (1,) * len(new) + (2,),
        p.covers + ((0,),) * len(new) + (ends,),
        p.labels + tuple(f"x{i}" for i in range(len(new) + 1)))


def small_posets(torus_graph, torus_suspension_graph):
    return {
        "torus": from_graph(torus_graph),
        "torus suspension": from_graph(torus_suspension_graph),
        "RP^2": cross_polytope_quotient(3),
        "RP^3": cross_polytope_quotient(4),
        "S^1 x S^2": from_graph(product_spheres_graph(1, 2)),
        "boundary of the 4-simplex": boundary_of_simplex(4),
        "3-simplex": full_simplex_poset(3),
    }


class TestSlicedLinks:
    """The link test against the per-link posets of `link` and the
    order-complex engine: every cell's Betti vector, and the verdicts."""

    @settings(max_examples=100)
    @given(admissible_graphs(max_pairs=5, colors=(2, 3, 4)))
    def test_graph_posets(self, g):
        assert_links_match_the_oracle(from_graph(g))

    @settings(max_examples=100)
    @given(admissible_graphs(max_pairs=4, colors=(2, 3, 4, 5)))
    def test_verdicts_match_the_whole_vectors(self, g):
        # up to 8 facets of rank 5 keep every order complex far below
        # MAX_CHAINS; the links of d = 5 vertices, of dimension 3, are
        # eliminated in degrees 0 and 1 only
        p = from_graph(g)
        assert ((is_homology_manifold(p), is_homology_sphere(p))
                == oracle_verdicts(p, oracle_link_bettis(p)))

    @given(st.data())
    def test_connected_sums(self, data):
        d = data.draw(st.sampled_from([2, 3]))
        p = from_graph(data.draw(admissible_graphs(colors=(d,))))
        q = from_graph(data.draw(admissible_graphs(colors=(d,))))
        s = connected_sum(p, q, facets(p)[0], facets(q)[-1])
        assert_links_match_the_oracle(s)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_projective_spaces(self, n):
        assert assert_links_match_the_oracle(cross_polytope_quotient(n))

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 2)])
    def test_products_of_spheres(self, n, m):
        p = from_graph(product_spheres_graph(n, m))
        assert assert_links_match_the_oracle(p)

    def test_every_link_has_the_order_complex_homology(
            self, torus_graph, torus_suspension_graph):
        for name, p in small_posets(torus_graph,
                                    torus_suspension_graph).items():
            assert sorted(link_bettis(p)) == [
                (c, lower_half(betti))
                for c, betti in oracle_link_bettis(p)], name

    def test_cells_come_from_the_top_rank_down(self, torus_graph):
        p = from_graph(torus_graph)
        ranks = [p.ranks[c] for c, _ in link_bettis(p)]
        assert ranks == sorted(ranks, reverse=True)

    def test_torus_suspension_is_no_manifold(self, torus_suspension_graph):
        g = torus_suspension_graph
        assert not validate_admissible(g)
        p = from_graph(g)
        assert is_pseudomanifold(p)
        assert betti_gf2(p) == betti_order_complex(p) == (0, 0, 2, 1)
        assert not is_homology_manifold(p)
        assert not is_homology_sphere(p)
        assert oracle_verdicts(p, oracle_link_bettis(p)) == (False, False)
        # the two cone points are the cells whose links are tori: the lower
        # half (0, 2) of the torus's vector is no sphere's
        cut = dict(link_bettis(p))
        tori = [c for c, betti in cut.items()
                if betti != lower_half(sphere_pattern(p.d - p.ranks[c]))]
        assert len(tori) == 2
        assert all(p.ranks[c] == 1 and cut[c] == (0, 2) for c in tori)
        assert all(betti_gf2(link(p, c)) == (0, 2, 1) for c in tori)

    @pytest.mark.parametrize("hanging", [True, False])
    def test_non_pure_posets_are_refused(self, hanging):
        # an edge that nothing covers has an empty link, whose lower half
        # (0,) passes the cut check; with the edge apart from the sphere
        # every link passes it, and only the purity check refuses
        p = sphere_with_an_extra_edge(hanging)
        assert not is_pure(p)
        assert not assert_links_match_the_oracle(p)
        assert not is_homology_sphere(p)
        assert hanging != all(
            betti == lower_half(sphere_pattern(p.d - p.ranks[c]))
            for c, betti in link_bettis(p))

    def test_cover_count_is_checked_in_every_link(self):
        # the boundary squares to zero, but above a vertex of one pillow
        # the top cell covers two cells, not three: the parent's complex
        # is refused, so no link is eliminated
        p = two_pillows()
        with pytest.raises(ValueError, match="not a simplicial poset"):
            _check_simplicial(p)

    @pytest.mark.parametrize("share_edge", [False, True])
    @pytest.mark.parametrize("engine", [betti_gf2, is_homology_manifold,
                                        is_homology_sphere])
    def test_pillows_are_refused(self, engine, share_edge):
        with pytest.raises(ValueError, match="not a simplicial poset"):
            engine(two_pillows(share_edge))

    @pytest.mark.parametrize("poset", [
        lambda: two_pillows(False), lambda: two_pillows(True),
        rewired_simplex_boundary])
    def test_link_bettis_proves_its_input(self, poset):
        # on the call, before any link is eliminated, with the error text
        # of betti_gf2
        p = poset()
        with pytest.raises(ValueError) as expected:
            betti_gf2(p)
        assert str(expected.value).startswith("not a simplicial poset: ")
        assert_refused_alike(p, str(expected.value))


def transposed(rows, width: int) -> list[int]:
    """The `width` columns of bit-packed rows, each packed as a row: bit j
    of column i is bit i of row j."""
    return [sum(1 << j for j, row in enumerate(rows) if row >> i & 1)
            for i in range(width)]


def summed_with_a_simplex_boundary(p: SimplicialPoset) -> SimplicialPoset:
    """`connected_sum` of `p`, of rank d >= 2, at its first rank-d cell,
    and the boundary of the d-simplex."""
    q = boundary_of_simplex(p.d)
    return connected_sum(p, q, p.cells_by_rank[p.d][0], facets(q)[0])


# every engine that proves its input simplicial, by the one walk; the
# posets they are given have rank d >= 2 and a cell of rank d
PROVING_ENGINES = (_check_simplicial, _require_simplicial, betti_gf2,
                   is_homology_manifold, link_bettis,
                   summed_with_a_simplex_boundary)


def assert_refused_alike(p: SimplicialPoset, message: str) -> None:
    """Every engine of PROVING_ENGINES refuses `p` with `message`."""
    for engine in PROVING_ENGINES:
        with pytest.raises(ValueError) as info:
            engine(p)
        assert str(info.value) == message, engine


def assert_the_rows_are_transposed(p: SimplicialPoset) -> None:
    """After the gate, which returns the mark, `_upward_pass` gives, for
    each rank below d, the transpose of the boundary rows of the rank
    above, and the rows of rank d, zero."""
    assert _require_simplicial(p) == p._proved
    cob = _upward_pass(p)[0]
    f = f_vector(p)
    assert [transposed(rows, width) for rows, width in zip(
        boundary_rows(p), f)] == cob[:p.d]
    assert cob[p.d] == [0] * f[p.d]


@st.composite
def rewired_once(draw):
    """A small simplicial poset, the boundary of a 2- to 4-simplex or the
    poset of an admissible graph, with one cover of a cell of rank >= 2
    moved to another cell of the same rank: the constructor's checks still
    hold, and the result may be simplicial or not.  Half the moves go to a
    cell with the vertex set of one of the cell's covers; in a graph poset
    of d = 4, a move to the twin of the cover it replaces, below the top
    rank, keeps the vertex-set law and fails the square only."""
    if draw(st.booleans()):
        p = boundary_of_simplex(draw(st.integers(2, 4)))
    else:
        p = from_graph(draw(admissible_graphs(colors=(2, 3, 4))))
    c = draw(st.sampled_from([c for c in range(1, p.n_cells)
                              if p.ranks[c] >= 2]))
    pool = [x for x in p.cells_by_rank[p.ranks[c] - 1]
            if x not in p.covers[c]]
    if draw(st.booleans()):
        verts = vertex_sets(p)
        twins = {verts[j] for j in p.covers[c]}
        pool = [x for x in pool if verts[x] in twins]
    assume(pool)
    slot = draw(st.integers(0, p.ranks[c] - 1))
    covers = list(p.covers)
    covers[c] = (covers[c][:slot] + (draw(st.sampled_from(pool)),)
                 + covers[c][slot + 1:])
    return SimplicialPoset(p.d, p.ranks, tuple(covers), p.labels)


class TestTwoProofs:
    """The engines' one proof, the walk of `_check_simplicial`, against a
    second, the definition of `boolean_by_definition`."""

    @settings(max_examples=600)
    @given(st.one_of(rewired_once(), rewired_posets()))
    def test_the_engines_refuse_exactly_the_non_boolean_posets(self, p):
        violations = validate_poset(p)
        if boolean_by_definition(p):
            assert violations == []
            for engine in PROVING_ENGINES:
                engine(p)
            assert_the_rows_are_transposed(p)
        else:
            (message,) = violations
            assert_refused_alike(p, message)
        # a forged mark does not reach validate_poset
        p.__dict__["_proved"] = True
        assert validate_poset(p) == violations

    def test_a_zero_square_is_checked_where_the_vertex_sets_pass(self):
        # a cell below the top rank moved onto a twin of one of its covers,
        # a cell with the same vertex set and the same covers: each cell
        # above it then covers the replaced cover once
        p = from_graph(product_spheres_graph(1, 2))
        verts = vertex_sets(p)
        c, i, twin = next(
            (c, i, x) for c in range(p.n_cells) if 2 <= p.ranks[c] < p.d
            for i, b in enumerate(p.covers[c])
            for x in p.cells_by_rank[p.ranks[b]]
            if x != b and verts[x] == verts[b] and x not in p.covers[c])
        covers = list(p.covers)
        covers[c] = covers[c][:i] + (twin,) + covers[c][i + 1:]
        q = SimplicialPoset(p.d, p.ranks, tuple(covers), p.labels)
        assert vertex_sets(q) == verts
        with pytest.raises(ValueError,
                           match="boundary squared is nonzero") as info:
            _check_simplicial(q)
        assert_refused_alike(q, str(info.value))

    @pytest.mark.parametrize("poset", [
        lambda: SimplicialPoset(0, (0,), ((),), ("0",)),
        lambda: boundary_of_simplex(1), lambda: boundary_of_simplex(4),
        lambda: full_simplex_poset(3), lambda: cross_polytope_quotient(5),
        lambda: from_graph(product_spheres_graph(1, 2)),
        lambda: simplex_boundary_wedge(3, suspended=True)])
    def test_simplicial_posets(self, poset):
        assert_the_rows_are_transposed(poset())


class TestTheUpwardPass:
    """`is_homology_manifold` walks the upward table in one `_upward_pass`
    per call, after the gate, and only on a pure poset."""

    @pytest.mark.parametrize("poset,passes", [
        (lambda: from_graph(product_spheres_graph(1, 2)), 1),
        (lambda: unmarked(from_graph(product_spheres_graph(1, 2))), 1),
        (lambda: cross_polytope_quotient(4), 1),
        (lambda: boundary_of_simplex(4), 1),
        (lambda: simplex_boundary_wedge(3), 1),
        # purity fails first: no link is computed
        (lambda: sphere_with_an_extra_edge(True), 0)])
    def test_one_pass_per_call(self, monkeypatch, poset, passes):
        calls = []
        monkeypatch.setattr(homology, "_upward_pass",
                            lambda p: calls.append(p) or _upward_pass(p))
        p = poset()
        is_homology_manifold(p)
        assert calls == [p] * passes
        is_homology_manifold(p)
        assert calls == [p] * 2 * passes

    @pytest.mark.parametrize("poset", [
        lambda: two_pillows(False), lambda: two_pillows(True),
        rewired_simplex_boundary])
    def test_no_pass_when_the_gate_refuses(self, monkeypatch, poset):
        calls = []
        monkeypatch.setattr(homology, "_upward_pass", calls.append)
        with pytest.raises(ValueError, match="^not a simplicial poset: "):
            is_homology_manifold(poset())
        assert calls == []


def assert_face_counts_match_the_oracle(p: SimplicialPoset) -> None:
    """Every cell's face counts from the packed chain counts of
    `_upward_pass`, run after the gate, item [k][j] for the j-th cell of
    rank k, are the f-vector of its link, built as its own poset by
    `link`."""
    _require_simplicial(p)
    _, chains, width = _upward_pass(p)
    assert [[_face_counts(item, width, p.d - k) for item in items]
            for k, items in enumerate(chains)] == [
                [f_vector(link(p, c)) for c in cells]
                for cells in p.cells_by_rank]


class TestChainCounts:
    """The link face counts that give the Euler characteristic of each
    even link, against the f-vectors of the per-link posets."""

    @given(admissible_graphs(max_pairs=5, colors=(2, 3, 4, 5)))
    def test_graph_posets(self, g):
        assert_face_counts_match_the_oracle(from_graph(g))

    @given(st.data())
    def test_connected_sums(self, data):
        d = data.draw(st.sampled_from([2, 3, 4]))
        p = from_graph(data.draw(admissible_graphs(colors=(d,))))
        q = from_graph(data.draw(admissible_graphs(colors=(d,))))
        assert_face_counts_match_the_oracle(
            connected_sum(p, q, facets(p)[0], facets(q)[-1]))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_projective_spaces(self, n):
        assert_face_counts_match_the_oracle(cross_polytope_quotient(n))

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_wedges(self, d):
        assert_face_counts_match_the_oracle(simplex_boundary_wedge(d))
        assert_face_counts_match_the_oracle(
            simplex_boundary_wedge(d, suspended=True))

    def test_large_d(self):
        # 12! chains run from the minimum to each of the 13 facets: a field
        # sized for max(f) alone would overflow into the next
        p = boundary_of_simplex(12)
        _require_simplicial(p)
        _, chains, width = _upward_pass(p)
        for k, items in enumerate(chains):
            assert len(items) == comb(13, k)
            for item in items:
                assert _face_counts(item, width, 12 - k) == tuple(
                    comb(13 - k, t) for t in range(13 - k))
        assert is_homology_manifold(p)


class TestEulerBranch:
    """The middle Betti number of a clean cell's even link, read from its
    Euler characteristic, is the one elimination gives."""

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_wedges_of_simplex_boundaries(self, d):
        p = simplex_boundary_wedge(d)
        assert not assert_links_match_the_oracle(p)
        # the wedge point's link is two disjoint (d-2)-spheres; for d = 4
        # the point is clean, every cell above it passing, so its link
        # takes the Euler branch
        assert dict(link_bettis(p))[1] == lower_half(
            (1,) + (0,) * (d - 3) + (2,))

    def test_a_failed_cut_check_taints_the_cells_below(self):
        # the apexes' links are the wedge of two 2-spheres, chi 3, whose
        # point fails the cut check: read from chi, beta_1 would be -1
        p = simplex_boundary_wedge(3, suspended=True)
        assert not assert_links_match_the_oracle(p)
        cut = dict(link_bettis(p))
        assert cut[1] == cut[2] == (0, 0)

    @pytest.mark.parametrize("d", [3, 5])
    @pytest.mark.parametrize("hanging", [True, False])
    def test_maximal_cells_below_the_top_rank(self, d, hanging):
        # the extra edge is a ridge with no coverers for d = 3, and for
        # d = 5 a cell whose empty link has even dimension 2: no Euler
        # branch, its vector is zeros
        p = sphere_with_an_extra_edge(hanging, d)
        assert not assert_links_match_the_oracle(p)
        assert dict(link_bettis(p))[p.n_cells - 1] == (0,) * ((d - 1) // 2)

    @pytest.mark.parametrize("poset,euler_cells", [
        (lambda: simplex_boundary_wedge(4), 9),
        # vertex 1 is below the hanging edge, the new vertices below the
        # edge apart: maximal cells of rank below d taint them
        (lambda: sphere_with_an_extra_edge(True), 4),
        (lambda: sphere_with_an_extra_edge(False), 5),
        # the apexes and the wedge point are tainted, the other six clean
        (lambda: simplex_boundary_wedge(3, suspended=True), 6)])
    def test_which_cells_take_the_euler_branch(self, monkeypatch, poset,
                                               euler_cells):
        calls = []
        monkeypatch.setattr(homology, "_face_counts",
                            lambda *args: calls.append(args)
                            or _face_counts(*args))
        p = poset()
        list(link_bettis(p))
        assert len(calls) == euler_cells


def eliminated_cells(p: SimplicialPoset) -> set[int]:
    """The cells whose links `link_bettis` hands to `_cleared_ranks`."""
    cells = set()
    with mock.patch.object(homology, "_cleared_ranks",
                           wraps=homology._cleared_ranks) as eliminate:
        for c, _ in link_bettis(p):
            if eliminate.called:
                cells.add(c)
            eliminate.reset_mock()
    return cells


def without_the_certificate():
    """Patch the vertex-link certificate off, so that the link test
    eliminates on every poset."""
    return mock.patch.object(homology, "_certified", return_value=False)


def assert_read_off_alike(p: SimplicialPoset) -> list:
    """The marked graph poset `p` and its unmarked copy give the link test
    the same cell vectors, in the same order, and the same verdict; returns
    the vectors."""
    links = list(link_bettis(p))
    assert links == list(link_bettis(unmarked(p)))
    assert is_homology_manifold(p) == is_homology_manifold(unmarked(p))
    return links


class TestGraphLinks:
    """On a poset `from_graph` marked, the link test reads the links of
    rank d - 2 (circles) and d - 3 (closed surfaces) off the construction;
    its unmarked copy eliminates them."""

    @settings(max_examples=100)
    @given(admissible_graphs(max_pairs=4, colors=(3, 4, 5, 6)))
    def test_the_marked_and_unmarked_paths_agree(self, g):
        # most of these graphs are no manifolds
        p = from_graph(g)
        links = assert_read_off_alike(p)
        assert sorted(links) == [(c, lower_half(betti))
                                 for c, betti in oracle_link_bettis(p)]

    def test_the_torus_suspension(self, torus_suspension_graph):
        # d = 4: the two cone points, of rank 1 = d - 3, have tori for
        # links, beta_1 = 2 - chi = 2 read off the face counts; the other
        # three rank-1 cells have 2-spheres
        p = from_graph(torus_suspension_graph)
        cut = dict(assert_read_off_alike(p))
        assert sorted(cut[c] for c in p.cells_by_rank[1]) == (
            [(0, 0)] * 3 + [(0, 2)] * 2)
        assert not is_homology_manifold(p)
        assert not eliminated_cells(p)

    @pytest.mark.parametrize("n,m", [(1, 3), (2, 2)])
    def test_no_cell_of_rank_d_minus_3_up_is_eliminated(self, n, m):
        # at d = 5 the vertex-link certificate answers first, and then
        # nothing is eliminated: the read-off is pinned without it
        p = from_graph(product_spheres_graph(n, m))
        by_rank = p.cells_by_rank
        with without_the_certificate():
            assert eliminated_cells(p) == set().union(*by_rank[1:p.d - 3])
            assert eliminated_cells(unmarked(p)) == set().union(
                *by_rank[1:p.d - 1])
        assert eliminated_cells(p) == set()


# (d, V): the connected admissible graphs of `census_graphs`, and the
# homology manifolds among their posets
CENSUS = {(3, 4): (5, 5), (3, 6): (35, 35), (3, 8): (411, 411),
          (4, 4): (17, 10), (4, 6): (641, 177), (5, 4): (53, 22)}


class TestCensus:
    """Every connected admissible graph of a few small (d, V), up to
    color-preserving isomorphism: the counts, the paper's necessary
    conditions on every homology manifold, and the link test against the
    per-link oracle on every graph of d >= 4."""

    @pytest.mark.parametrize("d,n_vertices", sorted(CENSUS))
    def test_every_manifold_meets_the_necessary_conditions(self, d,
                                                           n_vertices):
        graphs = manifolds = 0
        for g in census_graphs(d, n_vertices):
            graphs += 1
            p = from_graph(g)
            if not is_homology_manifold(p):
                continue
            manifolds += 1
            f, betti = f_vector(p), betti_gf2(p)
            h = h_vector(f)
            hpp = h_double_prime(h, betti)
            assert min(hpp) >= 0 and hpp == hpp[::-1], g
            # Euler-Poincare: the reduced Euler characteristic, f_0 = 1
            # counting the empty face, of dimension -1
            assert sum((-1) ** (k - 1) * n for k, n in enumerate(f)) == sum(
                (-1) ** i * b for i, b in enumerate(betti)), g
            if d % 2 == 0:
                assert check_manifold_h(h, d), g
        assert (graphs, manifolds) == CENSUS[d, n_vertices]

    @pytest.mark.parametrize("d,n_vertices", [(4, 6), (5, 4)])
    def test_link_bettis_match_the_oracle(self, d, n_vertices):
        for g in census_graphs(d, n_vertices):
            p = from_graph(g)
            assert sorted(link_bettis(p)) == [
                (c, lower_half(betti))
                for c, betti in oracle_link_bettis(p)], g


def assert_certificate_changes_nothing(p: SimplicialPoset) -> bool:
    """`link_bettis` yields the same vectors, in the same order, and the
    link test the same verdict, with the certificate and without it;
    returns the verdict."""
    links, verdict = list(link_bettis(p)), is_homology_manifold(p)
    with without_the_certificate():
        assert list(link_bettis(p)) == links
        assert is_homology_manifold(p) == verdict
    return verdict


def census_sample(d: int, n_vertices: int, k: int) -> list:
    """`k` graphs of the census of (d, n_vertices), drawn with a fixed seed."""
    return random.Random(f"{d}/{n_vertices}").sample(
        list(census_graphs(d, n_vertices)), k)


def swapped(g: ColoredGraph, a: int, b: int) -> ColoredGraph:
    """`g` with colors a and b swapped."""
    swap = {a: b, b: a}
    return ColoredGraph(g.d, g.vertices, tuple(
        (u, v, swap.get(c, c)) for u, v, c in g.edges))


def every_color_split() -> ColoredGraph:
    """The graph of S^2 x S^2 with a dipole of color 1 and one of color 5
    inserted: colors 2, 3 and 4 leave it disconnected already, and each
    dipole's color parts its two ends."""
    g = product_spheres_graph(2, 2)
    h = insert_dipole(g, g.vertices[0], "x", "y")
    return swapped(insert_dipole(swapped(h, 1, 5), g.vertices[1], "u", "w"),
                   1, 5)


class TestTheVertexLinkCertificate:
    """On a poset `from_graph` marked, of d >= 5, the link test first
    cancels every vertex link's residue greedily; when each ends at two
    vertices, every cell gets the sphere's cut vector, with no
    elimination, and otherwise the elimination runs as before."""

    @pytest.mark.parametrize("n,m", [(1, 3), (2, 2), (1, 4), (2, 3),
                                     (1, 5), (2, 4), (3, 3)])
    def test_products(self, n, m):
        p = from_graph(product_spheres_graph(n, m))
        assert homology._certified(p)
        assert assert_certificate_changes_nothing(p)

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_projective_spaces(self, n):
        assert assert_certificate_changes_nothing(cross_polytope_quotient(n))

    @pytest.mark.parametrize("graphs,counts", [
        (lambda: census_graphs(5, 4), (53, 22)),
        (lambda: census_sample(5, 6, 400), (400, 37))])
    def test_the_census(self, graphs, counts):
        # every non-manifold fails the certificate, as it must, and here
        # every manifold passes it
        seen = manifolds = 0
        for g in graphs():
            p = from_graph(g)
            verdict = assert_certificate_changes_nothing(p)
            assert homology._certified(p) == verdict, g
            seen += 1
            manifolds += verdict
        assert (seen, manifolds) == counts

    @pytest.mark.parametrize("n,m", [(1, 3), (2, 2), (2, 3)])
    def test_a_certified_poset_eliminates_nothing(self, monkeypatch, n, m):
        calls = []
        monkeypatch.setattr(homology, "_upward_pass",
                            lambda p: calls.append(p) or _upward_pass(p))
        p = from_graph(product_spheres_graph(n, m))
        assert is_homology_manifold(p)
        assert eliminated_cells(p) == set()
        assert calls == []

    @pytest.mark.parametrize("poset", [
        lambda: from_graph(product_spheres_graph(1, 2)),
        lambda: cross_polytope_quotient(4),
        lambda: unmarked(from_graph(product_spheres_graph(2, 2)))])
    def test_no_certificate_below_d_5_or_on_an_unmarked_poset(self, poset):
        with mock.patch.object(homology, "_certified") as certified:
            assert is_homology_manifold(poset())
        certified.assert_not_called()

    def test_a_refused_residue_falls_back_to_elimination(self, monkeypatch):
        # greedy's bound, V^2 (d - 1)/4 dipole tests for the table of V
        # facets of each color, is lowered below it: the first table is
        # refused, the links are eliminated, and the verdict holds.  Colors
        # 1 and d leave this graph connected, so a table's bound is its
        # largest residue's
        p = from_graph(product_spheres_graph(2, 2))
        bounds, cancel = [], reduction._cancel_greedily
        monkeypatch.setattr(
            reduction, "_cancel_greedily", lambda t, by_type: bounds.append(
                t.live ** 2 * t.d // 4) or cancel(t, by_type))
        assert homology._certified(p)
        assert bounds == [24 ** 2 * 4 // 4] * p.d
        monkeypatch.setattr(posets, "MAX_OUTPUT_SIZE", max(bounds) - 1)
        assert not homology._certified(p)
        assert assert_certificate_changes_nothing(p)
        assert eliminated_cells(p) == set().union(*p.cells_by_rank[1:p.d - 3])

    def test_the_bound_counts_every_facet_of_a_split_graph(self,
                                                           monkeypatch):
        # every color leaves several residues, so the table's bound is
        # above every residue's: lowered between them, it refuses the
        # certificate of a manifold that cancels, and the elimination
        # gives the verdict
        g = every_color_split()
        d, v = g.d, len(g.vertices)
        sizes = [Counter(bfs_roots(g, set(range(1, d + 1)) - {c})).values()
                 for c in range(1, d + 1)]
        assert min(map(len, sizes)) > 1
        p = from_graph(g)
        assert homology._certified(p)
        monkeypatch.setattr(posets, "MAX_OUTPUT_SIZE",
                            v * v * (d - 1) // 4 - 1)
        largest = max(map(max, sizes))
        assert largest ** 2 * (d - 1) // 4 <= posets.MAX_OUTPUT_SIZE
        assert not homology._certified(p)
        assert assert_certificate_changes_nothing(p)

    @pytest.mark.parametrize("graph", [
        lambda: product_spheres_graph(2, 2),
        lambda: next(g for g in census_graphs(5, 6)
                     if not is_homology_manifold(from_graph(g)))])
    def test_no_graph_is_built_and_no_admissibility_walk_runs(self, graph):
        # the certificate cancels on the rows it rebuilt from the poset
        g = graph()
        p = from_graph(g)
        with mock.patch.object(graphs, "_admissibility",
                               wraps=graphs._admissibility) as walk, \
                mock.patch.object(ColoredGraph, "__post_init__",
                                  autospec=True,
                                  side_effect=ColoredGraph.__post_init__
                                  ) as built:
            is_homology_manifold(p)
            assert (walk.call_count, built.call_count) == (0, 0)
            # the patches see a walk and a build
            require_admissible(shuffled(g, 1))
            assert (walk.call_count, built.call_count) == (1, 1)


def residues_one_by_one(g: ColoredGraph, c: int, by_type: bool) -> dict:
    """Reference for the certificate's cancellation of `g` without color c:
    each residue, a component of the graph without c, as its own graph
    whose vertices are named by their index in `g`, in ascending order, and
    cancelled greedily, by `greedy_reduce` for the index key.  Maps each
    residue's least vertex to its cancelled index pairs, in order, and its
    final vertex count."""
    others = [k for k in range(1, g.d + 1) if k != c]
    partner, residues, out = require_admissible(g), {}, {}
    for v, root in enumerate(bfs_roots(g, others)):
        residues.setdefault(root, []).append(v)
    for root, vertices in residues.items():
        h = ColoredGraph(g.d - 1, tuple(map(str, vertices)), tuple(
            (str(v), str(partner[k - 1][v]), color)
            for color, k in enumerate(others, start=1)
            for v in vertices if v < partner[k - 1][v]))
        if by_type:
            t = _Table(require_admissible(h), h.vertices, h.edges)
            _cancel_greedily(t, by_type=True)
            final, steps = t.graph(), t.steps
        else:
            final, steps = greedy_reduce(h)
        out[root] = ([tuple(map(int, s.pair)) for s in steps],
                     len(final.vertices))
    return out


def one_table(g: ColoredGraph, c: int, by_type: bool) -> dict:
    """The certificate's cancellation of `g` without color c, on one table
    of the other colors' rows over all vertices, read per residue as
    :func:`residues_one_by_one` gives it."""
    roots = bfs_roots(g, set(range(1, g.d + 1)) - {c})
    partner = require_admissible(g)
    t = _Table(partner[:c - 1] + partner[c:], range(len(g.vertices)), ())
    _cancel_greedily(t, by_type)
    out = {root: ([], 0) for root in roots}
    for s in t.steps:
        out[roots[s.pair[0]]][0].append(s.pair)
    for v in compress(range(len(roots)), t.alive):
        pairs, live = out[roots[v]]
        out[roots[v]] = pairs, live + 1
    return out


class TestOneTablePerColor:
    """The certificate cancels each color's residues on one table over all
    facets; cancelling each residue as its own graph, as the certificate
    did before, is the oracle.  Each residue makes the same cancellations,
    in the same order, with either key, and a residue of two vertices, a
    full-type dipole, is kept, not refused."""

    @staticmethod
    def assert_alike(g: ColoredGraph) -> int:
        """Checks `g` and returns the count of its two-vertex residues."""
        finals = []
        for c in range(1, g.d + 1):
            for by_type in (False, True):
                expected = residues_one_by_one(g, c, by_type)
                assert one_table(g, c, by_type) == expected, (g, c, by_type)
            finals += expected.values()
        assert homology._certified(from_graph(g)) == all(
            n == 2 for _, n in finals)
        return sum(not steps and n == 2 for steps, n in finals)

    @pytest.mark.parametrize("inputs", [
        lambda: census_graphs(5, 4), lambda: census_sample(5, 6, 100)])
    def test_the_census(self, inputs):
        # some residues are two vertices from the start
        assert sum(map(self.assert_alike, inputs())) > 0

    @pytest.mark.parametrize("n,m", [(1, 3), (2, 2), (1, 4), (2, 3),
                                     (1, 5), (2, 4), (3, 3)])
    def test_products(self, n, m):
        self.assert_alike(product_spheres_graph(n, m))

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_projective_spaces(self, n):
        self.assert_alike(_rp_graph(n))

    def test_a_graph_every_color_splits(self):
        self.assert_alike(every_color_split())
