"""Reduced GF(2) homology of simplicial posets, h''-vectors, and the
homology manifold predicate.

`betti_gf2` works on the cellular chain complex read off the cover
relation.  Matrices over GF(2) are bit-packed: a row is a Python int,
elimination is XOR.  Everything here is exact integer arithmetic.

`betti_gf2` eliminates the degrees from the top down with clearing (the
"twist" of Chen and Kerber, *Persistent homology computation with a
twist*).  Each pivot q of the degree-(k+1) elimination is the highest
bit of a reduced row z, a sum of boundaries of rank-(k+1) cells.  The
boundary of z is zero, so row q of the degree-k map is the sum of the
rows at the other bits of z, all below q.  The pivots are distinct, so
those z and the unit vectors off the pivots form a triangular basis of
all k-chains, and the degree-k rank is the rank of the rows off the
pivots: the pivot rows are never reduced, nor built, as each degree's
rows are built when the elimination reads them.  This rests on the
boundary squaring to zero, so on `p` being simplicial, which every engine
but `validate_poset` learns from `_require_simplicial` alone: `from_graph`
marks its output simplicial by construction (see `posets`), and
`_check_simplicial` proves any other poset one.

The link predicate `is_homology_manifold` needs the homology of the link
of every cell c, the interval above it (Björner, *Posets, regular CW
complexes and Bruhat order*): the up-set U of c, ranks shifted down by
rank(c).  Its augmented complex is the quotient of the parent's by the
span of the cells outside U, a down-set and so a subcomplex, with c as
augmentation generator.  `link_bettis` eliminates each link's coboundary
rows, on two facts.

* No mask is needed.  The transposed degree-t link matrix has one row per
  cell y of U of link rank t-1: the cells of U that cover y.  A cell that
  covers y lies above c, so it is in U, and the row is the parent's
  coboundary row of y, whole.  A matrix and its transpose have one rank.
* Clearing works bottom-up, by the argument above on cochains.  The
  link's cochains are the parent's cochains on U, which the parent's
  coboundary, squaring to zero, keeps on U, as U is an up-set; a pivot of
  the degree-t coboundary elimination is the highest bit of a cocycle, so
  its row of degree t+1 is skipped (the cohomology clearing of de Silva,
  Morozov and Vejdemo-Johansson, *Dualities in persistent (co)homology*).

`link_bettis` runs `_require_simplicial` on the parent, as `betti_gf2`
does; `_upward_pass` then builds every rank's coboundary rows in one walk
of the poset's `_up_table`.  Each up-set grows a rank at a time through
the table, and `_cleared_ranks` runs from degree 2 up: degree 1 is c's row
alone, of rank 1 when c has coverers, and their rows, of degree 2, sum to
its coboundary, zero, so one of them is dropped.  Nothing is checked per
link: every interval of a simplicial poset is boolean, so every link is a
simplicial poset.

Each link is eliminated only up to its middle, by Poincaré duality
(Munkres, *Elements of Algebraic Topology*, 1984, §63-65).  Let a cell c
of rank k >= 1 have link dimension e = d - k - 1; `link_bettis` yields
beta_0 .. beta_s, s = floor(e/2), of its link L, and c passes the cut
check when that is the sphere pattern cut to length s + 1: (1,) for
e = 0, zeros otherwise.

  Lemma.  Let p be simplicial, let every cell above c pass the cut check
  and every maximal cell >= c have rank d.  Then L is a closed
  GF(2)-homology e-manifold, a homology e-sphere if c passes too.

Proof, by induction on e.  For e <= 0 the cut vector is the whole one.
Let e >= 1.  Then c is not maximal, so L is a nonempty pure simplicial
poset of rank e + 1.  By induction the link of each cell x above c, in L
as in p, is a homology sphere.  In the order complex of L minus c, the
link of a chain x_1 < ... < x_m is the join of the order complexes of the
open intervals (c, x_1), ..., (x_{m-1}, x_m), simplex boundaries as the
intervals are boolean, with that of the link of x_m minus x_m: a homology
(e - m)-sphere.  So L is a closed GF(2)-homology e-manifold, and duality
over the field GF(2), which needs no orientation, gives b_i = b_{e-i} for
its unreduced Betti numbers.  If c passes, beta_0 = 0 makes L connected,
so beta_e = b_0 = 1, and beta_i = b_{e-i} = 0 for ceil(e/2) <= i < e, as
1 <= e - i <= floor(e/2).  QED.

So on a pure p the cut check is as strong as the whole one, in any order.
Purity is needed: a maximal cell of rank below d - 1 has an empty link,
whose cut vector is all zeros.  `is_homology_manifold` therefore checks
it.

The lemma also gives the middle of an even link.  Call a cell unsound
when it fails the cut check, is maximal of rank below d, or is
covered by an unsound cell; and c clean when it has coverers, none of
them unsound.  Then the lemma makes the link of a clean c a closed
homology e-manifold, perhaps disconnected.  For e = 2s >= 2, b_i = b_{e-i}
folds its Euler characteristic into chi = 2 sum_{i<s} (-1)^i b_i +
(-1)^s b_s, so beta_s = b_s follows from chi and beta_0 .. beta_{s-1}
(b_0 = beta_0 + 1), and degree s + 2 is not eliminated.  `link_bettis`
marks the unsound cells as it yields them, rank by rank, so its vectors
are those of the whole elimination on every simplicial poset.  Every
interval [c, x] of rank t is boolean, with t! maximal chains, so c has
t! N_t chains of covers up t ranks, N_t the number of cells t ranks
above it; they run through the cells covering c, so one pass from rank d
down counts them for all cells, and chi = sum_{t>=1} (-1)^(t-1) N_t.

A poset `from_graph` marked has two kinds of link read off: the link of
its cell (H, S) is the cell poset of the residue H (see `posets`).

  Lemma.  On a graph poset every cell of rank >= d - 2 passes the cut
  check, and the link of a cell of rank d - 3 is a connected closed
  surface, of cut vector (0, 2 - chi).

Proof.  A facet passes, and a ridge, an edge of the loopless graph, has
its two ends for coverers.  For |S| = 2 the residue H is a bicolored
cycle, so the link is a polygon, a circle: (0,).  Every cell lies below
a facet, so the cells of rank d - 3 are clean, and the lemma above makes
their links closed homology surfaces, connected as H is.  QED.

A marked poset of d >= 5 first tries `_certified`: for each color c,
greedy, highest type first, cancels one table of the other colors' rows
over all V facets, whose components, the residues without c, are the
links of rank-1 cells; a dipole test searches one component, so each is
cancelled as it would be alone.  Dipole moves keep Betti numbers and the
manifold verdict (Lemmas A and B of `reduction`), so if each residue ends
at two vertices, a sphere, the poset, pure as each cell lies below a
facet, is a homology manifold, and every link a homology sphere: each cell
gets the sphere's cut vector, exact, with no elimination.  The certified
path reads only the facets' covers: facet i is vertex i, its covers its
ridges by color, and a ridge lies in two facets, so sorting all facets'
ridges by id pairs the facets into the partner rows; no position or up
table is built, and each rank's cells share one cut vector.
Otherwise, or if greedy's bound of V^2 (d - 1)/4 tests refuses a table,
the links are eliminated as above.  That bound is the largest residue's
where a color leaves the graph connected, as on products and RP^n.  For
d <= 4 every link of a marked poset is read off already.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, compress, repeat
from math import factorial

from .posets import SimplicialPoset, _require_row_bits, f_vector, is_pure

def _pivots(rows) -> dict[int, int]:
    """Gaussian elimination of bit-packed GF(2) rows, keyed by pivot: the
    bit length of each reduced nonzero row, its highest set bit plus one,
    which `int.bit_length` reads without building a row-wide int."""
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length()
            other = basis.get(top)
            if other is None:
                basis[top] = row
                break
            row ^= other
    return basis


def _cleared_ranks(
        degrees: Iterable[tuple[Iterable[int], Sequence[int]]]) -> list[int]:
    """Ranks of the maps of a complex that squares to zero, in the order
    given, by elimination with clearing: a row whose position is a pivot
    of the degree before, the highest bit of one of its reduced rows, is
    skipped.  The boundary rows run from the top degree down (see
    :func:`betti_gf2`), the coboundary rows of a link from degree 2 up
    (see the module docstring).

    ``degrees`` gives each degree as the positions of its rows and a table
    of rows by position, read at the kept positions only: a row's position
    is its cell's bit in the rows of the degree before.
    """
    ranks: list[int] = []
    cleared: set[int] = set()
    for positions, rows in degrees:
        # keep the pivot positions only (a key is its position plus one),
        # so that one degree's rows, as read and as reduced, are freed
        # before the next degree's are read
        cleared = {key - 1 for key in _pivots(
            [rows[i] for i in positions if i not in cleared])}
        ranks.append(len(cleared))
    return ranks


class _RowsOnDemand:
    """The boundary rows of `cells`, one rank of `p`, each built when
    read: item i has a bit at the position of each cover of the i-th cell."""
    __slots__ = ("cells", "covers", "pos")

    def __init__(self, p: SimplicialPoset, cells):
        self.cells, self.covers, self.pos = cells, p.covers, p._positions

    def __getitem__(self, i: int) -> int:
        row, pos = 0, self.pos
        for j in self.covers[self.cells[i]]:
            row |= 1 << pos[j]
        return row


def _betti_from_ranks(dims, ranks) -> tuple[int, ...]:
    """Reduced Betti numbers (degrees 0..n-1) of an augmented complex from
    its cell counts ``dims[0..n]`` and the ranks ``ranks[k-1]`` of its
    degree-k boundary maps: beta_i is dims[i+1] minus the ranks of the
    maps of degrees i+1 and i+2 (kernel minus image).  ``ranks`` runs to
    degree n, or to n + 1 for a complex cut above rank n; a map past its
    end is zero."""
    return tuple(dims[i + 1] - ranks[i]
                 - (ranks[i + 1] if i + 1 < len(ranks) else 0)
                 for i in range(len(dims) - 1))


def _check_simplicial(p: SimplicialPoset) -> None:
    """Prove `p` simplicial in one walk over the covers, or raise
    ValueError ("not a simplicial poset: ...") at the first cell where the
    proof fails.  For each cell c of rank k >= 2 the walk checks two
    things:

    * the boundary of the boundary of c is zero (over GF(2));
    * the vertex-set law: c's k covers carry k distinct (k-1)-subsets
      of a k-element vertex set, the union of theirs.

    The two make every lower interval [0, c] boolean, by induction on
    k (Björner, *Posets, regular CW complexes and Bruhat order*);
    ranks 0 and 1 are boolean by the constructor's checks.  Let the
    covers b_1, ..., b_k of c have boolean lower intervals, with
    V(b_i) = V(c) - {v_i}.  For i != j, b_i and b_j each have exactly
    one face with vertex set V(c) - {v_i, v_j}, and no other cover of
    c has one.  Were the two faces different, each would be covered
    by one cover of c only, and the boundary of the boundary of c
    would be nonzero; so they are one cell a_ij.  Now let x <= b_i and
    y <= b_j have the same vertex set.  For i != j it misses v_i and
    v_j, so x and y lie below a_ij, as [0, b_i] and [0, b_j] are
    boolean; in the boolean [0, a_ij], or [0, b_i] when i = j, they
    are then equal.  So the cells below c correspond one to one to the
    subsets of V(c), with x <= y exactly when V(x) is a subset of
    V(y): [0, c] is the boolean lattice on V(c).

    The boundary rows, as `betti_gf2` builds them, and the vertex sets,
    bitmasks over the rank-1 cells, are kept for two adjacent ranks only,
    and neither is returned.  The caller refuses a poset whose rows would
    pass ``MAX_ROW_BITS`` before the walk reads `p._positions`.
    """
    by_rank, covers, pos = p.cells_by_rank, p.covers, p._positions
    # a rank-1 cell covers the minimum, and is its own vertex set
    rows = [1] * len(by_rank[1]) if p.d else []
    verts = [1 << i for i in range(len(rows))]
    for k in range(2, p.d + 1):
        lower, lower_verts = rows, verts
        rows, verts = [], []
        for c in by_rank[k]:
            row = image = union = 0
            common = -1
            for j in covers[c]:
                i = pos[j]
                v = lower_verts[i]
                row |= 1 << i
                image ^= lower[i]
                union |= v
                common &= v
            if image:
                raise ValueError(
                    "not a simplicial poset: boundary squared is "
                    f"nonzero at cell {c}; lower intervals are not "
                    "boolean")
            # k (k-1)-sets in a k-set are distinct iff no point lies
            # in all of them
            if common or union.bit_count() != k:
                distinct = len({lower_verts[pos[j]] for j in covers[c]})
                raise ValueError(
                    f"not a simplicial poset: cell {c} (rank {k}) has "
                    f"{union.bit_count()} vertices and {distinct} distinct "
                    f"vertex sets among its covers, expected {k} of each")
            rows.append(row)
            verts.append(union)


def _require_simplicial(p: SimplicialPoset) -> bool:
    """The one gate of `betti_gf2`, the link test and connected sums:
    refuse `p` when its boundary rows would pass ``MAX_ROW_BITS``, then,
    unless `from_graph` marked it simplicial by construction, when
    :func:`_check_simplicial` finds it is not.  Returns the mark, which no
    other code here reads."""
    _require_row_bits(p)
    proved = p._proved
    if not proved:
        _check_simplicial(p)
    return proved


def validate_poset(p: SimplicialPoset) -> list[str]:
    """The violation of a simplicial poset: the first cell where
    :func:`_check_simplicial` finds a lower interval that is not boolean,
    on every poset, marked or not.  Empty when `p` is simplicial.  A poset
    whose boundary rows would pass ``MAX_ROW_BITS`` raises ValueError: it
    is too large to check, which is no violation."""
    _require_row_bits(p)
    try:
        _check_simplicial(p)
    except ValueError as exc:
        return [str(exc)]
    return []


def betti_gf2(p: SimplicialPoset) -> tuple[int, ...]:
    """Reduced GF(2) Betti vector (beta_0, ..., beta_{d-1}) of the poset,
    from the ranks of its boundary maps, eliminated from the top degree
    down with clearing (see the module docstring).  After
    :func:`_require_simplicial`, which raises ValueError when `p` is not
    simplicial, as the sphere and manifold tests do, each degree's rows
    are built as the elimination reads them, the cleared ones never."""
    _require_simplicial(p)
    ranks = _cleared_ranks(
        (range(len(cells)), _RowsOnDemand(p, cells))
        for cells in p.cells_by_rank[:0:-1])
    return _betti_from_ranks(f_vector(p), ranks[::-1])


# --- h'' vectors ---------------------------------------------------------------

def _binomials(n: int, stop: int) -> list[int]:
    """C(n, 0), ..., C(n, stop) as one running row: O(stop) products with
    small ints, where a `comb` per entry makes the row quadratic."""
    row = [1]
    for k in range(stop):
        row.append(row[-1] * (n - k) // (k + 1))
    return row


def h_double_prime(h: tuple[int, ...], betti: tuple[int, ...]) -> tuple[int, ...]:
    """h''-vector from an h-vector and reduced Betti numbers.

    h''_0 = 1; for 0 < k < d, h''_k = h_k - C(d,k) * a_k with
    a_k = sum_{l=1..k} (-1)^(k-l) betti_{l-1}; h''_d = betti_{d-1}.
    The sums run as a_k = betti_{k-1} - a_{k-1} beside one binomial row,
    so the transform takes O(d) steps.
    """
    d = len(h) - 1
    if len(betti) != d:
        raise ValueError(
            f"betti vector has length {len(betti)}, expected {d}")
    binomials = _binomials(d, d - 1)
    out, a = [1], 0
    for k in range(1, d):
        a = betti[k - 1] - a
        out.append(h[k] - binomials[k] * a)
    if d >= 1:
        out.append(betti[d - 1])
    return tuple(out)


# --- the homology manifold predicate --------------------------------------

def _sphere_cut(n: int) -> tuple[int, ...]:
    """The cut vector of a sphere link with n = d - rank Betti numbers: a
    vector passes the cut check (see the module docstring) iff it is this."""
    return (1,) if n == 1 else (0,) * ((n + 1) // 2)


def is_homology_manifold(p: SimplicialPoset) -> bool:
    """True iff the poset is pure and every vertex link is a homology
    sphere over GF(2).

    Since a link of a link is a link of the ambient poset, the vertex-link
    condition unfolds to: every cell of rank >= 1 has a sphere-patterned
    link.  What is checked is the lower half of each link's vector,
    beta_0 .. beta_{floor(e/2)} for a link of dimension e (see
    :func:`link_bettis`): on a pure poset, the duality lemma of the module
    docstring shows that every link passes this cut check exactly when
    every link is a homology sphere.  The call :func:`link_bettis`
    refuses `p` unless simplicial (:func:`_require_simplicial`); purity
    (a coverer for each cell below rank d) is then read from the covers
    by :func:`is_pure`, and only a pure `p` has its links computed: by the
    certificate of the module docstring, if it holds, else in one
    :func:`_upward_pass`, the only step that builds `p._up_table`.  Each
    vector is compared with its rank's entry in one table of cut
    vectors."""
    links = link_bettis(p)
    cuts, ranks = [_sphere_cut(p.d - k) for k in range(p.d + 1)], p.ranks
    return is_pure(p) and all(betti == cuts[ranks[c]] for c, betti in links)


def _upward_pass(p: SimplicialPoset) -> tuple[list, list, int]:
    """One walk of `p._up_table` from rank d down, `p` simplicial: the
    coboundary rows (item r holds, for the i-th rank-r cell, its coverers'
    positions as bits), and item [k][j] packing t! N_t, the chains of
    covers from the j-th cell of rank k up t ranks (see the module
    docstring), in field t.  No field passes max(f) * d!, which gives the
    width, returned too."""
    up = p._up_table
    width = (max(map(len, up)) * factorial(p.d)).bit_length()
    cob, chains = [[]], [[]]            # no rows or items above rank d
    for level in reversed(up):
        bits = [1 << i for i in range(len(cob[-1]))]
        get, rows, counts = chains[-1].__getitem__, [], []
        for cov in level:
            row = 0
            for i in cov:
                row |= bits[i]
            rows.append(row)
            counts.append(sum(map(get, cov)) << width | 1)
        cob.append(rows)
        chains.append(counts)
    return cob[:0:-1], chains[:0:-1], width


def _face_counts(chains: int, width: int, n: int) -> tuple[int, ...]:
    """N_0 .. N_n, the cells 0 .. n ranks above a cell, from its packed
    chain counts (:func:`_upward_pass`)."""
    mask, t_factorial, counts = (1 << width) - 1, 1, [1]
    for t in range(1, n + 1):
        t_factorial *= t
        counts.append((chains >> t * width & mask) // t_factorial)
    return tuple(counts)


def link_bettis(p: SimplicialPoset) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield (cell, the lower half of the reduced GF(2) Betti vector of its
    link) for every cell of rank >= 1, from rank d down, the link being the
    interval above the cell.

    For a cell of rank k the link has dimension e = d - k - 1, and the
    vector is beta_0 .. beta_s, s = floor(e/2); on a pure poset whose every
    link passes the cut check, duality fixes the rest (see the module
    docstring).  Facets and ridges are read off: () and
    (max(coverers - 1, 0),); on a graph poset (module docstring), so are
    the cells of rank d - 2 and d - 3: (0,) and (0, 2 - chi).  A clean
    cell of even e >= 2 has its up-set grown to link rank s, the degrees
    up to s + 1 eliminated, and beta_s from the Euler characteristic.  Any
    other cell has its up-set grown to link rank s + 1 and the degrees up
    to min(s + 2, e + 1) eliminated.

    Each link is eliminated on the parent's coboundary rows, unmasked, with
    clearing (see the module docstring), sound on simplicial posets only:
    the call runs :func:`_require_simplicial`, which raises
    :func:`betti_gf2`'s error on any other poset, and the first item runs
    :func:`_upward_pass`, which builds those rows from `p._up_table`,
    unless the certificate of the module docstring gives every cell the
    sphere's cut vector: that path reads only the facets' covers and
    builds no table."""
    return _link_bettis(p, _require_simplicial(p))


def _link_bettis(p: SimplicialPoset, proved: bool) -> Iterator[tuple]:
    """:func:`link_bettis` on `p`, proved simplicial, with the gate's mark."""
    by_rank = p.cells_by_rank
    if proved and p.d >= 5 and _certified(p):
        for k in range(p.d, 0, -1):
            yield from zip(by_rank[k], repeat(_sphere_cut(p.d - k)))
        return
    up = p._up_table
    cob, chains, width = _upward_pass(p)
    unsound: set[int] = set()           # positions in the rank above
    for k in range(p.d, 0, -1):
        n = p.d - k
        s, odd = divmod(n - 1, 2)           # e = n - 1 = 2s + odd
        ups, cobs, below = up[k + 1:p.d], cob[k + 1:p.d], set()
        for j, c in enumerate(by_rank[k]):
            cov = up[k][j]
            tainted = not unsound.isdisjoint(cov)
            euler = n > 1 and bool(cov) and not (odd or tainted)
            if n < 2:   # a facet's link is empty, a ridge's len(cov) points
                betti = (max(len(cov) - 1, 0),)[:n]
            elif proved and n < 4:  # a circle, or a surface: beta_0 = 0
                betti = (0,)
            else:
                # levels[t - 1]: the positions of the link's rank-t cells
                levels = [cov]
                for level in ups[:s - 1 + (not euler)]:
                    levels.append(set().union(*[level[i] for i in levels[-1]]))
                # degree t + 1 >= 2: the coboundary rows of levels[t - 1],
                # one of c's coverers dropped
                ranks = [1 if cov else 0,
                         *_cleared_ranks(zip([cov[1:], *levels[1:]], cobs))]
                betti = _betti_from_ranks([1, *map(len, levels)], ranks)
            if euler:
                n_t = _face_counts(chains[k][j], width, n)
                # (-1)^s beta_s = chi - 2 - 2 sum_{i<s} (-1)^i beta_i
                rest = (sum(n_t[1::2]) - sum(n_t[2::2]) - 2
                        - 2 * (sum(betti[::2]) - sum(betti[1::2])))
                betti += (-rest if s % 2 else rest,)
            yield c, betti
            if tainted or (n and not cov) or betti != _sphere_cut(n):
                below.add(j)
        unsound = below


def _certified(p: SimplicialPoset) -> bool:
    """Whether every vertex link of `p`, a poset `from_graph` marked,
    cancels greedily to two vertices (module docstring)."""
    # `reduction` imports this module via `constructions`
    from .reduction import _cancel_greedily, _Table
    d, facets = p.d, p.cells_by_rank[p.d]
    # facet i is vertex i, its covers its ridges by color (`posets`), so
    # item i d + c is vertex i's ridge of color c; a ridge lies in two
    # facets, so sorted by ridge id the items pair off
    ridges = list(chain.from_iterable(map(p.covers.__getitem__, facets)))
    order = sorted(range(len(ridges)), key=ridges.__getitem__)
    mates = [0] * len(ridges)
    for a, b in zip(order[::2], order[1::2]):
        mates[a], mates[b] = b // d, a // d
    vertices = range(len(facets))
    for c in range(d):
        # each table cancels its own copies of the other colors' rows
        t = _Table([mates[k::d] for k in range(d) if k != c], vertices, ())
        try:
            _cancel_greedily(t, by_type=True)
        except ValueError:      # refused
            return False
        # a residue of two vertices has one partner in every row
        if any(len(set(partners)) > 1
               for partners in compress(zip(*t.partner), t.alive)):
            return False
    return True
