"""The stacked slab step (geomkernel._slab_pieces) against the per-cell
clipper it replaced in the grid splitter, ``_clip`` with each slab's walls,
and against itself cutting each piece of a stack alone.

Against the clipper the outputs agree within rounding, not bit for bit: a
slab's cut points are interpolated along the polytope's own edges, where the
per-cell clipper interpolated the second wall's cut points along the edges of
the piece the first wall left.  So the checks are equal piece counts, order
and rows, vertex sets equal within 1e-12, and masses and centroids within
1e-12.  Against each piece cut alone they agree bit for bit."""

import itertools

import numpy as np
import pytest

from movingbeliefs import geomkernel as gk
from test_beliefs import angle_ring, convex_points, random_grid_pieces
from test_clip import _box, _random_rows

TOL = gk.DEFAULT_TOL.feas_tol


def _per_cell_pieces(V, rows, u, g, tol):
    """The per-cell reference: one ``_clip`` per slab with its walls."""
    walls = [[(u, g[0])], *([(-u, -a), (u, b)] for a, b in zip(g[:-1], g[1:])), [(-u, -g[-1])]]
    return [(W, rows + cut) for cut in walls if (W := gk._clip(V, rows, cut, tol)) is not None]


def _stack(pieces):
    """The stack (T, n, N, C) of the pieces [(W, N, C)], the rows padded
    with 0 . y <= 1 to one count."""
    r = max(len(Cq) for _, _, Cq in pieces)
    N, C = np.zeros((len(pieces), r, pieces[0][0].shape[1])), np.ones((len(pieces), r))
    for q, (_, Nq, Cq) in enumerate(pieces):
        N[q, : len(Cq)], C[q, : len(Cq)] = Nq, Cq
    return np.vstack([W for W, _, _ in pieces]), np.array([len(W) for W, _, _ in pieces]), N, C


def _unstack(T, n, N, C):
    """The pieces [(W, N, C)] of a stack, pad rows left out."""
    real = N.any(axis=2)
    return [(W, Nq[m], Cq[m]) for W, Nq, Cq, m in zip(np.split(T, np.cumsum(n)[:-1]), N, C, real)]


def _slab_split(V, rows, axes):
    """Pieces of (V, rows) between the lines u . t = g of every (u, g) in
    ``axes``, axis by axis as ``beliefs._grid_pieces`` cuts them."""
    stack = _stack([(V, np.array([r[0] for r in rows]), np.array([r[1] for r in rows]))])
    for u, g in axes:
        stack = gk._slab_pieces(*stack, u, g, TOL)
    return _unstack(*stack)


def _per_cell_split(V, rows, axes):
    pieces = [(V, rows)]
    for u, g in axes:
        pieces = [q for W, r in pieces for q in _per_cell_pieces(W, r, u, g, TOL)]
    return pieces


def _moments(W):
    k = W.shape[1]
    S, vols = gk._simplex_volumes(W, k, angle_ring(W))
    return vols.sum(), vols @ W[S].mean(axis=1) / vols.sum()


def _check(V, rows, axes):
    got = _slab_split(V, rows, axes)
    want = _per_cell_split(V, rows, axes)
    assert len(got) == len(want)
    for (W, N, C), (W0, r0) in zip(got, want):
        assert len(C) == len(r0)
        assert all(np.array_equal(a, b[0]) and c == b[1] for a, c, b in zip(N, C, r0))
        assert W.shape == W0.shape
        dist = np.linalg.norm(W[:, None] - W0[None], axis=-1)
        assert dist.min(axis=0).max() <= 1e-12 and dist.min(axis=1).max() <= 1e-12
        if np.linalg.matrix_rank(W - W[0], tol=1e-9) == W.shape[1]:
            (m, c), (m0, c0) = _moments(W), _moments(W0)
            assert abs(m - m0) <= 1e-12
            np.testing.assert_allclose(c, c0, rtol=0, atol=1e-12)
    return got


def _lines(rng, V, u):
    """Two to six evenly spaced lines across the extent of V along u."""
    p = V @ u
    n = rng.integers(2, 7)
    return p.min() + (p.max() - p.min()) * (np.arange(n) + rng.uniform(0.1, 0.9)) / n


def _unit(rng, d):
    u = rng.standard_normal(d)
    return u / np.linalg.norm(u)


@pytest.mark.parametrize("d", (2, 3, 4))
@pytest.mark.parametrize("kind", ("generic", "dyadic", "apex", "duplicated"))
def test_slab_pieces_match_per_cell_clipping(d, kind):
    rng = np.random.default_rng([d, len(kind), 29])
    for _ in range(8):
        V, base = _box(d, False)
        rows = _random_rows(rng, d, kind, False)
        V = gk._clip(V, base, rows, TOL)
        if V is None:
            continue
        rows = base + [r for r in rows if any(r[0])]
        axes = []
        for u in (np.eye(d)[rng.integers(d)], _unit(rng, d)):
            axes.append((u, _lines(rng, V, u)))
        _check(V, rows, axes)


def _polygon(points):
    R = gk.from_vrep(points)
    return R, R.vertices_frame, list(zip(*R.intrinsic_facets))


def _axis_lines(R, j, xs):
    """The ambient lines x_j = xs as (unit row, offsets) in R's frame."""
    B, o = R.frame.basis, R.frame.origin
    ln = np.linalg.norm(B[j])
    return B[j] / ln, (np.asarray(xs, dtype=float) - o[j]) / ln


def test_vertex_on_a_line_and_within_tol_of_one():
    """A diamond with two vertices exactly on the line x = 0.5 and one
    0.5 feas_tol right of the line x = 0.25: each such vertex is in the
    slabs on both sides, and no edge through it is cut at its line."""
    R, V, rows = _polygon([(0.5, 0.0), (1.0, 0.5), (0.5, 1.0), (0.25 + 0.5 * TOL, 0.5)])
    u, g = _axis_lines(R, 0, [0.25, 0.5, 0.75])
    pieces = _check(V, rows, [(u, g)])
    assert len(pieces) == 4  # the vertex near x = 0.25 alone, then three slabs
    assert len(pieces[0][0]) == 1


def test_edge_crossing_many_lines():
    R, V, rows = _polygon([(0.02, 0.1), (0.98, 0.2), (0.5, 0.9)])
    u, g = _axis_lines(R, 0, np.arange(1, 10) / 10)
    pieces = _check(V, rows, [(u, g), _axis_lines(R, 1, np.arange(1, 10) / 10)])
    assert len(pieces) > 20


def test_line_touching_one_vertex():
    """The line x = 0.25 meets the triangle only at its left vertex, which
    is a slab of its own, as with the per-cell clipper."""
    R, V, rows = _polygon([(0.25, 0.5), (1.0, 0.0), (1.0, 1.0)])
    pieces = _check(V, rows, [_axis_lines(R, 0, [0.25, 0.5, 0.75])])
    assert [len(W) for W, _, _ in pieces] == [1, 3, 4, 4]


@pytest.mark.parametrize("shift", (0.0, -0.25))
def test_unit_cube_faces_on_grid_planes(shift):
    """The unit cube at resolution 0.25 with lines on its faces: every
    cell is one piece, and the faces on the outer lines are pieces too."""
    R = gk.from_vrep(list(itertools.product([shift, 1.0 + shift], repeat=3)))
    V, rows = R.vertices_frame, list(zip(*R.intrinsic_facets))
    axes = [_axis_lines(R, j, np.arange(-4, 9) / 4) for j in range(3)]
    pieces = _check(V, rows, axes)
    full = [W for W, _, _ in pieces if np.linalg.matrix_rank(W - W[0], tol=1e-9) == 3]
    assert len(full) == 64 and all(len(W) == 8 for W in full)


def test_line_grazing_an_edge_merges_its_cut_points():
    """The line x = -1 + 2e-9 cuts the square [-1, 2]^2 within the merge
    distance 3e-9 of its left edge: the sliver's cut points merge with the
    corners, leaving the two corners, as the per-cell clipper's dedup does."""
    V, rows = _box(2, False)
    pieces = _check(V, rows, [(np.array([1.0, 0.0]), np.array([-1.0 + 2e-9, 0.5]))])
    assert [len(W) for W, _, _ in pieces] == [2, 4, 4]


@pytest.mark.parametrize("d", (2, 3))
@pytest.mark.parametrize("seed", range(4))
def test_stacked_cut_matches_each_piece_cut_alone(d, seed):
    """The pieces of three random polytopes, of mixed row counts, cut
    together by lines across them and by three lines within 1e-8 of
    vertices: the same vertices and (pad rows aside) the same rows, bit for
    bit and in (piece, slab) order, as cutting each piece alone."""
    rng = np.random.default_rng([d, seed, 31])
    pieces = []
    for _ in range(3):
        pieces += _unstack(*random_grid_pieces(rng, gk.from_vrep(convex_points(rng, int(rng.integers(5, 12)), d))))
    assert len({len(C) for _, _, C in pieces}) > 1
    u = _unit(rng, d)
    p = np.vstack([W for W, _, _ in pieces]) @ u
    near = rng.choice(p, 3) + rng.choice([-1.0, 1.0], 3) * 10.0 ** rng.uniform(-9.5, -8.0, 3)
    g = np.sort(np.concatenate([np.linspace(p.min(), p.max(), 7)[1:-1], near]))
    got = _unstack(*gk._slab_pieces(*_stack(pieces), u, g, TOL))
    want = [q for piece in pieces for q in _unstack(*gk._slab_pieces(*_stack([piece]), u, g, TOL))]
    assert len(got) == len(want) > len(pieces)
    for (W, N, C), (W0, N0, C0) in zip(got, want):
        assert np.array_equal(W, W0) and np.array_equal(N, N0) and np.array_equal(C, C0)
