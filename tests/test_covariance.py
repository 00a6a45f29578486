"""Scale covariance by powers of two: f(2^j P) = 2^j f(P) for the kernels,
because every tolerance is a multiple of ``_unit`` of the operands and every
external solver gets its input divided by it.

from_hrep, from_vrep, intersect, hausdorff, steiner_point and enclosing_ball
hold bit for bit.  volume, tv_distance and w1_distance hold within 1e-13
relative: numpy's ``det`` is not exactly covariant under 2^j scaling."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from movingbeliefs import beliefs as bl
from movingbeliefs import geomkernel as gk

# at 2^-200 and 2^200 the squares and the 4-volumes of unit-size bodies are normal doubles
SCALES = st.integers(-200, 200)
RESOLUTION = {2: 0.125, 3: 0.25, 4: 0.34}  # each body of a unit-size pair meets at least 8 cells


def same_body(A, B, j):
    """A = 2^j B, bit for bit: vertices, rows, frame and boundary."""
    return (A.intrinsic_dim == B.intrinsic_dim
            and np.array_equal(A.vrep, np.ldexp(B.vrep, j))
            and np.array_equal(A.hrep_normals, B.hrep_normals)
            and np.array_equal(A.hrep_offsets, np.ldexp(B.hrep_offsets, j))
            and np.array_equal(A.frame.basis, B.frame.basis)
            and np.array_equal(A.boundary, B.boundary))


def close(a, b):
    return abs(a - b) <= 1e-13 * abs(b)


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 4), j=SCALES)
def test_kernels_are_covariant_under_powers_of_two(seed, m, j):
    rng = np.random.default_rng(seed)
    a, b = rng.random((m + 6, m)), 0.25 + rng.random((m + 6, m))
    P, Q = gk.from_vrep(a), gk.from_vrep(b)
    Ps, Qs = gk.from_vrep(np.ldexp(a, j)), gk.from_vrep(np.ldexp(b, j))
    assert same_body(Ps, P, j) and same_body(Qs, Q, j)
    box = np.vstack([np.eye(m), -np.eye(m)]), np.concatenate([np.full(m, 0.75), np.full(m, -0.125)])
    assert same_body(gk.from_hrep(box[0], np.ldexp(box[1], j)), gk.from_hrep(*box), j)

    I, Is = gk.intersect(P, Q), gk.intersect(Ps, Qs)
    assert (I is None and Is is None) or same_body(Is, I, j)
    assert gk.hausdorff(Ps, Qs) == np.ldexp(gk.hausdorff(P, Q), j)
    assert np.array_equal(gk.steiner_point(Ps), np.ldexp(gk.steiner_point(P), j))
    (c, r), (cs, rs) = gk.enclosing_ball(P), gk.enclosing_ball(Ps)
    assert np.array_equal(cs, np.ldexp(c, j)) and rs == np.ldexp(r, j)

    assert close(gk.volume(Ps), np.ldexp(gk.volume(P), m * j))
    pair, pair_s = bl.MeasurePair.make(P, Q), bl.MeasurePair.make(Ps, Qs)
    assert close(bl.tv_distance(pair_s), bl.tv_distance(pair))
    (w, err), (ws, errs) = bl.w1_distance(pair, RESOLUTION[m]), bl.w1_distance(pair_s, np.ldexp(RESOLUTION[m], j))
    assert close(ws, np.ldexp(w, j)) and errs == np.ldexp(err, j)
