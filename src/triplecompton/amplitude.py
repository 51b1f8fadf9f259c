"""Invariant amplitudes for one absorbed photon and n emitted photons.

The amplitude is a coherent sum over every insertion order of the photon
lines on the electron line,

    M = m^n  sum_xi  ubar(p_f) eslash_xi(n) S(q_n) ... S(q_1) eslash_xi(0) u(p_i),

with S(q) = (qslash + m)/(q^2 - m^2) and intermediate momenta built by adding
the absorbed photon momentum (index 0) and subtracting emitted ones in the
order given by the permutation xi.  n = 3 gives the photon-splitting process
(24 permutations); n = 2 and n = 1 run on the same machinery (6 and 2
permutations) and feed the two-photon and one-photon cross sections.

``amplitude_tensor`` is the one evaluation engine: it builds the sum over
orders from subset currents (F. A. Berends, W. T. Giele, Nucl. Phys. B306
(1988) 759) over stacked phase-space points.  The current of a set S of
photons is the electron line after absorbing or emitting exactly those
photons, in every order: J(empty) = u_1(p_i) and, for every proper subset
S,

    J(S) = S(p_i + k_S) sum_{j in S} eslash_j J(S - {j}),

with k_S the momentum S brings in (k_0 added, emitted photons
subtracted); then M(1, r_f) = m^(n-1) sum_j (ubar_r_f eslash_j) J(all -
{j}).  Each current is built once, from the currents one photon smaller,
and shared by every order that starts with its set, so the cost grows as
(n+1) 2^(n+1) vertex applications rather than (n+1)! chains: for n = 3,
14 currents and 4 exit contractions instead of 24 chains.  Inside it the
point axis is last and contiguous, so applying an operator takes a few
whole-array operations rather than one small matrix product per point;
every operation is elementwise along that axis, so a row's result does not
depend on the other rows.  It raises on a propagator pole itself.

No 4x4 matrix is built: each operator is written straight from the
components of its four-vectors, each entry the same double as the 4x4
reference forms' (``algebra.slash_batch``, ``dirac_spinor_batch``,
``dirac_spinor_bar_batch``), and each row sums its non-zero terms in the
column order of the 4x4 product, so every amplitude is the same to the
bit as the 4x4 products'.  With eps = (t, e) and sigma.e = [[z, x - iy],
[x + iy, -z]],

    eslash = [[t, -sigma.e], [sigma.e, -t]],

so a vertex swaps the halves of J and applies one 2x2 block to each: the
two non-zero terms of each row of the 4x4 product, whose other two terms
are exact zeros (a sum of two terms does not depend on their order).
Every basis vector has t = 0 exactly; the diagonal term is added, after
the blocks, only for a photon whose t is non-zero at some point of the
batch, as in gauge tests (eps -> k), and adds exact zeros where t = 0.
With q = (t, q) and r = 1/(q^2 - m^2),

    S(q) = [[(t + m) r, -sigma.q r], [sigma.q r, (m - t) r]],

two diagonal scalars and one 2x2 block per internal momentum, built once
per call; numpy divides a complex number by a real one by multiplying with
its reciprocal, so each entry is the same double as (qslash + m)/(q^2 -
m^2).  u_1(p_i) is built once from p_i's components and broadcast along the
point axis, the ubar(p_f) rows at every point, and the exit rows ubar
eslash_j = [t ubar_up + ubar_lo sigma.e, -ubar_up sigma.e - t ubar_lo]
from the vertex blocks; only their contraction with the currents is a full
4-term sum.  Each photon's vertex blocks are built at that photon's own
point axis, so a shared photon's are built once and broadcast, each
product the same double either way.

The electron spin sum is paid once.  In the Dirac representation A =
gamma^0 gamma^1 gamma^3 is real, A gamma^mu* A^-1 = gamma^mu, gamma^0 A^-1
= A^T gamma^0, and the spinors obey A u_1(p)* = -u_2(p) and A u_2(p)* =
u_1(p).  So for any chain built from real four-vectors, real momenta and
real (linear) polarizations,

    M(r_i=2, r_f=2) = conj M(1, 1),    M(2, 1) = -conj M(1, 2),

at every point and for every polarization entry.  The kernel builds the
r_i = 1 currents alone and writes the r_i = 2 half from this identity;
a complex polarization array raises ValueError.  The r_i = 1 half is the
same to the bit as a direct evaluation; the r_i = 2 half differs from one
by rounding alone, relative to a point's largest amplitude at most 6e-16
at rest and, at collider kinematics, where the direct evaluation loses
digits, median 1e-9 and at most 1e-5 over 2955 sampled triple points.
``point_amplitude`` runs it at one point for any number of emitted
photons, with each given polarization four-vector as a length-1 basis,
after checking the spin labels and the final electron's mass shell.
Four-vectors are float arrays (t, x, y, z) in MeV.  An independent
term-by-term reference lives with the tests.

The kernel keeps its intermediates between calls: the internal momenta
and q^2 - m^2, the propagator, vertex and exit blocks, each current, each
vertex term and every product are written, through numpy's ``out=`` with
the same ufuncs in the same order as fresh arrays would be, into one
buffer per role and per thread (``threading.local``), grown to the largest
size asked for and never shrunk.  So a warm call allocates little more
than the fresh tensor it returns, and every amplitude keeps its bits.  The
helpers return views on those buffers, which the next call of the same
role overwrites; roles whose lifetimes do not overlap share a buffer, and
every helper is told the role it writes.  A batch larger than
``KERNEL_ROWS`` is evaluated in passes of at most that many rows, so what
is kept stays bounded however large a batch a caller passes.
"""
from __future__ import annotations

import itertools
import math
import numbers
import threading

import numpy as np

from .algebra import (POLE_GUARD, PropagatorPoleError, check_labels,
                      check_on_shell)
# not called here: kept bound while perfbench/tracing.py patches them as
# names of this module
from .algebra import dirac_spinor_bar_batch, dirac_spinor_batch, slash_batch
from .constants import ELECTRON_MASS_MEV
from .kinematics import CollisionSetup

# rows per kernel pass: amplitude_tensor evaluates a larger batch in
# successive passes of at most this many rows, so the buffers the kernel
# keeps stay bounded, about 2.2, 5.2 and 11.2 KB per row for one, two and
# three photons; the result does not depend on it
KERNEL_ROWS = 256
# views kept on the buffers, dropped all at once when there would be more
_KEPT_VIEWS = 1024


def point_amplitude(setup: CollisionSetup, photons, p_f, eps, r_i: int = 1,
                    r_f: int = 1) -> complex:
    """Amplitude at one point: emitted photon momenta ``photons``, final
    electron momentum p_f and electron spin labels r_i, r_f.

    eps holds one polarization four-vector per photon, the absorbed photon's
    first; any real four-vectors are accepted there, so gauge tests can put
    eps -> k, and a complex one raises ValueError.  An off-shell p_f raises
    OffShellError; the rest, the pole check included, is amplitude_tensor
    with each eps a length-1 axis.
    """
    check_labels(r_i, r_f)
    check_on_shell(p_f)
    tensor = amplitude_tensor(
        setup, np.asarray(photons, float).reshape(-1, 1, 4),
        np.asarray(p_f)[None], [np.asarray(e)[None, None] for e in eps])
    return complex(tensor.reshape(2, 2)[r_i - 1, r_f - 1])


def beam_basis_arrays(beam_pol=None) -> np.ndarray:
    """Polarization vectors of the +z beam photon as a (1, P, 4) array,
    the same at every point.

    beam_pol None gives the basis, x then y (P = 2), for sums over the beam
    polarization.  A label 1 or 2 (any integral type) gives that basis
    vector alone, and a transverse (ex, ey) pair of finite components with
    non-zero norm gives the normalized vector (P = 1).  Anything else
    raises ValueError.
    """
    basis = [(1.0, 0.0), (0.0, 1.0)]     # x, y
    if beam_pol is None:
        vectors = basis
    elif isinstance(beam_pol, numbers.Integral):
        check_labels(beam_pol)
        vectors = [basis[beam_pol - 1]]
    else:
        try:
            vec = np.asarray(beam_pol, dtype=float)
        except (TypeError, ValueError):
            vec = np.empty(0)
        norm = np.hypot(*vec) if vec.shape == (2,) else np.nan
        if not 0.0 < norm < np.inf:
            raise ValueError("beam polarization vector must be two finite "
                             f"components, not both zero: got {beam_pol!r}")
        vectors = [vec / norm]
    out = np.zeros((1, len(vectors), 4))
    out[:, :, 1:3] = vectors
    return out


def outgoing_basis_arrays(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Polarization bases for emitted photon directions, (N, 2, 4)."""
    ct, st = np.cos(thetas), np.sin(thetas)
    cp, sp = np.cos(phis), np.sin(phis)
    out = np.zeros(thetas.shape + (2, 4))
    out[..., 0, 1] = ct * cp
    out[..., 0, 2] = ct * sp
    out[..., 0, 3] = -st
    out[..., 1, 1] = -sp
    out[..., 1, 2] = cp
    return out


class _Buffers(threading.local):
    """This thread's kept intermediates: one flat byte buffer per role,
    grown to the largest size asked for and never shrunk, and the views
    handed out on it by (role, shape, dtype), dropped when the buffer
    grows.  A cached view saves its construction on every pass; at most
    _KEPT_VIEWS are held, as the pass size varies from batch to batch."""

    def __init__(self):
        self.flat, self.views = {}, {}

    def __call__(self, role, shape, dtype=complex, key=None) -> np.ndarray:
        """A (shape, dtype) view on the buffer of ``role``, contents
        undefined, cached under ``key`` (role first), by default (role,
        shape, dtype)."""
        key = key or (role, shape, dtype)
        view = self.views.get(key)
        if view is None:
            dtype = np.dtype(dtype)
            nbytes = math.prod(shape) * dtype.itemsize
            flat = self.flat.get(role)
            if flat is None or flat.size < nbytes:
                flat = self.flat[role] = np.empty(nbytes, np.uint8)
                self.views = {k: v for k, v in self.views.items()
                              if k[0] != role}
            if len(self.views) >= _KEPT_VIEWS:
                self.views.clear()
            view = self.views[key] = flat[:nbytes].view(dtype).reshape(shape)
        return view


_buffer = _Buffers()


def _product(role, a, b) -> np.ndarray:
    """a * b, broadcast, written into the buffer of ``role``; the view is
    cached by the factors' shapes and dtypes, which fix its own."""
    key = (role, a.shape, b.shape, a.dtype, b.dtype)
    out = _buffer.views.get(key)
    if out is None:
        out = _buffer(role, np.broadcast(a, b).shape, np.result_type(a, b),
                      key)
    return np.multiply(a, b, out=out)


_I = np.complex128(1j)      # 1j with a shape and dtype, for _product


def _apply(op: np.ndarray, state: np.ndarray, before: int,
           role) -> np.ndarray:
    """op (r, 4, P, N) on state (4, M, N) -> (r, A P M / A, N), A = before,
    written into the buffer of ``role``.

    The operator's P axis lands after the first ``before`` entries of the
    state's M axis, which keeps polarization axes in photon order.  Either
    point axis may be 1, broadcast against the other's N.
    """
    _, m_in, n_pts = state.shape
    state = state.reshape(4, before, m_in // before, n_pts)
    product = _product("product", op[:, :, None, :, None],
                       state[None, :, :, None])
    out = np.add.reduce(product, axis=1, out=_buffer(
        role, product.shape[:1] + product.shape[2:]))
    return out.reshape(op.shape[0], m_in * op.shape[2], -1)


def _spinors(p_i: np.ndarray, p_f: np.ndarray) -> tuple:
    """u_1(p_i) broadcast along the point axis, (4, 1, N), and the rows
    ubar_1(p_f), ubar_2(p_f), (2, 4, N), for p_i (4,) and p_f (N, 4), built
    from their components.

    With norm = sqrt((E + m)/2m) and (a, b, c) = norm (p_x, p_y, p_z)/(E +
    m),

        u_1 = (norm, 0, c, a + ib),  ubar_1 = (norm, 0, -c, -a + ib),
        ubar_2 = (0, norm, -a - ib, c).

    numpy divides a complex number by a real one by multiplying with the
    reciprocal, so a and b are norm (p_x (1/(E + m))) and norm (p_y (1/(E +
    m))), and c, a real entry, is norm (p_z/(E + m)): every entry is the
    same double as dirac_spinor_batch's and dirac_spinor_bar_batch's.
    """
    p = np.concatenate([p_i[None], p_f])
    e = p[:, 0] + ELECTRON_MASS_MEV
    norm, r = np.sqrt(e / (2.0 * ELECTRON_MASS_MEV)), 1.0 / e
    a, b, c = norm * (p[:, 1] * r), norm * (p[:, 2] * r), norm * (p[:, 3] / e)
    u_1 = np.array([norm[0], 0.0, c[0], a[0] + 1j * b[0]])[:, None, None]
    rows = np.zeros((2, 4, len(p)), complex)
    rows[0, 0] = rows[1, 1] = norm
    rows[0, 2], rows[1, 3] = -c, c
    rows[0, 3], rows[1, 2] = -a + 1j * b, -a - 1j * b
    return np.broadcast_to(u_1, (4, 1, len(p_f))), rows[:, :, 1:]


def _vertex_op(eps: np.ndarray, photon: int) -> tuple:
    """One photon's polarization vectors (N or 1, P, 4) as _vertex's
    (blocks, diag), built from their components t, x, y, z into the
    buffers of that ``photon``.

    blocks[c, h], (2, 1, P, 1, N or 1), is column c of eslash's
    off-diagonal block in the upper (h = 0) or lower (h = 1) rows: -sigma.e
    and sigma.e, with sigma.e = [[z, x - iy], [x + iy, -z]].  diag, (2, 1,
    1, P, 1, N or 1), is eslash's diagonal (t, -t), kept only if some t is
    non-zero.  Every entry is the same double as slash_batch's.
    """
    t, x, y, z = eps.transpose(2, 1, 0)
    blocks = _buffer(("blocks", photon), (2, 2, 2) + t.shape)
    plus, minus = blocks[0, 1, 1], blocks[1, 1, 0]
    np.add(x, _product("i_y", _I, y), out=plus)
    np.subtract(x, _product("i_y", _I, y), out=minus)
    np.negative(z, out=blocks[0, 0, 0])
    blocks[1, 1, 1] = blocks[0, 0, 0]
    blocks[1, 0, 1] = blocks[0, 1, 0] = z
    np.negative(plus, out=blocks[0, 0, 1])
    np.negative(minus, out=blocks[1, 0, 0])
    diag = None
    if t.any():
        diag = _buffer(("diag", photon), (2,) + t.shape)
        diag[0] = t
        np.negative(t, out=diag[1])
        diag = diag[:, None, None, :, None]
    return blocks[:, :, :, None, :, None], diag


def _exit_op(ubar: np.ndarray, vertex: tuple, photon: int) -> np.ndarray:
    """ubar eslash for the rows ubar (2, 4, N) and one photon's
    _vertex_op, (2, 4, P, N), in the buffer of that ``photon``.

    The upper half of each row is ubar_lo sigma.e and the lower half
    -ubar_up sigma.e, read from the vertex blocks; with a diagonal, the
    t ubar_up term leads the upper entries and the -t ubar_lo term ends
    the lower ones.  So each entry sums its non-zero terms in the column
    order of the 4x4 product, and is the same double.
    """
    blocks, diag = vertex
    # half h of a row takes ubar's other half through blocks[:, 1 - h]
    ops = blocks[:, ::-1, :, 0, :, 0].swapaxes(0, 1)
    halves = ubar.reshape(2, 2, 2, 1, 1, -1)[:, ::-1]
    out = _product(("exit", photon), halves[:, :, 0], ops[:, :, 0])
    if diag is not None:
        # ubar_c t upper and -ubar_{2+c} t lower, (2, half, c, P, N)
        terms = _product("exit_diag", ubar.reshape(2, 2, 2, 1, -1),
                         diag[:, 0, 0, None, :, 0])
        out[:, 0] += terms[:, 0]
    out += _product("product", halves[:, :, 1], ops[:, :, 1])
    if diag is not None:
        out[:, 1] += terms[:, 1]
    return out.reshape(2, 4, out.shape[3], -1)


def _vertex(vertex: tuple, state: np.ndarray, before: int,
            role) -> np.ndarray:
    """eslash on state (4, M, N) -> (4, A P M / A, N), A = before, written
    into the buffer of ``role``.

    vertex is (blocks, diag).  blocks[c], (2, 2, 1, P, 1, N or 1), holds
    column c of eslash's two off-diagonal 2x2 blocks, the upper rows' block
    first; each block acts on the other half of the state, so the halves
    are swapped.  diag, (2, 1, 1, P, 1, N or 1), holds eslash's diagonal
    (t, -t) and is None where t is zero at every point.
    """
    _, m_in, n_pts = state.shape
    halves = state.reshape(2, 2, before, 1, m_in // before, n_pts)
    blocks, diag = vertex
    out = _product(role, blocks[0], halves[::-1, None, 0])
    out += _product("product", blocks[1], halves[::-1, None, 1])
    if diag is not None:
        out += _product("product", diag, halves)
    return out.reshape(4, m_in * blocks.shape[4], n_pts)


def _propagators(qs: np.ndarray, denom: np.ndarray) -> list:
    """S(q) = (qslash + m)/denom for internal momenta qs (N, S, 4) and their
    denom = q^2 - m^2 (S, N) as _propagate's 2x2 blocks, one per column.

    With r = 1/denom, which is what numpy's complex-by-real division
    multiplies by, every entry is the same double as the 4x4 matrix's.
    """
    m = ELECTRON_MASS_MEV
    r = np.divide(1.0, denom, out=_buffer("r", denom.shape, float))
    q = _buffer("q_components", (4,) + denom.shape, float)
    q[...] = qs.transpose(2, 1, 0)
    x, y, z = np.multiply(q[1:], r, out=_buffer("q_r", q[1:].shape, float))
    sigma = _buffer("sigma", (qs.shape[1], 2, 2, 1, qs.shape[0]))
    sigma[:, 0, 0, 0] = z
    np.add(x, _product("i_y", _I, y), out=sigma[:, 0, 1, 0])
    np.subtract(x, _product("i_y", _I, y), out=sigma[:, 1, 0, 0])
    np.negative(z, out=sigma[:, 1, 1, 0])
    diag = _buffer("prop_diag", (2,) + denom.shape, float)
    np.multiply(np.add(q[0], m, out=diag[0]), r, out=diag[0])
    np.multiply(np.subtract(m, q[0], out=diag[1]), r, out=diag[1])
    return list(zip(diag[0], diag[1], sigma))


def _propagate(prop: tuple, state: np.ndarray, role) -> np.ndarray:
    """S(q) on state (4, M, N) -> (4, M, N), written into the buffer of
    ``role``.

    prop is (d_up, d_lo, sigma): the diagonals (t + m) r and (m - t) r,
    (N,), and sigma.q r by column, (c, row, 1, N), with r = 1/(q^2 - m^2),
    so that S(q) = [[d_up, -sigma.q r], [sigma.q r, d_lo]].  Each row sums
    its non-zero terms in the column order of the 4x4 product.
    """
    d_up, d_lo, sigma = prop
    out = _buffer(role, state.shape)
    upper, lower = out[:2], out[2:]
    np.multiply(d_up, state[:2], out=upper)
    upper -= _product("product", sigma[0], state[2])
    upper -= _product("product", sigma[1], state[3])
    np.multiply(sigma[0], state[0], out=lower)
    lower += _product("product", sigma[1], state[1])
    lower += _product("product", d_lo, state[2:])
    return out


def amplitude_tensor(setup: CollisionSetup, k_out: np.ndarray,
                     p_f: np.ndarray, eps_arrays: list) -> np.ndarray:
    """Amplitudes for every polarization label and spin at stacked points.

    k_out: (n_out, N, 4) emitted photon four-momenta; the absorbed photon's
    and p_i come from setup, and m is ELECTRON_MASS_MEV.  eps_arrays: per
    photon, the absorbed one first, (N, P, 4) polarization four-vectors,
    normally the P = 2 basis.  Each photon's point axis may instead be 1,
    (1, P, 4), independently of the others: a point axis of 1 means the
    same vectors at every point, as for the beam photon and at fixed
    detector directions, and gives the same amplitudes, to the bit, as the
    vectors repeated at every point.  Returns a complex
    array (N, P, ..., P, 2, 2): one polarization axis per photon (photon
    order), then r_i, then r_f.  Raises PropagatorPoleError if any |q^2 -
    m^2| is below POLE_GUARD m^2, and ValueError if any eps array is
    complex: the vectors must be real for the spin-flip conjugation.

    The amplitude is linear in each polarization vector, so a polarized
    beam needs no contraction afterwards: ``beam_basis_arrays`` hands the
    beam photon its own vector (P = 1), and only sums over the beam
    polarization pass both basis vectors.  Each polarization entry is
    computed on its own, so a basis vector alone gives the same amplitudes,
    to the bit, as its slice of the P = 2 tensor.

    A batch is evaluated in passes of at most KERNEL_ROWS points
    (``_kernel_pass``) written into one fresh output, and a batch of N = 0
    points gives an empty (0, P, ..., 2, 2) tensor.  The design, and why
    every amplitude keeps its bits, is the module docstring's.
    """
    if any(np.iscomplexobj(e) for e in eps_arrays):
        raise ValueError("polarization four-vectors must be real: the "
                         "r_i = 2 amplitudes are built by conjugation")
    k_out = np.asarray(k_out, float)
    n_pts = k_out.shape[1]
    shape = (n_pts,) + tuple(e.shape[1] for e in eps_arrays) + (2, 2)
    out = None
    for start in range(0, n_pts, KERNEL_ROWS):
        rows = slice(start, start + KERNEL_ROWS)
        half = _kernel_pass(setup, k_out[:, rows], p_f[rows],
                            [e if len(e) == 1 else e[rows] for e in eps_arrays])
        if out is None:
            # after the first pass, once numpy's broadcasting buffers are
            # freed, so that a one-pass call peaks near its output's size
            out = np.empty(shape, complex)
        tensor = out[rows]
        # the r_i = 2 half by the spin-flip identity (module docstring)
        tensor[..., 0, :] = half.swapaxes(0, -1)
        np.negative(np.conjugate(tensor[..., 0, 1], out=tensor[..., 1, 0]),
                    out=tensor[..., 1, 0])
        np.conjugate(tensor[..., 0, 0], out=tensor[..., 1, 1])
    return np.empty(shape, complex) if out is None else out


def _kernel_pass(setup, k_out, p_f, eps_arrays) -> np.ndarray:
    """The r_i = 1 amplitudes at up to KERNEL_ROWS points, (r_f, P, ...,
    P, N), in the kept buffers: every intermediate lives there."""
    n, n_pts = k_out.shape[0] + 1, k_out.shape[1]
    p_i, k_0, m = setup.p_i, setup.k_0, ELECTRON_MASS_MEV
    u_1, ubar = _spinors(p_i, p_f)

    # every internal momentum p_i + k_0 - ..., one per proper subset, each
    # its parent subset's (the subset less its last photon) plus one photon
    subsets = [subset for size in range(1, n)
               for subset in itertools.combinations(range(n), size)]
    qs = _buffer("q", (n_pts, len(subsets), 4), float)
    for col, subset in enumerate(subsets):
        *parent, j = subset
        q = qs[:, subsets.index(tuple(parent))] if parent else p_i
        if j == 0:
            np.add(q, k_0, out=qs[:, col])
        else:
            np.subtract(q, k_out[j - 1], out=qs[:, col])
    metric = np.array([1.0, -1.0, -1.0, -1.0])
    denom = np.einsum('nsi,nsi->sn', _product("product", qs, metric), qs,
                      out=_buffer("denom", (n_pts, len(subsets)), float).T)
    denom -= m * m
    if (np.abs(denom) < POLE_GUARD * m * m).any():
        raise PropagatorPoleError(f"propagator pole: |q^2 - m^2| = "
                                  f"{np.abs(denom).min():.6e} MeV^2")
    props = _propagators(qs, denom)
    # each photon's vertex blocks, at its own point axis, and its exit
    # vertex ubar eslash, (2, 4, P, N)
    vertices = [_vertex_op(e, j) for j, e in enumerate(eps_arrays)]
    exits = [_exit_op(ubar, vertex, j) for j, vertex in enumerate(vertices)]
    n_pols = [e.shape[1] for e in eps_arrays]

    def vertex_sum(apply, ops, mask):
        """sum over photons j in mask of ops[j] J(mask - {j}), (r M, N),
        in the buffer "sum"."""
        total, before = None, 1
        for j in range(n):
            if mask >> j & 1:
                if total is None:
                    total = apply(ops[j], currents[mask ^ 1 << j], before,
                                  "sum")
                else:
                    total += apply(ops[j], currents[mask ^ 1 << j], before,
                                   "term")
                before *= n_pols[j]
        return total

    # J(S) by bit mask of S, (4, M, N).  J(S) is read only while the
    # currents one photon larger are built, so each size's currents replace
    # the last, and the buffers of sizes two apart are shared; the exits
    # read the largest, J(all - {j}).
    masks = [sum(1 << j for j in subset) for subset in subsets]
    currents = {0: u_1}
    for size in range(1, n):
        cols = [col for col, mask in enumerate(masks)
                if mask.bit_count() == size]
        currents = {masks[col]: _propagate(
            props[col], vertex_sum(_vertex, vertices, masks[col]),
            ("current", size % 2, slot)) for slot, col in enumerate(cols)}
    total = vertex_sum(_apply, exits, (1 << n) - 1).reshape(
        (2,) + tuple(n_pols) + (n_pts,))
    total *= m ** (n - 1)
    return total

