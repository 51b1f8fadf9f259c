"""Independent double-precision references for the amplitude engine and
the witness solver.

``naive_total_amplitude`` multiplies the full 4x4 chain of every insertion
order term by term, with no sharing of propagators or permutation prefixes,
with the spinors of ``algebra.dirac_spinor_batch`` taken one column at a
time and each propagator (qslash + m)/(q^2 - m^2) formed on its own.  The
production engine, ``amplitude.amplitude_tensor``, shares all of that, so
agreement between the two checks the sharing.

``naive_project_affine`` is the witness solver's affine projection written
one bipartition at a time with explicit ``partial_transpose`` calls; the
production ``entanglement._project_affine`` does all three at once through
an index map.
"""
import itertools

import numpy as np

from triplecompton.algebra import (IDENTITY4, dirac_spinor_bar_batch,
                                   dirac_spinor_batch,
                                   propagator_denominator, slash_batch)
from triplecompton.entanglement import BIPARTITIONS, partial_transpose

PERMUTATIONS4 = tuple(itertools.permutations(range(4)))


def propagator_momenta(xi, inputs) -> tuple:
    """Intermediate electron momenta (q_1, ..., q_{n-1}) for insertion
    order xi of inputs.photons (absorbed photon index 0)."""
    ks = inputs.photons
    qs = []
    q = inputs.setup.p_i
    for j in xi[:-1]:
        q = q + ks[j] if j == 0 else q - ks[j]
        qs.append(q)
    return tuple(qs)


def naive_total_amplitude(inputs) -> complex:
    """Explicit matrix products, one permutation at a time."""
    mass = inputs.setup.mass
    n = len(inputs.photons)
    u_i = dirac_spinor_batch(inputs.setup.p_i, mass)[:, inputs.r_i - 1]
    ubar_f = dirac_spinor_bar_batch(inputs.state.p_f, mass)[inputs.r_f - 1]
    slashed = [slash_batch(e) for e in inputs.eps]
    total = 0.0 + 0.0j
    for xi in itertools.permutations(range(n)):
        # application order: eps_xi(0), S(q_1), eps_xi(1), ..., eps_xi(n-1)
        mats = [slashed[xi[0]]]
        for q, j in zip(propagator_momenta(xi, inputs), xi[1:]):
            mats.append((slash_batch(q) + mass * IDENTITY4)
                        / propagator_denominator(q, mass))
            mats.append(slashed[j])
        chain = IDENTITY4
        for mat in mats:
            chain = mat @ chain
        total += ubar_f @ chain @ u_i
    return mass ** (n - 1) * total


def naive_project_affine(stack):
    """Least-squares projection of [W, P1, Q1, P2, Q2, P3, Q3] onto
    {W = P_s + Q_s^{T_s} for all s}, term by term: with residuals
    R_s = W - P_s - Q_s^{T_s} and multipliers L_s = R_s - (sum R)/5,

        W -> W - (sum R)/5,  P_s -> P_s + L_s/2,  Q_s -> Q_s + L_s^{T_s}/2.
    """
    w = stack[0]
    residuals = []
    for i, s in enumerate(BIPARTITIONS):
        residuals.append(w - stack[1 + 2 * i]
                         - partial_transpose(stack[2 + 2 * i], s))
    total = residuals[0] + residuals[1] + residuals[2]
    out = np.empty_like(stack)
    out[0] = w - total / 5.0
    for i, s in enumerate(BIPARTITIONS):
        lam = residuals[i] - total / 5.0
        out[1 + 2 * i] = stack[1 + 2 * i] + 0.5 * lam
        out[2 + 2 * i] = stack[2 + 2 * i] + 0.5 * partial_transpose(lam, s)
    return out
