"""Independent double-precision reference for the amplitude engine.

``naive_total_amplitude`` multiplies the full 4x4 chain of every insertion
order term by term, with no sharing of propagators or partial sums, with
the spinors of ``algebra.dirac_spinor_batch`` taken one column at a time
and each propagator (qslash + m)/(q^2 - m^2) formed on its own.  The
production engine, ``amplitude.amplitude_tensor``, regroups the same sum
into subset currents that share every propagator and every partial sum
over orders, so agreement between the two checks the regrouping.
``naive_total_amplitude`` takes the arguments of
``amplitude.point_amplitude``.
"""
import itertools

from triplecompton.algebra import (IDENTITY4, POLE_GUARD,
                                   PropagatorPoleError,
                                   dirac_spinor_bar_batch,
                                   dirac_spinor_batch, minkowski_dot,
                                   slash_batch)
from triplecompton.constants import ELECTRON_MASS_MEV as M

PERMUTATIONS4 = tuple(itertools.permutations(range(4)))


def propagator_denominator(q) -> float:
    """q^2 - m^2 for one four-vector q, raising :class:`PropagatorPoleError`
    when its magnitude is below POLE_GUARD * m^2.

    The physical phase space of the photon-splitting processes never
    reaches the pole, so this only traps malformed input.
    """
    denom = minkowski_dot(q, q) - M * M
    if abs(denom) < POLE_GUARD * M * M:
        raise PropagatorPoleError(
            f"propagator pole: q^2 - m^2 = {denom:.6e} MeV^2")
    return denom


def propagator_momenta(xi, setup, photons) -> tuple:
    """Intermediate electron momenta (q_1, ..., q_{n-1}) for insertion
    order xi of the absorbed photon (index 0) and the emitted ``photons``."""
    ks = (setup.k_0,) + tuple(photons)
    qs = []
    q = setup.p_i
    for j in xi[:-1]:
        q = q + ks[j] if j == 0 else q - ks[j]
        qs.append(q)
    return tuple(qs)


def naive_total_amplitude(setup, photons, p_f, eps, r_i=1,
                          r_f=1) -> complex:
    """Explicit matrix products, one permutation at a time."""
    n = len(photons) + 1
    u_i = dirac_spinor_batch(setup.p_i)[:, r_i - 1]
    ubar_f = dirac_spinor_bar_batch(p_f)[r_f - 1]
    slashed = [slash_batch(e) for e in eps]
    total = 0.0 + 0.0j
    for xi in itertools.permutations(range(n)):
        # application order: eps_xi(0), S(q_1), eps_xi(1), ..., eps_xi(n-1)
        mats = [slashed[xi[0]]]
        for q, j in zip(propagator_momenta(xi, setup, photons), xi[1:]):
            mats.append((slash_batch(q) + M * IDENTITY4)
                        / propagator_denominator(q))
            mats.append(slashed[j])
        chain = IDENTITY4
        for mat in mats:
            chain = mat @ chain
        total += ubar_f @ chain @ u_i
    return M ** (n - 1) * total

