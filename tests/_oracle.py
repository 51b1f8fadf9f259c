"""Independent double-precision reference for the amplitude engine.

``naive_total_amplitude`` multiplies the full 4x4 chain of every insertion
order term by term, with no sharing of propagators or permutation prefixes,
from the scalar spinor and propagator constructors in ``algebra``.  The
production engine, ``amplitude.amplitude_tensor``, shares all of that, so
agreement between the two checks the sharing.
"""
import itertools

from triplecompton.algebra import IDENTITY4, dirac_spinor, propagator, slash

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
    u_i = dirac_spinor(inputs.setup.p_i, inputs.r_i, mass).components
    ubar_f = dirac_spinor(inputs.state.p_f, inputs.r_f, mass).bar()
    slashed = [slash(e) for e in inputs.eps]
    total = 0.0 + 0.0j
    for xi in itertools.permutations(range(n)):
        # application order: eps_xi(0), S(q_1), eps_xi(1), ..., eps_xi(n-1)
        mats = [slashed[xi[0]]]
        for q, j in zip(propagator_momenta(xi, inputs), xi[1:]):
            mats.append(propagator(q, mass))
            mats.append(slashed[j])
        chain = IDENTITY4
        for mat in mats:
            chain = mat @ chain
        total += ubar_f @ chain @ u_i
    return mass ** (n - 1) * total
