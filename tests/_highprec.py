"""Software high-precision (mpmath) re-implementation of the amplitude's two
evaluation strategies, driven directly from (theta, phi, omega) inputs.

The permutation sum at backscatter kinematics suffers internal cancellations
of order 1e6-1e10 for the small polarization channels, so a 1e-12 comparison
between the two strategies is only meaningful above double precision.  Here
everything (closure, spinors, propagators, chains) is rebuilt with mpmath
scalars at configurable precision; implementation bugs in either strategy
would show up at O(1), while agreement lands at ~10^-(dps-7).

Four-vectors and spinors are lists of four mpmath scalars and 4x4 matrices
are lists of four rows, multiplied by the hand-written products below; with
``mpmath.matrix`` an evaluation took about twice as long.
"""
import itertools

from mpmath import mp, mpc, mpf
from mpmath import cos as mcos, sin as msin, sqrt as msqrt

ELECTRON_MASS = "0.510998950"


def _gammas():
    i = mpc(0, 1)
    g0 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
    g1 = [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]]
    g2 = [[0, 0, 0, -i], [0, 0, i, 0], [0, i, 0, 0], [-i, 0, 0, 0]]
    g3 = [[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]]
    return g0, g1, g2, g3


def _dot(a, b):
    return a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3]


def _row_dot(a, b):
    """Sum of a[i] b[i] without the metric: spinor rows times columns."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]


def _matvec(a, v):
    return [_row_dot(row, v) for row in a]


def _matmul(a, b):
    cols = list(zip(*b))
    return [[_row_dot(row, col) for col in cols] for row in a]


def _fast_chain(e_i, omega0, thetas, phis, omega1, omega2, pols,
                beam_label, r_i, r_f):
    """The fast strategy at the working precision of the caller's context.

    Returns (fast, point) with fast = sum over insertion orders of ubar S ...
    u chained matrix-vector right-to-left, without the factor m^3; point
    holds what the slow strategy reuses: spinors, slashed polarizations and
    the propagators by the set of photons the line has met, plus omega3,
    e_f and the recoil factor.
    """
    m = mpf(ELECTRON_MASS)
    g0, g1, g2, g3 = _gammas()
    eye = [[1 if i == j else 0 for j in range(4)] for i in range(4)]

    def slash(a):
        return [[a[0] * g0[i][j] - a[1] * g1[i][j] - a[2] * g2[i][j]
                 - a[3] * g3[i][j] for j in range(4)] for i in range(4)]

    e_i = mpf(repr(float(e_i)))
    omega0 = mpf(repr(float(omega0)))
    p_abs = msqrt((e_i - m) * (e_i + m))
    p_i = [e_i, mpf(0), mpf(0), -p_abs]
    k0 = [omega0, mpf(0), mpf(0), omega0]
    thetas = [mpf(repr(float(t))) for t in thetas]
    phis = [mpf(repr(float(p))) for p in phis]
    w = [mpf(repr(float(omega1))), mpf(repr(float(omega2)))]

    def photon(omega, theta, phi):
        return [omega, omega * msin(theta) * mcos(phi),
                omega * msin(theta) * msin(phi), omega * mcos(theta)]

    k1 = photon(w[0], thetas[0], phis[0])
    k2 = photon(w[1], thetas[1], phis[1])
    n3 = photon(mpf(1), thetas[2], phis[2])
    num = (_dot(p_i, [k0[i] - k1[i] - k2[i] for i in range(4)])
           - _dot(k0, [k1[i] + k2[i] for i in range(4)])
           + _dot(k1, k2))
    den = _dot(n3, [p_i[i] + k0[i] - k1[i] - k2[i] for i in range(4)])
    w3 = num / den
    k3 = [w3 * n3[i] for i in range(4)]
    p_f = [p_i[i] + k0[i] - k1[i] - k2[i] - k3[i] for i in range(4)]
    e_f = p_f[0]
    recoil = 1 - (p_f[1] * n3[1] + p_f[2] * n3[2] + p_f[3] * n3[3]) / e_f

    def spinor(p, r):
        epm = p[0] + m
        norm = msqrt(epm / (2 * m))
        if r == 1:
            comps = [mpf(1), mpf(0), p[3] / epm,
                     (p[1] + mpc(0, 1) * p[2]) / epm]
        else:
            comps = [mpf(0), mpf(1), (p[1] - mpc(0, 1) * p[2]) / epm,
                     -p[3] / epm]
        return [norm * c for c in comps]

    def pol_vector(theta, phi, label):
        if label == 1:
            return [mpf(0), mcos(theta) * mcos(phi),
                    mcos(theta) * msin(phi), -msin(theta)]
        return [mpf(0), -msin(phi), mcos(phi), mpf(0)]

    u_i = spinor(p_i, r_i)
    ubar = [mp.conj(c) for c in _matvec(g0, spinor(p_f, r_f))]
    # beam_label "momentum" substitutes the photon's own four-momentum
    # for its polarization vector (gauge/Ward check)
    if beam_label == "momentum":
        eps = [list(k0)]
    else:
        eps = [pol_vector(mpf(0), mpf(0), beam_label)]
    eps += [pol_vector(t, p, lab)
            for t, p, lab in zip(thetas, phis, pols)]
    slashed = [slash(e) for e in eps]
    ks = [k0, k1, k2, k3]

    total = mpc(0)
    props = {}      # by the set of photons the line has met
    for xi in itertools.permutations(range(4)):
        vec = u_i
        q = list(p_i)
        for step, j in enumerate(xi):
            vec = _matvec(slashed[j], vec)
            if step < 3:
                sign = 1 if j == 0 else -1
                q = [q[i] + sign * ks[j][i] for i in range(4)]
                met = frozenset(xi[:step + 1])
                if met not in props:
                    denom = _dot(q, q) - m * m
                    props[met] = [[(s + m * e) / denom
                                   for s, e in zip(*rows)]
                                  for rows in zip(slash(q), eye)]
                vec = _matvec(props[met], vec)
        total += _row_dot(ubar, vec)
    point = dict(m=m, eye=eye, u_i=u_i, ubar=ubar, slashed=slashed,
                 props=props, w3=w3, e_f=e_f, recoil=recoil)
    return total, point


def amplitude_pair(e_i, omega0, thetas, phis, omega1, omega2,
                   pols=(1, 1, 1), beam_label=1, r_i=1, r_f=1, dps=40):
    """(fast, slow, omega3, e_f, recoil) with both strategies in mp floats.

    fast chains matrix-vector right-to-left; slow multiplies the full 4x4
    chains.  Returns python complex/float conversions are left to callers.
    """
    with mp.workdps(dps):
        fast, point = _fast_chain(e_i, omega0, thetas, phis, omega1, omega2,
                                  pols, beam_label, r_i, r_f)
        slashed, props = point["slashed"], point["props"]
        slow = mpc(0)
        for xi in itertools.permutations(range(4)):
            mats = [slashed[xi[0]]]
            for step in range(3):
                mats += [props[frozenset(xi[:step + 1])],
                         slashed[xi[step + 1]]]
            chain = point["eye"]
            for mat in mats:
                chain = _matmul(mat, chain)
            slow += _row_dot(point["ubar"], _matvec(chain, point["u_i"]))
        scale = point["m"] ** 3
        return (scale * fast, scale * slow, point["w3"], point["e_f"],
                point["recoil"])


def spin_summed_sigma5(e_i, omega0, thetas, phis, omega1, omega2,
                       pols=(1, 1, 1), beam_label=1, dps=40):
    """(1/2) sum over electron spins of sigma5 in b MeV^-2 sr^-3."""
    with mp.workdps(dps):
        m = mpf(ELECTRON_MASS)
        alpha = 1 / mpf("137.036")
        hbarc2 = mpf("0.3893793721") * mpf("1e3")
        msq = mpf(0)
        for r_i in (1, 2):
            for r_f in (1, 2):
                fast, point = _fast_chain(e_i, omega0, thetas, phis, omega1,
                                          omega2, pols, beam_label, r_i, r_f)
                msq += abs(m ** 3 * fast) ** 2
        msq /= 2
        w3, e_f, recoil = point["w3"], point["e_f"], point["recoil"]
        e_i = mpf(repr(float(e_i)))
        omega0 = mpf(repr(float(omega0)))
        flux = omega0 * (e_i + msqrt((e_i - m) * (e_i + m)))
        w1 = mpf(repr(float(omega1)))
        w2 = mpf(repr(float(omega2)))
        value = (alpha ** 4 / (2 * mp.pi) ** 4 / m ** 4
                 * w1 * w2 * w3 / (e_f * flux) * msq / abs(recoil) * hbarc2)
        return value
