"""q_1 for alpha < 1 from Kanter's non-oscillatory integral: the tests' oracle for the Fourier head.

The library takes q_1 from one radial Fourier inversion for every alpha; this
route shares no code with it.  Z = sqrt(2S) N(0, I), with S the positive
(alpha/2)-stable law, whose density comes from Kanter's integral: no Bessel
function, no cutoff, one formula for d = 1, 2, 3.
"""
import math

import numpy as np
from scipy.special import lambertw

from geostable.stable_kernel import _panel_nodes

# Gauss-Legendre(10) panel counts in the log-s variable y, and in
# u = pi - theta, geometric toward theta = pi and then linear over u in
# [1, pi].  Doubling all three moves q_1 by under 1e-13.
MIX_Y_PANELS = 96
MIX_U_GEOMETRIC = 40
MIX_U_LINEAR = 6
# the grid drops what lies e^(-40) below the integrand's peak for every
# radius up to MIX_R_MAX, which covers the largest switch probe 1.3 * 44
MIX_MARGIN = 40.0
MIX_R_MAX = 60.0


def kanter_log_a(beta, u):
    """log A(pi - u) for Kanter's function, the one the library's positive-stable sampler draws with:

        A(theta) = sin(beta theta)^(beta/(1-beta)) sin((1-beta) theta) / sin(theta)^(1/(1-beta)).

    Taken at theta = pi - u so that theta near pi, where A blows up like
    sin(beta pi)^(1/(1-beta)) u^(-1/(1-beta)), keeps full precision.
    """
    th = np.pi - u
    return (beta / (1.0 - beta) * np.log(np.sin(beta * th)) + np.log(np.sin((1.0 - beta) * th))
            - np.log(np.sin(u)) / (1.0 - beta))


def mixture_head(alpha, dim):
    """q_1 for 0 < alpha < 1 as a function of radii up to MIX_R_MAX.

    Z = sqrt(2S) N(0, I) with S positive (alpha/2)-stable (Samorodnitsky &
    Taqqu 1994, 2.5), and S has Kanter's density (Kanter 1975).  With
    s = e^(-y), beta = alpha/2 and c = beta/(1 - beta):

        q_1(r) = (c/pi) (4 pi)^(-d/2) int dy e^((d/2) y) e^(-r^2 e^y / 4) G(y),
        G(y)   = int_0^pi A(theta) e^(c y) exp(-A(theta) e^(c y)) dtheta.

    G is tabulated once on a Gauss-Legendre y-grid, so each radius costs one
    row of a matrix product.  Every integrand is positive: no cancellation.
    """
    beta = alpha / 2.0
    c = beta / (1.0 - beta)
    # y -> -inf: G ~ e^(beta y), and radius r peaks near e^y = 4 rate / r^2
    rate = dim / 2.0 + beta
    y_lo = math.log(4.0 * rate / MIX_R_MAX ** 2) - MIX_MARGIN / rate
    # y -> +inf: with z = e^(c y) the r = 0 integrand is below z^k e^(-A(0) z),
    # k = d/(2c) + 1; cut where that falls e^(-margin) below its peak z = k/A(0)
    k = dim / (2.0 * c) + 1.0
    x = -lambertw(-math.exp(-1.0 - MIX_MARGIN / k), -1).real
    y_hi = math.log(x * k / (beta ** c * (1.0 - beta))) / c
    # at small z, G lives in a bump at u ~ sin(beta pi) z^(1 - beta) near theta = pi
    u_min = 0.01 * math.sin(beta * math.pi) * math.exp(beta * y_lo)
    u, wu = _panel_nodes(np.concatenate([np.geomspace(u_min, 1.0, MIX_U_GEOMETRIC + 1),
                                         np.linspace(1.0, np.pi, MIX_U_LINEAR + 1)[1:]]))
    y, wy = _panel_nodes(np.linspace(y_lo, y_hi, MIX_Y_PANELS + 1))
    log_z = c * y[:, None] + kanter_log_a(beta, u)[None, :]
    weights = ((np.exp(0.5 * dim * y[:, None] + log_z - np.exp(log_z)) @ wu) * wy
               * (c / np.pi * (4.0 * np.pi) ** (-dim / 2.0)))
    quarter_ey = 0.25 * np.exp(y)

    def head(r):
        r = np.asarray(r, dtype=float)
        out = np.empty(r.shape)
        for i0 in range(0, r.size, 128):  # blocks keep the (radius, y) scratch small
            out[i0:i0 + 128] = np.exp(-np.square(r[i0:i0 + 128])[:, None] * quarter_ey[None, :]) @ weights
        return out

    return head
