"""mpmath oracles for the values the benchmark checks.

Every oracle is computed outside the timed region, at ORACLE_DPS decimal
digits, by a route independent of gkz's quadrature and series code:

* chart integrals -- the integrand is rebuilt from the chart's exponent
  matrix, then
  - on the two-ray orthant of a chart linear in w2, w2 is integrated out
    exactly (a Beta factor) and w1 by a 1-D ``mpmath.quad`` on log scale;
  - on ray x unit circle, the circle is a binomial coefficient extraction
    (the w2 zero lies inside the circle) and the ray a 1-D quadrature;
  - on one-variable charts, each rotated ray is a 1-D quadrature and the
    real line is the positive ray minus the ray at phase -pi;
* classical series -- ``mpmath.hyp2f1`` and ``mpmath.appellf4``; FC(3) is
  a sum over k3 of shifted ``appellf4`` terms.
"""

import math

import mpmath as mp

ORACLE_DPS = 24
# Relative accuracy the oracles claim; the tests hold them to it against
# closed forms.
ORACLE_DIGITS = 18
# -log10 of a relative error reported for a value equal to its oracle
# (and for exact checks that hold): float64 carries about 16 digits.
DIGITS_CAP = 16.0


def digits(value, oracle) -> float:
    """-log10 of the relative error of value against oracle, capped."""
    scale = abs(oracle)
    err = abs(complex(value) - complex(oracle))
    if scale == 0:
        return DIGITS_CAP if err == 0 else 0.0
    rel = err / scale
    if rel == 0:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(rel))


# --------------------------------------------------------------------------
# chart integrals
# --------------------------------------------------------------------------


def _falling(alpha, k):
    out = mp.mpf(1)
    for j in range(k):
        out *= alpha - j
    return out


def _integrand_data(chart, beta, u, measure):
    """(prefactor, block power q, axis powers P) of a derivative integral.

    Mirrors the documented definition of ``derivative_integral``:
    d^u F = prefactor * int f^q prod_k w_k^P_k dw_k / w_k.
    """
    m, r, n = chart["m"], chart["r"], chart["n"]
    if m != 1:
        raise ValueError("oracles cover one-block charts only")
    umat, exps = chart["u_matrix"], chart["exponents"]
    d = len(umat)
    beta_t = [sum(umat[i][k] * mp.mpf(beta[k]) for k in range(d)) for i in range(d)]
    deg = sum(u)
    eu = [sum(exps[k][j] * u[j] for j in range(n)) for k in range(r)]
    pref = _falling(beta_t[0], deg)
    q = beta_t[0] - deg
    powers = [eu[k] - beta_t[1 + k] for k in range(r)]
    if measure == "plain":
        powers = [p + 1 for p in powers]
    return pref, q, powers


def _ray(g, rate_lo, rate_hi):
    """int_0^inf g(t) t^(-1) dt as a log-scale quadrature in y = ln t.

    rate_lo and rate_hi are the exponential decay rates of the
    integrand in y at -inf and +inf; they fix the subdivision points.
    """
    rate_lo, rate_hi = max(rate_lo, 0.05), max(rate_hi, 0.05)
    # past the outer points the exponential tails have fallen by e^-span
    span = ORACLE_DPS * math.log(10) + 10
    pts = [-span / rate_lo, -span / (4 * rate_lo), 0, span / (4 * rate_hi), span / rate_hi]
    return mp.quad(lambda y: g(mp.exp(y)), pts)


def chart_integral(chart, beta, x, u, cycle, measure="log"):
    """Oracle for ``derivative_integral(sf, beta, x, u, cycle, ...)``.

    chart: dict from ``chart_data``; cycle: tuple of ("ray", phase) or
    ("circle",) / ("line",) axis descriptors.
    """
    with mp.workdps(ORACLE_DPS):
        pref, q, powers = _integrand_data(chart, beta, u, measure)
        if pref == 0:
            return 0j
        xs = [mp.mpmathify(complex(v)) for v in x]
        if chart["r"] == 1:
            val = _one_axis(chart, xs, q, powers[0], cycle[0])
        elif chart["r"] == 2:
            val = _linear_in_w2(chart, xs, q, powers, cycle)
        else:
            raise ValueError("oracles cover charts with r <= 2")
        return complex(pref * val)


def _one_axis(chart, xs, q, p, axis):
    exps = chart["exponents"][0]

    def ray(theta):
        rot = mp.expj(theta)

        def g(t):
            w = rot * t
            f = sum(c * w**e for c, e in zip(xs, exps))
            return mp.exp(q * mp.log(f)) * t**p

        top = max(exps)
        rate_hi = -(p + top * mp.re(q))
        return mp.expj(theta * p) * _ray(g, mp.re(p), rate_hi)

    kind = axis[0]
    if kind == "ray":
        return ray(mp.mpf(axis[1]))
    if kind == "line":
        return ray(0) - ray(-mp.pi)
    raise ValueError(f"no one-axis oracle for {axis!r}")


def _linear_in_w2(chart, xs, q, powers, cycle):
    e1, e2 = chart["exponents"]
    if any(v not in (0, 1) for v in e2):
        raise ValueError("oracle needs a chart linear in w2")
    if cycle[0] != ("ray", 0.0):
        raise ValueError("oracle needs the positive ray on w1")
    p1, p2 = powers
    low = [(c, a) for c, a, b in zip(xs, e1, e2) if b == 0]
    high = [(c, a) for c, a, b in zip(xs, e1, e2) if b == 1]

    def coeffs(w):
        a = sum(c * w**k for c, k in low)
        b = sum(c * w**k for c, k in high)
        return a, b

    if cycle[1] == ("ray", 0.0):
        # int_0^inf (A + B w2)^q w2^p2 dw2/w2 = A^(q+p2) B^(-p2) B(p2, -q-p2)
        factor = mp.beta(p2, -q - p2)

        def g(t):
            a, b = coeffs(t)
            return a ** (q + p2) * b ** (-p2) * t**p1

    elif cycle[1] == ("circle",):
        # zero of A + B w2 inside the circle: expand in A / (B w2); the
        # residue keeps the term with w2 power -p2
        j = int(mp.nint(mp.re(q + p2)))
        qi = int(mp.nint(mp.re(q)))
        if abs(q - qi) > mp.mpf(10) ** (-20) or abs(q + p2 - j) > mp.mpf(10) ** (-20):
            raise ValueError("circle oracle needs integer powers")
        if j < 0:
            return mp.mpc(0)
        factor = 2j * mp.pi * _falling(mp.mpf(qi), j) / mp.factorial(j)

        def g(t):
            a, b = coeffs(t)
            return a**j * b ** (qi - j) * t**p1

    else:
        raise ValueError(f"no oracle for w2 cycle {cycle[1]!r}")
    # |A^(q+p2) B^(-p2)| and |A^j B^(q-j)| both grow like t^(top q)
    top = max(k for _, k in low + high)
    rate_hi = -(mp.re(p1) + top * mp.re(q))
    return factor * _ray(g, mp.re(p1), rate_hi)


def chart_data(sf) -> dict:
    """Plain-data copy of a gkz StandardForm, the oracle's only input."""
    return {
        "m": sf.m,
        "r": sf.r,
        "n": sf.base.n,
        "u_matrix": tuple(tuple(int(v) for v in row) for row in sf.u_matrix),
        "exponents": tuple(tuple(int(v) for v in row) for row in sf.exponents),
    }


# --------------------------------------------------------------------------
# classical series
# --------------------------------------------------------------------------


def _fc3(a, b, cs, ys):
    """FC(3) as a sum over k3 of shifted Appell F4 terms."""
    total = mp.mpf(0)
    term = mp.mpf(1)
    k3 = 0
    while True:
        piece = term * mp.appellf4(a + k3, b + k3, cs[0], cs[1], ys[0], ys[1])
        total += piece
        if k3 > 3 and abs(piece) < abs(total) * mp.mpf(10) ** (-ORACLE_DPS + 2):
            return total
        term *= (a + k3) * (b + k3) / ((cs[2] + k3) * (k3 + 1)) * ys[2]
        k3 += 1
        if k3 > 400:
            raise ArithmeticError("FC(3) oracle did not settle")


def classical_value(series, params, args, pref_exponents, x):
    """Oracle for ``classical_solution``: prod x_j^e_j times the series."""
    with mp.workdps(ORACLE_DPS):
        p = {k: mp.mpf(v) for k, v in params.items()}
        ys = [mp.mpf(v) for v in args]
        pref = mp.mpf(1)
        for xj, e in zip(x, pref_exponents):
            if e != 0:
                pref *= mp.power(mp.mpf(xj), mp.mpf(e))
        if series == "2f1":
            val = mp.hyp2f1(p["a"], p["b"], p["c"], ys[0])
        elif series == "f4":
            val = mp.appellf4(p["a"], p["b"], p["c"], p["cp"], ys[0], ys[1])
        elif len(ys) == 1:
            val = mp.hyp2f1(p["a"], p["b"], p["c1"], ys[0])
        elif len(ys) == 2:
            val = mp.appellf4(p["a"], p["b"], p["c1"], p["c2"], ys[0], ys[1])
        else:
            val = _fc3(p["a"], p["b"], (p["c1"], p["c2"], p["c3"]), ys)
        return complex(pref * val)
