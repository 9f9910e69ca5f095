"""Cephes `ndtri` and `erfc` in numpy, bitwise equal to scipy.special's.

Ports of S. L. Moshier's Cephes library (Methods and Programs for
Mathematical Functions, 1989) as scipy.special ships it: the same coefficient
tables, the same Horner order and the same branch tests.  IEEE arithmetic
(+, -, *, / and sqrt) rounds alike in numpy and in C, but numpy's own log and
exp do not always round as the C library's do, so every log and exp here goes
through `math`, one element at a time, and only where a branch needs it.

Each rational approximation num(x) / den(x) is evaluated by one stacked
Horner loop over both polynomials.  Cephes' `p1evl` (a monic denominator)
becomes a leading 1, and both polynomials are padded to degree 8 with
leading zeros, which leave every finite x's value unchanged: 0 * x + c is c.
"""

from __future__ import annotations

import math

import numpy as np

# ndtri: sqrt(2 pi), and exp(-2), where the tail branch takes over.
_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189
_ONE_MINUS_EXP_M2 = 1.0 - _EXP_M2
# erfc: log(DBL_MAX); a larger a^2 underflows exp(-a^2).
MAXLOG = 7.09782712893383996843e2


def _table(num: list[float], den: list[float]) -> np.ndarray:
    """(9, 2) Horner table of num / den, highest power first, for a
    numerator of degree <= 8 and a monic denominator of degree <= 8 (its
    leading 1 left out, as in Cephes), each padded with leading zeros."""
    den = [1.0, *den]
    return np.array([[0.0] * (9 - len(c)) + c for c in (num, den)]).T


# ndtri, 0 <= |y - 1/2| <= 3/8
_NDTRI_0 = _table(
    [-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
     1.39312609387279679503e1, -1.23916583867381258016e0],
    [1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
     -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
     1.59056225126211695515e1, -1.18331621121330003142e0],
)
# ndtri, z = sqrt(-2 log y) in [2, 8): exp(-32) < y <= exp(-2)
_NDTRI_1 = _table(
    [4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
     4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
     -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4],
    [1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
     1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
     -3.80806407691578277194e-2, -9.33259480895457427372e-4],
)
# ndtri, z in [8, 64): y <= exp(-32)
_NDTRI_2 = _table(
    [3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
     1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
     3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9],
    [6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
     2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
     2.89247864745380683936e-6, 6.79019408009981274425e-9],
)
# erf, |x| < 1, in z = x^2
_ERF = _table(
    [9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
     7.00332514112805075473e3, 5.55923013010394962768e4],
    [3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
     2.26290000613890934246e4, 4.92673942608635921086e4],
)
# erfc, 1 <= |x| < 8
_ERFC_P = _table(
    [2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
     4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
     9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2],
    [1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
     9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
     1.65666309194161350182e3, 5.57535340817727675546e2],
)
# erfc, |x| >= 8
_ERFC_R = _table(
    [5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
     6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0],
    [2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
     1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0],
)


def _ratio(x: np.ndarray, table: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """(scale * num(x)) / den(x) for the rational function of `table`,
    elementwise, in the order Cephes writes it; numerator and denominator
    run side by side in one flat array."""
    n = x.size
    coef = np.repeat(table, n, axis=1)
    xx = np.concatenate((x, x))
    acc = coef[0] * xx
    acc += coef[1]
    for c in coef[2:]:
        acc *= xx
        acc += c
    return scale * acc[:n] / acc[n:]


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """fn (math.log or math.exp) of every element of the 1-d array x."""
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def ndtri(y0) -> np.ndarray:
    """Inverse of the standard normal CDF, elementwise: -inf at 0, inf at 1,
    nan outside [0, 1]."""
    y = np.asarray(y0, dtype=float)
    inside = (y > 0.0) & (y < 1.0)
    if np.count_nonzero(inside) < y.size:
        out = np.where(y == 0.0, -np.inf, np.where(y == 1.0, np.inf, np.nan))
        out[inside] = ndtri(y[inside])
        return out
    shape, y = y.shape, y.ravel()
    out = np.empty(y.size)
    flip = y > _ONE_MINUS_EXP_M2
    y = np.where(flip, 1.0 - y, y)
    central = y > _EXP_M2
    k = np.flatnonzero(central)
    if k.size:
        # (c + c (c^2 P0(c^2) / Q0(c^2))) sqrt(2 pi), c = y - 1/2
        c = y[k] - 0.5
        c2 = c * c
        out[k] = (c + c * _ratio(c2, _NDTRI_0, c2)) * _S2PI
    k = np.flatnonzero(~central)
    if k.size:
        # x = sqrt(-2 log y), then x - log(x) / x - z P(z) / Q(z), z = 1/x,
        # with P2 / Q2 from x = 8 on, negated unless y was reflected
        x = np.sqrt(-2.0 * _libm(math.log, y[k]))
        x0 = x - _libm(math.log, x) / x
        z = 1.0 / x
        x1 = _ratio(z, _NDTRI_1, z)
        far = np.flatnonzero(x >= 8.0)
        if far.size:
            x1[far] = _ratio(z[far], _NDTRI_2, z[far])
        x = x0 - x1
        out[k] = np.where(flip[k], x, -x)
    return out.reshape(shape)


def erfc(a) -> np.ndarray:
    """Complementary error function, elementwise."""
    a = np.asarray(a, dtype=float)
    shape, a = a.shape, a.ravel()
    out = np.empty(a.size)
    x = np.abs(a)
    small = x < 1.0
    k = np.flatnonzero(small)
    if k.size:
        # 1 - erf(a), erf(a) = (a T(a^2)) / U(a^2)
        s = a[k]
        out[k] = 1.0 - _ratio(s * s, _ERF, s)
    k = np.flatnonzero(~small)
    if k.size:
        # (exp(-a^2) P(|a|)) / Q(|a|), R / S from |a| = 8 on, reflected to
        # 2 - y below 0; 0 (2 below 0) where a^2 > MAXLOG underflows
        a, x = a[k], x[k]
        with np.errstate(over="ignore"):
            z = -a * a
        y = np.zeros(a.size)
        live = np.flatnonzero(~(z < -MAXLOG))
        ez, x = _libm(math.exp, z[live]), x[live]
        y[live] = _ratio(x, _ERFC_P, ez)
        far = np.flatnonzero(~(x < 8.0))
        if far.size:
            y[live[far]] = _ratio(x[far], _ERFC_R, ez[far])
        out[k] = np.where(a < 0.0, 2.0 - y, y)
    return out.reshape(shape)
