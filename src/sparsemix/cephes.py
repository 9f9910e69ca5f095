"""Cephes `erfc` in numpy, bitwise equal to scipy.special's.

A port of S. L. Moshier's Cephes library (Methods and Programs for
Mathematical Functions, 1989) as scipy.special ships it: the same coefficient
tables, the same Horner order and the same branch tests.  IEEE arithmetic
(+, -, * and /) rounds alike in numpy and in C, but numpy's own exp does not
always round as the C library's does, so every exp here goes through `math`,
one element at a time, and only where a branch needs it.

Each rational approximation num(x) / den(x) is evaluated by one stacked
Horner loop over both polynomials.  Cephes' `p1evl` (a monic denominator)
becomes a leading 1, and both polynomials are padded to degree 8 with
leading zeros, which leave every finite x's value unchanged: 0 * x + c is c.
"""

from __future__ import annotations

import math

import numpy as np

# erfc: log(DBL_MAX); a larger a^2 underflows exp(-a^2).
MAXLOG = 7.09782712893383996843e2


def _table(num: list[float], den: list[float]) -> np.ndarray:
    """(9, 2) Horner table of num / den, highest power first, for a
    numerator of degree <= 8 and a monic denominator of degree <= 8 (its
    leading 1 left out, as in Cephes), each padded with leading zeros."""
    den = [1.0, *den]
    return np.array([[0.0] * (9 - len(c)) + c for c in (num, den)]).T


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


def _libm_exp(x: np.ndarray) -> np.ndarray:
    """math.exp of every element of the 1-d array x."""
    return np.fromiter(map(math.exp, x.tolist()), float, x.size)


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
        ez, x = _libm_exp(z[live]), x[live]
        y[live] = _ratio(x, _ERFC_P, ez)
        far = np.flatnonzero(~(x < 8.0))
        if far.size:
            y[live[far]] = _ratio(x[far], _ERFC_R, ez[far])
        out[k] = np.where(a < 0.0, 2.0 - y, y)
    return out.reshape(shape)
