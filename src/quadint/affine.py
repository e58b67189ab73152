"""Affine forms for exprdsl.enclose_affine, which imports this module when
it is called.  Only the C^1 distance of `quadint continuity` runs the
affine walk, so a `check` or `solve` process never compiles it.

An affine form (de Figueiredo & Stolfi, "Affine arithmetic: concepts and
applications", Numer. Algorithms 37, 2004) is a dict of arrays over the
boxes: key None holds the centre, key -j the coefficient of z_j's symbol,
key vn that of node vn's; each symbol ranges over [-1, 1].  What a node
leaves out of its linear part and every rounding error go into its own
symbol.  A margin |v| _WIDEN + _TINY is 4 times the error of an operation
that rounded to v or more, so the rounding of a sum of margins cannot lose
what they cover; a sum rounds by at most 2^-53 |v|, so its margin is
|v| _WIDEN, and 0 when it is exactly 0.
"""

from __future__ import annotations

import numpy as np

from .exprdsl import (_SIGNS, _TINY, _WIDEN, Add, Call, Div, Mul, Neg, Pow, Sub, Var,
                      _outward)


def cut(node: tuple, vn: int, forms: list, ranges: list, interval: np.ndarray) -> np.ndarray:
    """Append the form of numbered node vn, whose interval is `interval`,
    to `forms`, and return the interval cut to the range of the form."""
    forms.append(_affine(node, vn, forms, ranges, interval))
    r = _radius(forms[-1])
    ends = forms[-1][None] + r * _SIGNS
    ends = np.where(r > 0, _outward(ends), ends)
    return np.stack([np.maximum(interval[0], ends[0]), np.minimum(interval[1], ends[1])])


def _margin(v):
    return np.abs(v) * _WIDEN + _TINY


def _split(v: np.ndarray) -> tuple:
    """A centre of the interval v and a radius that reaches both its ends."""
    m = 0.5 * v[0] + 0.5 * v[1]
    r = np.maximum(v[1] - m, m - v[0])
    return m, r + r * _WIDEN


def _absorb(form: dict, vn: int, err) -> dict:
    """Add err >= 0 to |coefficient of vn's symbol|, rounded up."""
    s = np.abs(form.get(vn, 0.0)) + err
    form[vn] = s + s * _WIDEN
    return form


def _radius(form: dict):
    """The sum of the coefficients' magnitudes, rounded up: a sum of m
    terms rounds below itself by less than (m - 1) 2^-53 of it."""
    terms = [np.abs(v) for k, v in form.items() if k is not None]
    total = sum(terms, 0.0) * (1.0 + len(terms) * 2.0 ** -52)
    return np.where(total > 0, np.nextafter(total, np.inf), 0.0)


def _affine_sum(x: dict, y: dict, sign: float, vn: int) -> dict:
    out = {k: x.get(k, 0.0) + sign * y.get(k, 0.0) for k in {**x, **y}}
    return _absorb(out, vn, sum(np.abs(v) * _WIDEN for k, v in out.items() if k in x and k in y))


def _affine_product(x: dict, y: dict, vn: int) -> dict:
    """x0 y0 + sum (x0 y_k + y0 x_k) e_k, and rad(x) rad(y) for the rest."""
    x0, y0 = x[None], y[None]
    out = {None: x0 * y0}
    err = _margin(out[None])
    for k in {**x, **y}:
        if k is not None:
            p, q = y0 * x.get(k, 0.0), x0 * y.get(k, 0.0)
            out[k] = s = p + q
            err = err + _margin(p) + _margin(q) + np.abs(s) * _WIDEN
    rr = _radius(x) * _radius(y)
    return _absorb(out, vn, err + rr + _margin(rr))


def _min_range(x: dict, ends: np.ndarray, fn, vn: int) -> dict:
    """fn(x) on the range `ends` of x, for fn = exp, tanh, sqrt or
    reciprocal, each monotone with |fn'| least at an end: alpha x + d,
    alpha that end's slope shrunk by 2^-40, beyond its rounding, so that
    d = fn - alpha x is monotone and lies between its values at the ends,
    or 0 if not finite and normal; d goes to vn."""
    slopes = (np.exp(ends) if fn is np.exp else np.cosh(ends) ** -2.0 if fn is np.tanh
              else 0.5 / np.sqrt(ends) if fn is np.sqrt else -1.0 / (ends * ends))
    alpha = np.where(np.abs(slopes[0]) <= np.abs(slopes[1]), slopes[0], slopes[1])
    alpha = np.where((np.abs(alpha) >= _TINY) & (np.abs(alpha) < np.inf),
                     alpha * (1.0 - 2.0 ** -40), 0.0)
    fe, pe = fn(ends), alpha * ends
    d = fe - pe
    slack = _margin(fe) + _margin(pe) + np.abs(d) * _WIDEN
    m, r = _split(_outward(np.stack([np.min(d - slack, axis=0), np.max(d + slack, axis=0)])))
    out = {k: alpha * v for k, v in x.items()}
    err = sum(_margin(v) for v in out.values())
    out[None] = out[None] + m
    return _absorb(out, vn, r + err + np.abs(out[None]) * _WIDEN)


def _affine(node: tuple, vn: int, forms: list, ranges: list, interval: np.ndarray) -> dict:
    """The form of node vn, whose interval is `interval`."""
    t, a, b, k = node
    if t is Add or t is Sub:
        return _affine_sum(forms[a], forms[b], 1.0 if t is Add else -1.0, vn)
    if t is Neg:
        return {key: -v for key, v in forms[a].items()}
    if t is Mul or (t is Pow and k == 2):
        return _affine_product(forms[a], forms[b if t is Mul else a], vn)
    if t is Div:
        return _affine_product(forms[a], _min_range(forms[b], ranges[b], np.reciprocal, vn), vn)
    if t is Call and k in (np.exp, np.tanh, np.sqrt):
        return _min_range(forms[a], ranges[a], k, vn)
    m, r = _split(interval)  # a literal, a variable, any other power, sin and cos
    return {None: m, -a if t is Var else vn: r}
