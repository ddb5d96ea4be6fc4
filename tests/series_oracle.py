"""The series helpers as they were before the raw form: every coefficient an
``Element`` and every scalar step one ``Element`` operation.  Kept as an
independent oracle for ``defo5.series``, whose helpers work on table
indices or unreduced coordinate vectors instead."""


def mul(ring, a, b, p):
    zero = ring.zero
    z = zero.coords
    out = [zero] * p
    nonzero_b = [(j, bj) for j, bj in enumerate(b[:p]) if bj.coords != z]
    for i, ai in enumerate(a[:p]):
        if ai.coords == z:
            continue
        for j, bj in nonzero_b:
            if i + j >= p:
                break
            out[i + j] = out[i + j] + ai * bj
    return out


def sub(a, b):
    return [x - y for x, y in zip(a, b)]


def compose(ring, g, f, p):
    out = [ring.zero] * p
    for gi in reversed(list(g)):
        out = mul(ring, out, f, p)
        out[0] = out[0] + gi
    return out


def derivative(ring, g, p):
    out = [g[i] * i for i in range(1, len(g))]
    out = out + [ring.zero] * (p - len(out))
    return out[:p]


def div(ring, f, g, p):
    inv_g0 = g[0].inv()
    q = []
    for n in range(p):
        acc = f[n] if n < len(f) else ring.zero
        for i in range(1, n + 1):
            if i < len(g):
                acc = acc - g[i] * q[n - i]
        q.append(acc * inv_g0)
    return q


def sqrt(ring, s, branch=None):
    """The square-root recurrence on the coefficient list ``s``."""
    r0 = s[0].sqrt(branch)
    inv_2r0 = (r0 + r0).inv()
    r = [r0]
    for n in range(1, len(s)):
        acc = s[n]
        for i in range(1, n):
            acc = acc - r[i] * r[n - i]
        r.append(acc * inv_2r0)
    return r


def comp_inverse(ring, g):
    """The Newton loop of ``TruncatedSeries.comp_inverse`` on the
    coefficient list ``g``, before the cut to its guaranteed precision."""
    P, e = len(g), ring.nilpotency_index
    c0, c1 = g[0], g[1]
    gp = derivative(ring, g, P)
    inv_c1 = c1.inv()
    h = [(-c0) * inv_c1, inv_c1] + [ring.zero] * (P - 2)
    tvec = [ring.zero, ring.one] + [ring.zero] * (P - 2)
    for _ in range(8 * (P + e)):
        err = sub(compose(ring, g, h, P), tvec)
        if all(c == ring.zero for c in err):
            return h
        h = sub(h, div(ring, err, compose(ring, gp, h, P), P))
    raise AssertionError("Newton iteration stalled")
