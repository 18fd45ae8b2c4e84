"""Point evaluation of polynomials, shared by the tests that put a point on
a scheme and check that every generator vanishes there."""


def evaluate(f, point):
    """Value of the MultiPoly f at a full point, a mapping from each ring
    variable's name to a field element."""
    field = f.ring.field
    vals = [field.coerce(point[n]) for n in f.ring.names]
    acc = field.zero
    for e, c in f.terms.items():
        v = c
        for i, exp in enumerate(e):
            if exp:
                if field.p:
                    v = (v * pow(vals[i], exp, field.p)) % field.p
                else:
                    v = v * vals[i] ** exp
        acc = field.add(acc, v)
    return acc
