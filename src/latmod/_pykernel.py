"""Pure-Python exact polynomial kernel.

Polynomials are lists of ``(key, coeff)`` pairs sorted descending by key,
where keys are packed monomials (see packing.py) and coefficients are
nonzero ints: reduced residues for GF(p), arbitrary integers for the
characteristic-0 path (which runs fraction-free; rational results are
recovered from the returned multiplier pair).
"""

from __future__ import annotations

import heapq
from math import gcd

from .errors import ResourceLimitError
from .packing import WIDTH, DivisorIndex

KERNEL_KIND = "python"


def content(terms):
    g = 0
    for _, c in terms:
        g = gcd(g, c)
        if g == 1:
            return 1
    return g


def normalize_int(terms):
    """Primitive part with positive leading coefficient."""
    if not terms:
        return terms
    g = content(terms)
    if terms[0][1] < 0:
        g = -g
    if g != 1:
        terms = [(k, c // g) for k, c in terms]
    return terms


def normalize_mod(terms, p):
    """Monic normalization over GF(p)."""
    if not terms:
        return terms
    lc = terms[0][1] % p
    if lc == 1:
        return [(k, c % p) for k, c in terms]
    inv = pow(lc, p - 2, p)
    return [(k, (c * inv) % p) for k, c in terms]


def nf(f, basis, pk, p, index=None):
    """Full normal form of f modulo basis.

    Returns ``(terms, num, den)`` with the invariant
    ``terms == exact_normal_form * num / den`` in characteristic 0; over
    GF(p) the reduction is exact and num == den == 1.  ``index`` is a
    ``DivisorIndex`` over the leads of ``basis``, in order; one is built
    when it is not given.

    ``work`` holds the unreduced terms, and each of its monomials has
    exactly one heap entry: a cancelled monomial keeps coefficient 0 until
    it is popped.  A reducer's products lie below the monomial it reduces,
    so a popped monomial never comes back and the tail comes out in
    descending order.  Over GF(p) the coefficients in ``work`` are reduced
    only when popped.
    """
    if not f:
        return [], 1, 1
    if index is None:
        index = DivisorIndex(pk, [g[0][0] for g in basis])
    first_divisor = index.first
    guard = pk.exp_guard_mask
    pop = heapq.heappop
    push = heapq.heappush
    work = {}
    for k, c in f:
        work[k] = work.get(k, 0) + c
    heap = [-k for k in work]
    heapq.heapify(heap)
    tail = []
    num = 1
    den = 1
    while heap:
        m = -pop(heap)
        c = work.pop(m)
        if p:
            c %= p
        if not c:
            continue
        red = first_divisor(m)
        if red < 0:
            tail.append((m, c))
            continue
        g = basis[red]
        lm, lc = g[0]
        if lc != 1:
            if p:
                c = c * pow(lc, p - 2, p) % p
            else:
                gg = gcd(c, lc)
                a = lc // gg
                c //= gg
                if a < 0:
                    a = -a
                    c = -c
                if a != 1:
                    for k in work:
                        work[k] *= a
                    tail = [(k, v * a) for k, v in tail]
                    num *= a
        # The product of m / lm with a term of key k2 has key d + k2; its
        # overflow shows in the guard bits, tested once for all products.
        d = m - lm
        over = 0
        for k2, c2 in g[1:]:
            kk = d + k2
            over |= kk
            if kk in work:
                work[kk] -= c * c2
            else:
                work[kk] = -c * c2
                push(heap, -kk)
        if over & guard:
            raise OverflowError("monomial product exceeds the packing range")
        # Keep integer growth in check.
        if num != 1 and num.bit_length() > 512:
            g2 = num
            for v in work.values():
                g2 = gcd(g2, v)
                if g2 == 1:
                    break
            else:
                for _, v in tail:
                    g2 = gcd(g2, v)
                    if g2 == 1:
                        break
            if g2 > 1:
                for k in work:
                    work[k] //= g2
                tail = [(k, v // g2) for k, v in tail]
                num //= g2
    if not p:
        g3 = content(tail)
        if g3 > 1:
            if num % g3 == 0:
                num //= g3
            else:
                den *= g3
            tail = [(k, c // g3) for k, c in tail]
        gg = gcd(num, den)
        num //= gg
        den //= gg
    return tail, num, den


def spoly(f, g, L, pk, p):
    """S-polynomial, primitive (char 0) or reduced mod p, of f and g whose
    leads have the lcm L.

    The two lead products cancel by construction and are skipped; the
    others are ``L - lm + k``.
    """
    lmf, lcf = f[0]
    lmg, lcg = g[0]
    df = L - lmf
    dg = L - lmg
    if p:
        a = lcg
        b = lcf
    else:
        gg = gcd(lcf, lcg)
        a = lcg // gg
        b = lcf // gg
    acc = {}
    over = 0
    for k, c in f[1:]:
        kk = df + k
        over |= kk
        acc[kk] = a * c
    for k, c in g[1:]:
        kk = dg + k
        over |= kk
        acc[kk] = acc.get(kk, 0) - b * c
    if over & pk.exp_guard_mask:
        raise OverflowError("monomial product exceeds the packing range")
    if p:
        return sorted(((k, r) for k, c in acc.items() if (r := c % p)), reverse=True)
    return normalize_int(sorted(((k, c) for k, c in acc.items() if c), reverse=True))


def _update_pairs(pairs, G, lms, h_idx, pk):
    """Gebauer-Moeller pair update for the new basis element at h_idx.

    The criteria run on the exponent fields ``y = key & m`` (M - e per
    field): b divides a iff ``((y_b | g) - y_a) & g == g``, two lcm keys
    are equal iff their fields are, and the fields of an lcm are the
    per-field minimum.  Lcm keys are built only for the new pairs kept.
    ``pairs`` is not modified.
    """
    g = pk.exp_guard_mask
    m = pk.exp_all_mask
    lmh = lms[h_idx]
    yh = lmh & m
    xh = yh | g
    # The fields of lcm(lm_i, lm_h), by the minimum step of Packing.lcm.
    cand = []
    for lm in lms[:h_idx]:
        y = lm & m
        t = (xh - y) & g
        cand.append(yh ^ ((yh ^ y) & (t - (t >> (WIDTH - 1)))))
    # B criterion: drop old pairs whose lcm is strictly refined through h.
    kept = [
        (L, i, j)
        for (L, i, j) in pairs
        if (xh - (y := L & m)) & g != g or cand[i] == y or cand[j] == y
    ]
    # F criterion: among equal lcms only the first candidate counts.  Zipped
    # backwards, the lowest index of each lcm is the one written last.
    first = dict(zip(reversed(cand), range(h_idx - 1, -1, -1)))
    # M criterion: drop candidates whose lcm is a proper multiple of another.
    # A proper divisor has fields >= and so a larger y: going down through
    # the distinct y, each needs testing only against the minimal ones so far.
    xs = []
    new = []
    for y in sorted(first, reverse=True):
        for x in xs:
            if (x - y) & g == g:
                break
        else:
            xs.append(y | g)
            new.append(first[y])
    # Buchberger's coprimality criterion on the pairs left.
    new.sort()
    lcm = pk.lcm
    coprime = pk.coprime
    for i in new:
        if not coprime(lms[i], lmh):
            kept.append((lcm(lms[i], lmh), i, h_idx))
    return kept


def buchberger(gens, pk, p, pair_limit):
    """Reduced Groebner basis of the ideal spanned by ``gens``.

    Normal selection strategy (smallest lcm first) with the
    Gebauer-Moeller pair criteria.  Raises ResourceLimitError when the
    live pair count exceeds ``pair_limit``.
    """
    G = []
    for f in gens:
        ff = normalize_mod(f, p) if p else normalize_int(f)
        ff = [(k, c) for k, c in ff if c]
        if ff:
            G.append(ff)
    G.sort(key=lambda g: g[0][0])
    # Dedup identical generators.
    uniq = []
    for g in G:
        if not uniq or uniq[-1] != g:
            uniq.append(g)
    G = uniq
    lms = [g[0][0] for g in G]
    index = DivisorIndex(pk, lms)
    heap = []
    for i in range(len(G)):
        heap = _update_pairs(heap, G, lms, i, pk)
    heapq.heapify(heap)
    while heap:
        if len(heap) > pair_limit:
            raise ResourceLimitError(
                f"pair queue exceeded {pair_limit} during Buchberger"
            )
        L, i, j = heapq.heappop(heap)
        s = spoly(G[i], G[j], L, pk, p)
        if not s:
            continue
        r, _, _ = nf(s, G, pk, p, index)
        if not r:
            continue
        r = normalize_mod(r, p) if p else normalize_int(r)
        G.append(r)
        lms.append(r[0][0])
        index.append(r[0][0])
        heap = _update_pairs(heap, G, lms, len(G) - 1, pk)
        heapq.heapify(heap)
    return interreduce(G, pk, p)


def interreduce(basis, pk, p):
    """Minimal + fully reduced + normalized basis, sorted by lead desc.

    ``basis`` must be a Groebner basis.  Going up by lead, an element is
    kept iff no kept lead divides its own.  Whatever reduces a tail term
    then has a lead below the element's, so each kept element needs
    reducing only against the already reduced ones before it, through one
    ``DivisorIndex`` over the kept leads.
    """
    basis = sorted((b for b in basis if b), key=lambda g: g[0][0])
    minimal = []
    index = DivisorIndex(pk)
    for g in basis:
        lm = g[0][0]
        if any(pk.divides(h[0][0], lm) for h in minimal):
            continue
        r = nf(g, minimal, pk, p, index)[0] if minimal else g
        r = normalize_mod(r, p) if p else normalize_int(r)
        # Keep the original when nothing changed: the caller may still hold it.
        minimal.append(g if r == g else r)
        index.append(lm)
    minimal.reverse()
    return minimal
