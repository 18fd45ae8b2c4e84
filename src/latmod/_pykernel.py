"""Pure-Python exact polynomial kernel.

Polynomials are lists of ``(key, coeff)`` pairs sorted descending by key,
where keys are packed monomials (see packing.py) and coefficients are
nonzero ints: reduced residues for GF(p), arbitrary integers for the
characteristic-0 path (which runs fraction-free; rational results are
recovered from the returned multiplier pair).
"""

from __future__ import annotations

import heapq
import os
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
    ``pairs`` is not modified; the old pairs kept come first, in order.
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


def _remainder(f, G, index, pk, p):
    """The normalized remainder of f modulo G, ``[]`` for zero; ``index``
    is the ``DivisorIndex`` over the leads of G."""
    r = nf(f, G, pk, p, index)[0] if f else []
    return normalize_mod(r, p) if p else normalize_int(r)


# The queue length at which a buchberger call forks its helper, and the
# pairs per round: the parent keeps the first WINDOW pairs of the queue that
# the helper has not answered, and the helper reduces the next WINDOW.
SPECULATE_AT = 512
WINDOW = 32


def usable_cpus():
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _fork_context():
    """The fork context if a helper process may start here, else None.

    It needs more than one usable CPU, a process that is no
    multiprocessing child (a ``--jobs`` worker or another helper), no other
    thread (fork can deadlock the child on a lock a thread held) and the
    fork start method.
    """
    if usable_cpus() < 2:
        return None
    # Imported here, not at the top: an eager import costs every process
    # peak RSS and set-up time, helper or not.
    import multiprocessing
    import threading

    if (
        multiprocessing.parent_process() is not None
        or threading.active_count() > 1
        or "fork" not in multiprocessing.get_all_start_methods()
    ):
        return None
    return multiprocessing.get_context("fork")


def _helper_loop(conn, parent_end, G, index, pk, p):
    """The helper process: reduce the S-pairs the parent sends against the
    part of G it has sent.

    Each message is ``(elements appended to G since the last one, pairs)``.
    Each pair is answered as soon as it is done with ``(pair, r)``: the
    normalized remainder, ``[]`` for zero, or None when the reduction
    raised, which the parent then repeats and raises itself.  The loop ends
    when the parent closes its end of the pipe.
    """
    import signal

    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent stops the helper
    try:
        while True:
            new, pairs = conn.recv()
            for g in new:
                G.append(g)
                index.append(g[0][0])
            for pair in pairs:
                L, i, j = pair
                try:
                    r = _remainder(spoly(G[i], G[j], L, pk, p), G, index, pk, p)
                except Exception:  # reported to the parent, which raises it
                    r = None
                conn.send((pair, r))
    except (EOFError, ConnectionError):
        pass


class _Helper:
    """The parent's end of a forked ``_helper_loop``.

    ``out`` holds the pairs sent and not answered yet, and ``answers`` the
    replies not taken yet.
    """

    def __init__(self, ctx, G, index, pk, p):
        import select

        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_helper_loop, args=(child, self.conn, G, index, pk, p))
        self.proc.start()
        child.close()
        # One poll object for the whole call: Connection.poll builds a
        # selector on every call, several times the cost of the test.
        self.ready = select.poll()
        self.ready.register(self.conn.fileno(), select.POLLIN)
        self.sent = len(G)  # elements of G the helper holds
        self.out = set()
        self.answers = {}
        self.alive = True

    def _receive(self):
        try:
            pair, r = self.conn.recv()
        except (EOFError, ConnectionError):
            self._lost()
        else:
            self.out.discard(pair)
            self.answers[pair] = r

    def _lost(self):
        """The helper is gone (killed, say): the parent reduces the pairs
        it held, and sends no more."""
        self.out.clear()
        self.alive = False

    def feed(self, G, queue):
        """Take the replies that have come; when none is out, send the new
        elements of G and the pairs ranked WINDOW + 1 to 2 WINDOW among
        those not answered in ``queue``, sorted descending."""
        while self.out and self.ready.poll(0):
            self._receive()
        if self.out or not self.alive:
            return
        answers = self.answers
        ranked = [q for q in reversed(queue[-2 * WINDOW - len(answers):]) if q not in answers]
        pairs = ranked[WINDOW:2 * WINDOW]
        if pairs:
            try:
                self.conn.send((G[self.sent:], pairs))
            except ConnectionError:
                self._lost()
            else:
                self.sent = len(G)
                self.out.update(pairs)

    def take(self, pair):
        """The helper's remainder for ``pair``, waited for while it is out;
        None when the pair was not sent or its reduction raised."""
        while pair in self.out:
            self._receive()
        return self.answers.pop(pair, None)

    def close(self):
        self.conn.close()
        self.proc.terminate()
        self.proc.join()


def buchberger(gens, pk, p, pair_limit):
    """Reduced Groebner basis of the ideal spanned by ``gens``.

    Normal selection strategy (smallest lcm first) with the
    Gebauer-Moeller pair criteria.  Raises ResourceLimitError when the
    live pair count exceeds ``pair_limit``.

    When the queue first holds SPECULATE_AT pairs and ``_fork_context``
    allows it, a forked helper reduces queued S-polynomials ahead of the
    parent, against the part G[:g] of G it was sent.  The parent still pops
    every pair in the same order, and finishes each remainder r it gets
    from the helper against all of G.  That appends exactly what the serial
    loop appends, by this lemma.  ``nf`` reduces the largest reducible term
    first, by the lead that ``DivisorIndex.first`` picks, the one with the
    lowest index; the choice depends on the term alone, so ``nf(., G)`` is a
    linear map, up to the scalar it reports.  Each step of the helper's
    reduction reduces a term by the lowest-index lead in G[:g] that divides
    it, which is also the lowest-index one in G, since every index below g
    is below those of G[g:].  So each step is a step of ``nf(., G)`` too,
    and leaves its value unchanged: ``nf(s, G)`` and ``nf(r, G)`` agree up
    to a nonzero scalar, which the normalization removes.  In particular a
    zero r gives zero, and an r with no term divisible by a lead of G comes
    back unchanged.  A helper that dies costs only speed: the parent
    reduces the pairs it held.  The helper is stopped and joined before the
    call returns or raises.
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
    queue = []  # sorted descending, so pop() takes the least (L, i, j)
    for i in range(len(G)):
        queue = _update_pairs(queue, G, lms, i, pk)
    queue.sort(reverse=True)
    helper = None
    gate = True  # the helper's gate is not tried yet
    try:
        while queue:
            if len(queue) > pair_limit:
                raise ResourceLimitError(
                    f"pair queue exceeded {pair_limit} during Buchberger"
                )
            if gate and len(queue) >= SPECULATE_AT:
                gate = False
                ctx = _fork_context()
                if ctx is not None:
                    helper = _Helper(ctx, G, index, pk, p)
            if helper is not None:
                helper.feed(G, queue)
            pair = queue.pop()
            r = helper.take(pair) if helper is not None else None
            if r is None:
                L, i, j = pair
                r = spoly(G[i], G[j], L, pk, p)
            # A helper's remainder is finished against all of G (docstring).
            r = _remainder(r, G, index, pk, p)
            if not r:
                continue
            G.append(r)
            lms.append(r[0][0])
            index.append(r[0][0])
            queue = _update_pairs(queue, G, lms, len(G) - 1, pk)
            queue.sort(reverse=True)
    finally:
        if helper is not None:
            helper.close()
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
