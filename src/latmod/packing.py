"""Packed-integer monomials.

A monomial is stored as a single Python int laid out so that plain integer
comparison realizes the monomial order.  Field layout (most significant
first), with W-bit fields and one guard bit per exponent field:

* grevlex over n variables:  [deg | M-e_n | M-e_{n-1} | ... | M-e_1]
* lex:                       [e_1 | e_2 | ... | e_n]
* block(k), grevlex twice:   [deg(e_1..e_k) | M-e_k ... M-e_1 |
                              deg(e_{k+1}..e_n) | M-e_n ... M-e_{k+1}]

Storing M - e (with M = 2**(W-1) - 1) makes the within-degree comparison
come out reverse-lexicographic on the reversed variable list, which is
exactly grevlex.  Multiplication of monomials is then key addition minus a
constant, and divisibility is the classic guard-bit borrow test.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

WIDTH = 16
GUARD = 1 << (WIDTH - 1)
MAXE = GUARD - 1
FIELD_MASK = (1 << WIDTH) - 1


class Packing:
    """Layout data for one (nvars, order) combination.

    ``order`` is "grevlex", "lex", or ("block", k) meaning: the first k
    variables form an elimination block, graded-reverse-lex inside each
    block.
    """

    __slots__ = (
        "nvars",
        "order",
        "shifts",
        "deg_shifts",
        "mul_offset",
        "exp_guard_mask",
        "exp_all_mask",
        "negated",
    )

    def __init__(self, nvars: int, order):
        self.nvars = nvars
        self.order = order
        shifts: List[int] = [0] * nvars
        deg_shifts: List[Tuple[int, Sequence[int]]] = []
        pos = 0
        if order == "lex":
            self.negated = False
            for i in reversed(range(nvars)):
                shifts[i] = pos
                pos += WIDTH
        elif order == "grevlex":
            self.negated = True
            for i in range(nvars):
                shifts[i] = pos
                pos += WIDTH
            deg_shifts.append((pos, range(nvars)))
            pos += WIDTH + 8
        elif isinstance(order, tuple) and order[0] == "block":
            self.negated = True
            k = order[1]
            if not 0 < k < nvars:
                raise ValueError("block split out of range")
            for i in range(k, nvars):
                shifts[i] = pos
                pos += WIDTH
            deg_shifts.append((pos, range(k, nvars)))
            pos += WIDTH + 8
            for i in range(k):
                shifts[i] = pos
                pos += WIDTH
            deg_shifts.append((pos, range(k)))
            pos += WIDTH + 8
        else:
            raise ValueError(f"unknown monomial order: {order!r}")
        self.shifts = tuple(shifts)
        self.deg_shifts = tuple((s, tuple(ix)) for s, ix in deg_shifts)
        guard = 0
        offset = 0
        allmask = 0
        for s in shifts:
            guard |= GUARD << s
            offset |= MAXE << s
            allmask |= FIELD_MASK << s
        self.exp_guard_mask = guard
        self.exp_all_mask = allmask
        self.mul_offset = offset if self.negated else 0

    def pack(self, exps: Sequence[int]) -> int:
        if len(exps) != self.nvars:
            raise ValueError("exponent tuple has wrong length")
        key = 0
        if self.negated:
            for e, s in zip(exps, self.shifts):
                if not 0 <= e <= MAXE:
                    raise OverflowError(f"exponent {e} out of packing range")
                key |= (MAXE - e) << s
            for s, ix in self.deg_shifts:
                key |= sum(exps[i] for i in ix) << s
        else:
            for e, s in zip(exps, self.shifts):
                if not 0 <= e <= MAXE:
                    raise OverflowError(f"exponent {e} out of packing range")
                key |= e << s
        return key

    def unpack(self, key: int) -> Tuple[int, ...]:
        if self.negated:
            return tuple(MAXE - ((key >> s) & FIELD_MASK) for s in self.shifts)
        return tuple((key >> s) & FIELD_MASK for s in self.shifts)

    def exponent(self, key: int, i: int) -> int:
        v = (key >> self.shifts[i]) & FIELD_MASK
        return MAXE - v if self.negated else v

    def mul(self, a: int, b: int) -> int:
        key = a + b - self.mul_offset
        if key & self.exp_guard_mask:
            raise OverflowError("monomial product exceeds the packing range")
        return key

    def divides(self, b: int, a: int) -> bool:
        """True iff monomial b divides monomial a."""
        if self.negated:
            x, y = b, a
        else:
            x, y = a, b
        g = self.exp_guard_mask
        m = self.exp_all_mask
        return (((x & m) | g) - (y & m)) & g == g

    def first_divisor(self, leads: Sequence[int]) -> Callable[[int], int]:
        """Finder for the index of the first key in ``leads`` dividing a key.

        The returned function maps ``a`` to the least ``i`` with
        ``divides(leads[i], a)``, or -1 when there is none.  The masked
        lead keys are computed once, so each query is one borrow test per
        lead.
        """
        g = self.exp_guard_mask
        m = self.exp_all_mask
        if self.negated:
            xs = [(b & m) | g for b in leads]

            def find(a: int) -> int:
                y = a & m
                for i, x in enumerate(xs):
                    if (x - y) & g == g:
                        return i
                return -1

        else:
            ys = [b & m for b in leads]

            def find(a: int) -> int:
                x = (a & m) | g
                for i, y in enumerate(ys):
                    if (x - y) & g == g:
                        return i
                return -1

        return find

    def quotient(self, a: int, b: int) -> int:
        """Key of a/b; caller must know b | a."""
        return a - b + self.mul_offset

    def lcm(self, a: int, b: int) -> int:
        ea = self.unpack(a)
        eb = self.unpack(b)
        return self.pack(tuple(max(x, y) for x, y in zip(ea, eb)))

    def coprime(self, a: int, b: int) -> bool:
        for s in self.shifts:
            ea = (a >> s) & FIELD_MASK
            eb = (b >> s) & FIELD_MASK
            if self.negated:
                if ea != MAXE and eb != MAXE:
                    return False
            else:
                if ea and eb:
                    return False
        return True

    def total_degree(self, key: int) -> int:
        return sum(self.exponent(key, i) for i in range(self.nvars))

    @property
    def one(self) -> int:
        return self.pack((0,) * self.nvars)


_cache: dict = {}


def get_packing(nvars: int, order) -> Packing:
    k = (nvars, order)
    p = _cache.get(k)
    if p is None:
        p = _cache[k] = Packing(nvars, order)
    return p
