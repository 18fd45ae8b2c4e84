"""Packed-integer monomials.

A monomial is stored as a single Python int laid out so that plain integer
comparison realizes the monomial order.  There are two layouts (most
significant field first), with W-bit fields and one guard bit per exponent
field:

* grevlex over n variables:  [deg | M-e_n | M-e_{n-1} | ... | M-e_1]
* block(k), grevlex twice:   [deg(e_1..e_k) | M-e_k ... M-e_1 |
                              deg(e_{k+1}..e_n) | M-e_n ... M-e_{k+1}]

Storing M - e (with M = 2**(W-1) - 1) makes the within-degree comparison
come out reverse-lexicographic on the reversed variable list, which is
exactly grevlex.  Multiplication of monomials is then key addition minus a
constant, and divisibility is the classic guard-bit borrow test.

Degree fields are W + 8 bits wide.  Masked to its exponent fields, a key
of either layout holds M - e per field, so divisibility, lcm and
coprimality are the same field-parallel (SWAR) operations on both: ``b | a``
iff each field of b is >= that of a, and the lcm takes the per-field
minimum.

``DivisorIndex`` answers the reduction's question "which is the first lead
dividing this monomial?" without a pass over the leads.  It cuts the
exponent fields into chunks of CHUNK adjacent fields, never across a
degree field.  A lead fails to divide a monomial iff it fails on some
chunk, so each chunk keeps a memo from the chunk's raw key bits to the
bitset (a Python int over lead indices) of the leads failing there.  A
query ORs one memo entry per chunk and returns the lowest index left
clear.  An entry is filled on first use with one borrow test per lead, and
an appended lead sets its bit in every entry it fails; a lead with zero
exponents throughout a chunk never fails there and skips it.  Memos hold
only chunk values that were queried, so nothing is allocated per exponent
value.
"""

from __future__ import annotations

import struct
from operator import itemgetter
from typing import Iterable, List, Sequence, Tuple

WIDTH = 16
GUARD = 1 << (WIDTH - 1)
MAXE = GUARD - 1
FIELD_MASK = (1 << WIDTH) - 1
DEG_WIDTH = WIDTH + 8
DEG_MASK = (1 << DEG_WIDTH) - 1
# exponent fields per DivisorIndex chunk
CHUNK = 8


class Packing:
    """Layout data for one (nvars, order) combination.

    ``order`` is "grevlex", or ("block", k) meaning: the first k variables
    form an elimination block, graded-reverse-lex inside each block.
    """

    __slots__ = (
        "nvars",
        "order",
        "shifts",
        "deg_shifts",
        "mul_offset",
        "exp_guard_mask",
        "exp_all_mask",
        "nonzero_base",
        "deg_runs",
        "_nbytes",
        "_fields",
        "_to_vars",
    )

    def __init__(self, nvars: int, order):
        self.nvars = nvars
        self.order = order
        shifts: List[int] = [0] * nvars
        deg_shifts: List[Tuple[int, Sequence[int]]] = []
        pos = 0
        if order == "grevlex":
            for i in range(nvars):
                shifts[i] = pos
                pos += WIDTH
            deg_shifts.append((pos, range(nvars)))
            pos += DEG_WIDTH
        elif isinstance(order, tuple) and len(order) == 2 and order[0] == "block":
            k = order[1]
            if not 0 < k < nvars:
                raise ValueError("block split out of range")
            for i in range(k, nvars):
                shifts[i] = pos
                pos += WIDTH
            deg_shifts.append((pos, range(k, nvars)))
            pos += DEG_WIDTH
            for i in range(k):
                shifts[i] = pos
                pos += WIDTH
            deg_shifts.append((pos, range(k)))
            pos += DEG_WIDTH
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
        self.mul_offset = offset
        # 2M - (M - e) = M + e per field: its guard bit is set iff e > 0
        self.nonzero_base = 2 * offset
        # Per degree field: its shift, the lowest shift of the exponent
        # fields it sums, their mask shifted down to bit 0, and M times
        # their number.
        runs = []
        for s, ix in self.deg_shifts:
            low = min(shifts[i] for i in ix)
            run = sum(FIELD_MASK << (shifts[i] - low) for i in ix)
            runs.append((s, low, run, MAXE * len(ix)))
        self.deg_runs = tuple(runs)
        # ``unpack`` reads every field of ``key ^ mul_offset`` (e per
        # exponent field) in one struct call, lowest field first, skipping
        # the degree fields as pad bytes, then puts them in variable order.
        layout = sorted([(s, "H") for s in shifts] + [(s, "3x") for s, _ in deg_shifts])
        self._nbytes = pos // 8
        self._fields = struct.Struct("<" + "".join(f for _, f in layout)).unpack
        fields = sorted(shifts)
        perm = [fields.index(s) for s in shifts]
        self._to_vars = None if perm == list(range(nvars)) else itemgetter(*perm)

    def pack(self, exps: Sequence[int]) -> int:
        if len(exps) != self.nvars:
            raise ValueError("exponent tuple has wrong length")
        key = 0
        for e, s in zip(exps, self.shifts):
            if not 0 <= e <= MAXE:
                raise OverflowError(f"exponent {e} out of packing range")
            key |= (MAXE - e) << s
        for s, ix in self.deg_shifts:
            key |= sum(exps[i] for i in ix) << s
        return key

    def unpack(self, key: int) -> Tuple[int, ...]:
        exps = self._fields((key ^ self.mul_offset).to_bytes(self._nbytes, "little"))
        return exps if self._to_vars is None else self._to_vars(exps)

    def exponent(self, key: int, i: int) -> int:
        return MAXE - ((key >> self.shifts[i]) & FIELD_MASK)

    def mul(self, a: int, b: int) -> int:
        key = a + b - self.mul_offset
        if key & self.exp_guard_mask:
            raise OverflowError("monomial product exceeds the packing range")
        return key

    def divides(self, b: int, a: int) -> bool:
        """True iff monomial b divides monomial a."""
        g = self.exp_guard_mask
        m = self.exp_all_mask
        return (((b & m) | g) - (a & m)) & g == g

    def quotient(self, a: int, b: int) -> int:
        """Key of a/b; caller must know b | a."""
        return a - b + self.mul_offset

    def lcm(self, a: int, b: int) -> int:
        g = self.exp_guard_mask
        m = self.exp_all_mask
        va = a & m
        vb = b & m
        t = ((va | g) - vb) & g  # guard bits of the fields where va >= vb
        # t - (t >> 15) sets the 15 value bits of those fields: take vb there
        v = va ^ ((va ^ vb) & (t - (t >> (WIDTH - 1))))
        key = v
        for s, start, run, top in self.deg_runs:
            if ((a >> s) & DEG_MASK) + ((b >> s) & DEG_MASK) >= FIELD_MASK:
                # The degree may reach 65535, where the field sum mod
                # 65535 below no longer determines it.
                ea = self.unpack(a)
                eb = self.unpack(b)
                return self.pack(tuple(max(x, y) for x, y in zip(ea, eb)))
            # 2**16 = 1 mod 65535, so a run of fields read as one integer
            # is congruent to the sum of its fields.
            key |= ((top - ((v >> start) & run) % FIELD_MASK) % FIELD_MASK) << s
        return key

    def coprime(self, a: int, b: int) -> bool:
        m = self.exp_all_mask
        z = self.nonzero_base
        return not (z - (a & m)) & (z - (b & m)) & self.exp_guard_mask

    def total_degree(self, key: int) -> int:
        return sum(self.exponent(key, i) for i in range(self.nvars))

    @property
    def one(self) -> int:
        return self.pack((0,) * self.nvars)


class DivisorIndex:
    """Append-only index over lead keys for first-divisor queries.

    ``first(a)`` is the least ``i`` with ``pk.divides(leads[i], a)``, or -1
    when no lead divides ``a``; see the module docstring for how.
    """

    __slots__ = ("full", "chunks")

    def __init__(self, pk: Packing, leads: Iterable[int] = ()):
        self.full = 0  # the bitset of all leads
        # Per chunk: (shift, mask, memo, guard bits, M in every field,
        # then the bit and the masked key | guard of each lead that can fail
        # there, as two parallel lists: pairs would add a small object per
        # lead and chunk, which showed in peak RSS).
        runs: List[List[int]] = []
        for s in sorted(pk.shifts):
            if runs and s == runs[-1][-1] + WIDTH and len(runs[-1]) < CHUNK:
                runs[-1].append(s)
            else:
                runs.append([s])
        chunks = []
        for run in runs:
            low = run[0]
            mask = (1 << (WIDTH * len(run))) - 1
            guard = sum(GUARD << (s - low) for s in run)
            top = sum(MAXE << (s - low) for s in run)
            chunks.append((low, mask, {}, guard, top, [], []))
        self.chunks = tuple(chunks)
        for b in leads:
            self.append(b)

    def append(self, b: int) -> None:
        bit = self.full + 1
        self.full |= bit
        for low, mask, memo, guard, top, bits, xs in self.chunks:
            y = (b >> low) & mask
            if y == top:
                continue
            x = y | guard
            bits.append(bit)
            xs.append(x)
            for v in memo:
                if (x - v) & guard != guard:
                    memo[v] |= bit

    def first(self, a: int) -> int:
        bad = 0
        for low, mask, memo, guard, top, bits, xs in self.chunks:
            v = (a >> low) & mask
            b = memo.get(v)
            if b is None:
                b = 0
                for bit, x in zip(bits, xs):
                    if (x - v) & guard != guard:
                        b |= bit
                memo[v] = b
            bad |= b
        free = self.full & ~bad
        return (free & -free).bit_length() - 1


_cache: dict = {}


def get_packing(nvars: int, order) -> Packing:
    k = (nvars, order)
    p = _cache.get(k)
    if p is None:
        p = _cache[k] = Packing(nvars, order)
    return p
