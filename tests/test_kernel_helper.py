"""The Buchberger helper process: with the helper forced on, the kernel
appends the same elements in the same order and returns the same reduced
basis as with it off, and no helper outlives a ``buchberger`` call."""

import concurrent.futures as cf
import hashlib
import json
import multiprocessing
import random
import sys

import pytest

from latmod import _pykernel, kernel
from latmod.errors import ResourceLimitError
from latmod.ideals import PolyIdeal, _scaled_terms, saturate
from latmod.packing import Packing
from latmod.poly import QQ, PolyRing
from latmod.schemes import mu_ideal

OFF = sys.maxsize  # a queue length no call reaches

# The lead keys of G in append order, generators first: their number and the
# sha256 of their JSON list.  Pinned from the serial loop; a change in the
# order in which pairs are popped changes them.
LEADS = {
    "mu(3,2,2)": (55, "18e50cec699c6c3a3141936e935bc9934159b81d70e63a4a370555118526653e"),
    "block saturation": (56, "7ca166982b24601b67ffd0892db246a5459db3b394e23f47e051036e5f432522"),
}


def _ideal_case(ideal):
    pk = ideal.packing
    gens = [_scaled_terms(g, pk)[0] for g in ideal.generators]
    return gens, pk, ideal.ring.field.p


def _block_saturation_case():
    """The ("block", 1) elimination ideal behind saturate(mu(3,2,2), t)."""
    mu = mu_ideal(3, 2, 2).ideal
    cases = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(kernel, "buchberger", lambda gens, pk, p, limit: cases.append((gens, pk, p)) or [])
        saturate(mu, mu.ring.var("t"))
    (case,) = cases
    assert case[1].order == ("block", 1)
    return case


def _random_case(order, p, seed):
    """Five random polynomials in four variables without constant terms, as
    kernel terms; over QQ the lead coefficients vary, so the reduction
    scales."""
    rng = random.Random(seed)
    pk = Packing(4, order)
    gens = []
    for _ in range(5):
        terms = {}
        for _ in range(rng.randrange(2, 5)):
            e = [0] * 4
            for _ in range(rng.randrange(1, 4)):
                e[rng.randrange(4)] += 1
            terms[pk.pack(e)] = rng.randrange(1, p) if p else rng.choice([-6, -3, -1, 1, 2, 4, 5])
        gens.append(sorted(terms.items(), reverse=True))
    return gens, pk, p


def _run(case, at, window):
    """buchberger on ``case`` with the helper's threshold at ``at``: the
    basis, the elements of G in append order, the helpers started and the
    helper replies that the parent took."""
    appended, started, replies = [], [], []
    update = _pykernel._update_pairs

    def spy_update(pairs, G, lms, h_idx, pk):
        appended.append(G[h_idx])
        return update(pairs, G, lms, h_idx, pk)

    class SpyHelper(_pykernel._Helper):
        def __init__(self, *args):
            super().__init__(*args)
            started.append(self)

        def take(self, pair):
            r = super().take(pair)
            if r is not None:
                replies.append(r)
            return r

    with pytest.MonkeyPatch.context() as m:
        m.setattr(_pykernel, "SPECULATE_AT", at)
        m.setattr(_pykernel, "WINDOW", window)
        m.setattr(_pykernel, "_update_pairs", spy_update)
        m.setattr(_pykernel, "_Helper", SpyHelper)
        basis = _pykernel.buchberger(*case, 10**6)
    assert multiprocessing.active_children() == []
    return basis, appended, started, replies


def _assert_same_trajectory(case, window=_pykernel.WINDOW):
    want, want_appended, none, _ = _run(case, OFF, window)
    assert none == []
    got, got_appended, started, replies = _run(case, 1, window)
    assert len(started) == 1 and started[0].proc.exitcode is not None
    assert replies, "the helper answered no pair the parent took"
    assert got_appended == want_appended
    assert got == want


@pytest.mark.parametrize("spec", [(3, 2, 2), (3, 1, 2)])
def test_helper_keeps_mu_trajectory(spec):
    _assert_same_trajectory(_ideal_case(mu_ideal(*spec).ideal))


def test_helper_keeps_block_saturation_trajectory():
    _assert_same_trajectory(_block_saturation_case())


@pytest.mark.parametrize("at", [1, OFF], ids=["helper", "serial"])
@pytest.mark.parametrize("name", sorted(LEADS))
def test_append_order_is_pinned(name, at):
    if name == "mu(3,2,2)":
        case = _ideal_case(mu_ideal(3, 2, 2).ideal)
    else:
        case = _block_saturation_case()
    leads = [g[0][0] for g in _run(case, at, _pykernel.WINDOW)[1]]
    assert (len(leads), hashlib.sha256(json.dumps(leads).encode()).hexdigest()) == LEADS[name]


@pytest.mark.parametrize("order", ["grevlex", ("block", 1), ("block", 2)])
@pytest.mark.parametrize("p", [0, 7])
@pytest.mark.parametrize("seed", range(3))
def test_helper_keeps_random_trajectory(order, p, seed):
    """Small queues: a window of one pair gives the helper work."""
    _assert_same_trajectory(_random_case(order, p, seed), window=1)


def test_helper_stopped_after_resource_limit(monkeypatch):
    """mu(3,2,2) starts with 35 pairs and reaches 116."""
    case = _ideal_case(mu_ideal(3, 2, 2).ideal)
    started = []
    init = _pykernel._Helper.__init__

    def spy(self, *args):
        init(self, *args)
        started.append(self)

    monkeypatch.setattr(_pykernel._Helper, "__init__", spy)
    monkeypatch.setattr(_pykernel, "SPECULATE_AT", 1)
    with pytest.raises(ResourceLimitError):
        _pykernel.buchberger(*case, 60)
    assert len(started) == 1
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("order", ["grevlex", ("block", 1)])
def test_helper_error_marker_and_overflow(monkeypatch, order):
    """The S-polynomial of x^10000*y + y^10001 and x*y^30000 overflows.
    Its pair has the largest lcm, so with a window of 2 the helper gets it
    and replies with the error marker; the parent reduces the pair again
    and raises.  A marker is a reply of None to a pair that was out."""
    ring = PolyRing(QQ, ["x", "y", "a", "b"])
    x, y, a, b = ring.gens()
    ideal = PolyIdeal(ring, [x**10000 * y + y**10001, x * y**30000, a**2 - b, a * b - 1, b**2 - a], order)
    markers = []
    receive = _pykernel._Helper._receive

    def spy(self):
        out = set(self.out)
        receive(self)
        markers.extend(q for q in out - self.out if self.answers.get(q, 0) is None)

    monkeypatch.setattr(_pykernel._Helper, "_receive", spy)
    monkeypatch.setattr(_pykernel, "SPECULATE_AT", 1)
    monkeypatch.setattr(_pykernel, "WINDOW", 2)
    with pytest.raises(OverflowError):
        _pykernel.buchberger(*_ideal_case(ideal), 10**6)
    assert len(markers) == 1
    assert multiprocessing.active_children() == []


def test_helper_stopped_after_interrupt(monkeypatch):
    case = _ideal_case(mu_ideal(3, 2, 2).ideal)
    update = _pykernel._update_pairs
    calls = []

    def interrupt(pairs, G, lms, h_idx, pk):
        calls.append(h_idx)
        if len(calls) == 30:
            raise KeyboardInterrupt
        return update(pairs, G, lms, h_idx, pk)

    monkeypatch.setattr(_pykernel, "_update_pairs", interrupt)
    monkeypatch.setattr(_pykernel, "SPECULATE_AT", 1)
    with pytest.raises(KeyboardInterrupt):
        _pykernel.buchberger(*case, 10**6)
    assert multiprocessing.active_children() == []


def test_parent_goes_on_when_the_helper_dies(monkeypatch):
    """A helper killed mid-run costs only speed: the parent reduces the
    pairs the helper held and the rest of the run is serial."""
    case = _ideal_case(mu_ideal(3, 2, 2).ideal)
    want, want_appended, _, _ = _run(case, OFF, _pykernel.WINDOW)
    helpers = []
    init = _pykernel._Helper.__init__

    def spy_init(self, *args):
        init(self, *args)
        helpers.append(self)

    update = _pykernel._update_pairs
    appended = []

    def kill(pairs, G, lms, h_idx, pk):
        appended.append(G[h_idx])
        if len(appended) == 30:
            helpers[0].proc.kill()
            helpers[0].proc.join(timeout=60)
            assert not helpers[0].proc.is_alive()
        return update(pairs, G, lms, h_idx, pk)

    monkeypatch.setattr(_pykernel._Helper, "__init__", spy_init)
    monkeypatch.setattr(_pykernel, "_update_pairs", kill)
    monkeypatch.setattr(_pykernel, "SPECULATE_AT", 1)
    assert _pykernel.buchberger(*case, 10**6) == want
    assert appended == want_appended
    assert not helpers[0].alive
    assert multiprocessing.active_children() == []


def _worker_basis(spec):
    """In a suite pool worker: the basis of mu(spec) with the helper's
    threshold at 1, and whether a helper started."""
    started = []
    at, init = _pykernel.SPECULATE_AT, _pykernel._Helper.__init__

    def spy(self, *args):
        started.append(True)
        init(self, *args)

    _pykernel.SPECULATE_AT = 1
    _pykernel._Helper.__init__ = spy
    try:
        return _pykernel.buchberger(*_ideal_case(mu_ideal(*spec).ideal), 10**6), started
    finally:
        _pykernel.SPECULATE_AT, _pykernel._Helper.__init__ = at, init


def test_no_helper_in_a_pool_worker():
    """The ``--jobs`` path: a worker of the suite's executor starts none."""
    with cf.ProcessPoolExecutor(max_workers=1) as ex:
        basis, started = ex.submit(_worker_basis, (3, 1, 2)).result(timeout=120)
    assert started == []
    assert basis == _pykernel.buchberger(*_ideal_case(mu_ideal(3, 1, 2).ideal), 10**6)
