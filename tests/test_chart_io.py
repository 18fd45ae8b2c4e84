import json

from latmod.chart import ChartIdeal, with_inverses
from latmod.chains import ChainSpec
from latmod.poly import GF, PolyRing, QQ
from latmod.resolution import blowup_chart
from latmod.schemes import mu_chart_ideal, mu_ideal, sigma_ideal
from latmod.verify import invert_t


def test_roundtrip_mu():
    chart = mu_ideal(2, 1, 1)
    text = chart.to_json(indent=2)
    back = ChartIdeal.from_json(text)
    assert back.ring == chart.ring
    assert set(back.generators) == set(chart.generators)
    assert back.provenance == chart.provenance


def test_roundtrip_chart_with_inverses():
    chart = mu_chart_ideal(ChainSpec(2, 1, 1, (1, 1)))
    back = ChartIdeal.from_json(chart.to_json())
    assert back.inverses == chart.inverses
    assert back.meta["minors"] == chart.meta["minors"]


def test_roundtrip_gf():
    chart = mu_ideal(2, 1, 1, GF(5))
    back = ChartIdeal.from_json(chart.to_json())
    assert back.ring.field is GF(5)
    assert set(back.generators) == set(chart.generators)


def test_grammar_document_example():
    ring = PolyRing(QQ, ["Pi0_1_2", "t"])
    f = ring.parse("3/2*Pi0_1_2^2*t - 1")
    doc = json.dumps({"generators": [str(f)]})
    back = ring.parse(json.loads(doc)["generators"][0])
    assert back == f


def test_sigma_roundtrip():
    chart = sigma_ideal(1, 1)
    back = ChartIdeal.from_json(chart.to_json())
    assert set(back.generators) == set(chart.generators)
    assert dict(back.meta) == dict(chart.meta)


def test_inverse_relations_present():
    """Every inverse auxiliary y appears with its relation y*f - 1."""
    chart = mu_chart_ideal(ChainSpec(3, 1, 1, (1, 2)))
    ring = chart.ring
    gens = set(chart.generators)
    for name, f in chart.inverses:
        assert ring.var(name) * f - 1 in gens


def test_derive_appends_the_step_and_the_new_inverses():
    chart = mu_chart_ideal(ChainSpec(2, 1, 1, (1, 1)))
    ideal, new = with_inverses(chart.ideal, [("yt", chart.ring.var("t"))])
    assert ideal.ring.names == chart.ring.names + ("yt",)
    assert ideal.generators[-1] == ideal.ring.var("yt") * ideal.ring.var("t") - 1
    derived = chart.derive(ideal, "step", new, kind="other", extra=1)
    assert derived.provenance == chart.provenance + ";step"
    assert derived.meta == dict(chart.meta, kind="other", extra=1)
    assert [name for name, _ in derived.inverses] == ["y0", "y1", "yt"]


def test_derived_charts_carry_their_inverses_into_their_own_ring():
    """t inversion and a blowup chart read the minor inverses y_i of the
    chart they start from in the new ring, whose ideal holds y_i * m_i - 1."""
    chart = mu_chart_ideal(ChainSpec(2, 1, 1, (1, 1)))
    center = [chart.ring.var("Pi0_1_1"), chart.ring.var("t")]
    for derived in (invert_t(chart), blowup_chart(chart, center, 0).chart):
        assert [f.ring == derived.ring for _, f in derived.inverses] == (
            [True] * len(derived.inverses)
        )
        for name, f in derived.inverses:
            assert derived.ideal.contains(derived.ring.var(name) * f - 1)
