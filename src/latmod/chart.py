"""Chart ideals: a polynomial ideal plus variable roles, chart inverses
and provenance, with the JSON wire format used by the CLI."""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from typing import Dict, Optional, Sequence, Tuple

from .ideals import PolyIdeal
from .poly import Field, MultiPoly, PolyRing


@dataclass(frozen=True)
class ChartIdeal:
    """An ideal presented on a chart.

    ``inverses`` lists (aux_name, inverted_polynomial) pairs; each aux y
    appears in the ideal only through its relation y * f - 1.  ``meta``
    carries the construction parameters so symmetry operations can
    recover the scheme structure.
    """

    ideal: PolyIdeal
    provenance: str
    inverses: Tuple[Tuple[str, MultiPoly], ...] = ()
    meta: Dict[str, object] = dc_field(default_factory=dict)

    @property
    def ring(self) -> PolyRing:
        return self.ideal.ring

    @property
    def generators(self) -> Tuple[MultiPoly, ...]:
        return self.ideal.generators

    def derive(
        self,
        ideal: PolyIdeal,
        step: str,
        inverses: Sequence[Tuple[str, MultiPoly]] = (),
        **meta,
    ) -> "ChartIdeal":
        """The chart ``ideal`` reached from this one by ``step``.

        It keeps this chart's inverses, read in ``ideal.ring``, followed
        by the new ones, and lays ``meta`` over this chart's meta.
        """
        carried = tuple((y, f.map_ring(ideal.ring)) for y, f in self.inverses)
        return ChartIdeal(
            ideal=ideal,
            provenance=f"{self.provenance};{step}",
            inverses=carried + tuple(inverses),
            meta={**self.meta, **meta},
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        doc = {
            "field": self.ring.field.tag(),
            "variables": list(self.ring.names),
            "order": _order_tag(self.ideal.order),
            "generators": [str(g) for g in self.generators],
            "provenance": self.provenance,
            "inverses": [[name, str(f)] for name, f in self.inverses],
            "meta": self.meta,
        }
        return json.dumps(doc, indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ChartIdeal":
        doc = json.loads(text)
        field = Field.from_tag(doc["field"])
        ring = PolyRing(field, doc["variables"])
        order = _order_from_tag(doc.get("order", "grevlex"))
        gens = [ring.parse(s) for s in doc["generators"]]
        inverses = tuple(
            (name, ring.parse(s)) for name, s in doc.get("inverses", [])
        )
        return cls(
            ideal=PolyIdeal(ring, gens, order),
            provenance=doc.get("provenance", ""),
            inverses=inverses,
            meta=doc.get("meta", {}),
        )


def with_inverses(
    ideal: PolyIdeal, pairs: Sequence[Tuple[str, MultiPoly]]
) -> Tuple[PolyIdeal, Tuple[Tuple[str, MultiPoly], ...]]:
    """Invert each f of ``pairs`` through its fresh variable y.

    The ring gains the y's in order, and each relation y * f - 1 follows
    the existing generators.  Returns the new ideal (same order and pair
    cap) and the pairs read in its ring.
    """
    ring = ideal.ring.extend([y for y, _ in pairs])
    mapped = tuple((y, f.map_ring(ring)) for y, f in pairs)
    gens = [g.map_ring(ring) for g in ideal.generators]
    gens += [ring.var(y) * f - 1 for y, f in mapped]
    return PolyIdeal(ring, gens, ideal.order, ideal.pair_limit), mapped


def _order_tag(order) -> object:
    if isinstance(order, tuple) and order[0] == "block":
        return {"block": order[1]}
    return order


def _order_from_tag(tag):
    if isinstance(tag, dict) and "block" in tag:
        return ("block", int(tag["block"]))
    return tag
