"""Answers modulo units: one representative per class.

A monoid with units gives its Hilbert basis, canonical generators,
Gorenstein certificate, shift witnesses and normality witness only up
to a unit, and a cone with lineality gives its rays only up to the
lineality.  Each representative is reduced by the Hermite basis of that
lattice, so its entries at the pivots lie in [0, pivot) and no answer
depends on which unimodular basis change the unit quotient picks.

The pin hashes every monoid command's answer on ``unit_cone_corpus``,
and both cone conversions on ``degenerate_cone_corpus``.  The Smith
route of the unit quotient, kept as ``references.smith_quotient_transform``,
must give the same answers.
"""

import collections
import hashlib
import json

from monograde import cli, cone, monoid
from monograde.cone import facets_of_rays, rays_of_facets
from monograde.monoid import monoid_from_cone_rays
from corpora import degenerate_cone_corpus, unit_cone_corpus
from references import smith_quotient_transform

UNIT_CONES = unit_cone_corpus(467, 60)

# sha256 of ``unit_answers()`` as JSON
PINNED = "45f5b834de7e513c1f71a7d4c898cc2d0a1a265ec57683a28f6e492bbb0b3756"


def _command(command, field, vectors):
    """The CLI result of a job, or the error it raises, as text."""
    job = cli.parse_input(json.dumps({"command": command, field: vectors}))
    try:
        return cli.execute(job)["result"]
    except ValueError as e:
        return "%s: %s" % (type(e).__name__, e)


def unit_answers():
    """Each monoid command on each cone of ``UNIT_CONES``, as rays and as
    generators, ``normalize`` with its witness, and the fields of both
    conversions of each list of ``degenerate_cone_corpus(433, 300)``."""
    rows = []
    for rays in UNIT_CONES:
        for command in ("hilbert-basis", "canonical", "class-group", "gorenstein"):
            rows += [_command(command, field, rays) for field in ("rays", "generators")]
        rows.append(_command("normalize", "generators", rays))
    for vectors, d in degenerate_cone_corpus(433, 300):
        for convert in (facets_of_rays, rays_of_facets):
            c = convert(vectors, d)
            rows.append([c.rays, c.facet_forms, c.lineality, c.ambient_rank, c.dim])
    return rows


def _digest(rows):
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def test_answers_modulo_units_are_pinned():
    ranks = collections.Counter(monoid_from_cone_rays(rays).unit_rank for rays in UNIT_CONES)
    assert set(ranks) >= {1, 2, 3, 4} and 0 not in ranks, ranks
    assert _digest(unit_answers()) == PINNED


def test_the_smith_quotient_gives_the_same_answers(monkeypatch):
    """The unit quotient's P from the two-sided Smith form, patched into
    both modules that take it, changes no answer on the pin's corpus."""
    hermite = unit_answers()
    monkeypatch.setattr(cone, "_quotient_transform", smith_quotient_transform)
    monkeypatch.setattr(monoid, "_quotient_transform", smith_quotient_transform)
    cone._facets_of_generators.cache_clear()  # conversions the Hermite route memoized
    assert unit_answers() == hermite
