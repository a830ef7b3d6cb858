"""Answers modulo units: one representative per class.

A monoid with units gives its Hilbert basis, canonical generators,
Gorenstein certificate, shift witnesses and normality witness only up
to a unit, and a cone with lineality gives its rays only up to the
lineality.  Each representative is reduced by the Hermite basis of that
lattice, so its entries at the pivots lie in [0, pivot) and no answer
depends on which unimodular basis change the unit quotient picks.

The pin hashes every monoid command's answer on ``unit_cone_corpus``,
and both cone conversions on ``degenerate_cone_corpus``.  The xgcd
Hermite form of the references, whose transform differs on part of the
corpus, must give the same answers when every quotient reads it.
"""

import collections
import hashlib
import json
import random

from monograde import cli, cone, exact_linalg
from monograde.cone import facets_of_rays, rays_of_facets
from monograde.divisorial import divisorial_ideal, same_class
from monograde.monoid import monoid_from_cone_rays
from corpora import degenerate_cone_corpus, unit_cone_corpus
from references import reference_hnf

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


def shift_witnesses():
    """``same_class`` on each cone of ``UNIT_CONES``: from random heights
    to the heights shifted by the facet values of a random point of L,
    and to those heights plus one on the first facet, if there is one."""
    rng = random.Random(491)
    out = []
    for rays in UNIT_CONES:
        m = monoid_from_cone_rays(rays)
        s = len(m.facet_forms)
        a = divisorial_ideal(m, [rng.randint(-2, 2) for _ in range(s)])
        g = [rng.randint(-3, 3) for _ in range(m.rank)]
        shifted = [h + v for h, v in zip(a.heights, m._facet_values_local(g))]
        out.append(same_class(a, divisorial_ideal(m, shifted)))
        out.append(same_class(a, divisorial_ideal(m, [h + 1 for h in shifted[:1]] + shifted[1:])))
    return out


def test_the_reference_hermite_transform_gives_the_same_answers(monkeypatch):
    """Every quotient reads one Hermite form, ``exact_linalg._quotient``.
    With ``references.reference_hnf`` in place of its ``hnf``, another
    valid transform U, the sections W of 39 of the 86 pointed views
    change, and no answer does: the Hilbert bases and unit bases, the
    canonical generators, the Gorenstein certificates, the normality
    witnesses, the class groups, the cone conversions and the shift
    witnesses."""
    answers = unit_answers() + shift_witnesses()
    assert any(shift_witnesses())
    sections = [monoid_from_cone_rays(rays)._pointed_view.section for rays in UNIT_CONES]
    monkeypatch.setattr(exact_linalg, "hnf", reference_hnf)
    cone._facets_of_generators.cache_clear()  # conversions the package's route memoized
    changed = [monoid_from_cone_rays(rays)._pointed_view.section != w
               for rays, w in zip(UNIT_CONES, sections)]
    assert sum(changed) == 39 and len(changed) == 86
    assert unit_answers() + shift_witnesses() == answers
