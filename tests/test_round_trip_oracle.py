"""theorem3's round-trip rows, against the object-level round trips.

`cmd_theorem3` decides round_trip_skew_to_steinberg and
round_trip_steinberg_to_skew by comparing labels through rho's targets:
rho_inverse reads the arrow (g, x) as the basis element (g, x).
`formula_oracle.round_trip_rows` runs the round trips object by object,
through rho_inverse and SkewElement, as the command once did.  Both must
give the same status and detail on every catalog action, and on rho maps
with each transposition of two targets, where the rows fail.
"""

from itertools import combinations

import pytest
from families import regular_action
from formula_oracle import round_trip_rows

import catalog
from groupoidal import cli
from groupoidal.isomorphisms import AlgebraMap
from groupoidal.report import PASS, VerificationReport
from groupoidal.scalars import ring_from_tag
from groupoidal.specfiles import SpecDocument

ROWS = ("round_trip_skew_to_steinberg", "round_trip_steinberg_to_skew")


def actions():
    return ([catalog.load_action(name) for name in catalog.action_names()]
            + [regular_action(3)])


@pytest.fixture
def swapped_rho(monkeypatch):
    """Makes cmd_theorem3's rho exchange the targets of the basis indices
    in swap["pair"], when set, and records the map it hands out."""
    real_rho, swap = cli.rho, {"pair": None}

    def rho(action, groupoid, module=None):
        m = real_rho(action, groupoid, module=module)
        if swap["pair"] is not None:
            a, b = swap["pair"]
            targets = list(m.targets)
            targets[a], targets[b] = targets[b], targets[a]
            m = AlgebraMap(m.domain, m.codomain, targets,
                           name="rho").certify_all()
        swap["map"] = m
        return m

    monkeypatch.setattr(cli, "rho", rho)
    return swap


def command_rows(action, ring, swap):
    """The two rows of cmd_theorem3 as (name, passed, detail), and the
    expected rows from the oracle on the map the command used."""
    doc = SpecDocument("action", action.name, action, "", None, {})
    report = VerificationReport("theorem3", action.name, "", ring.tag(), {})
    cli.cmd_theorem3(doc, ring, {}, report)
    rows = [(c.name, c.status == PASS, c.detail) for c in report.checks
            if c.name in ROWS]
    m = swap["map"]
    return rows, round_trip_rows(m.domain, m, ring)


@pytest.mark.parametrize("tag", ["Q", "Z/4"])
def test_round_trips_equal_the_oracle_on_the_catalog(tag, swapped_rho):
    ring = ring_from_tag(tag)
    for action in actions():
        rows, expected = command_rows(action, ring, swapped_rho)
        assert rows == expected, action.name
        assert [passed for _, passed, _ in rows] == [True, True], action.name


def test_round_trips_equal_the_oracle_on_every_transposition(swapped_rho):
    ring = ring_from_tag("Q")
    runs, failed = 0, dict.fromkeys(ROWS, 0)
    for action in actions():
        n = sum(map(len, action.domains))
        for pair in combinations(range(n), 2):
            swapped_rho["pair"] = pair
            rows, expected = command_rows(action, ring, swapped_rho)
            assert rows == expected, (action.name, pair)
            runs += 1
            for name, passed, _ in rows:
                failed[name] += not passed
        swapped_rho["pair"] = None
    # A transposition moves two targets, so both rows fail on each.
    assert runs > 0 and failed == dict.fromkeys(ROWS, runs)
