"""Groupoid families beyond the catalog, as spec documents and as parsed
groupoids: pair groupoids and bundles of cyclic groups; and the regular
actions of cyclic groups."""

import json

from groupoidal.groups import FiniteGroup
from groupoidal.partial_actions import GroupPartialAction
from groupoidal.specfiles import FORMAT_TAG, parse_document


def pair_groupoid_spec(n):
    """The pair groupoid on n points: arrow a{i}_{j} runs from j to i."""
    units = [f"a{i}_{i}" for i in range(n)]
    others = [f"a{i}_{j}" for i in range(n) for j in range(n) if i != j]
    return {"format": FORMAT_TAG, "kind": "groupoid",
            "name": f"pair_groupoid_{n}",
            "arrows": units + others, "units": units,
            "inverse": {f"a{i}_{j}": f"a{j}_{i}"
                        for i in range(n) for j in range(n)},
            "compose": {f"a{i}_{j} a{j}_{k}": f"a{i}_{k}"
                        for i in range(n) for j in range(n)
                        for k in range(n)}}


def cyclic_bundle_spec(orders):
    """The disjoint union of cyclic groups Z_k, one per unit."""
    arrows, units, inverse, compose = [], [], {}, {}
    for i, k in enumerate(orders):
        units.append(f"c{i}_0")
        for r in range(k):
            arrows.append(f"c{i}_{r}")
            inverse[f"c{i}_{r}"] = f"c{i}_{-r % k}"
            for s in range(k):
                compose[f"c{i}_{r} c{i}_{s}"] = f"c{i}_{(r + s) % k}"
    return {"format": FORMAT_TAG, "kind": "groupoid",
            "name": "bundle_" + "_".join(f"z{k}" for k in orders),
            "arrows": arrows, "units": units,
            "inverse": inverse, "compose": compose}


def parse(spec):
    return parse_document(json.dumps(spec).encode()).payload


CYCLIC_BUNDLES = [(2,), (3,), (2, 2, 2), (4, 4), (2, 3, 5)]


def family_groupoids(max_pair=4):
    """Pair groupoids on 1 to max_pair points and the cyclic bundles."""
    return ([parse(pair_groupoid_spec(n)) for n in range(1, max_pair + 1)]
            + [parse(cyclic_bundle_spec(ks)) for ks in CYCLIC_BUNDLES])


def regular_action(n):
    """Z_n acting on itself by rotation: g^k sends point i to i + k."""
    group = FiniteGroup.cyclic(n)
    space = [str(i) for i in range(n)]
    maps = {g: {str(i): str((i + k) % n) for i in range(n)}
            for k, g in enumerate(group.elements)}
    return GroupPartialAction(group, space, {g: space for g in maps}, maps,
                              name=f"regular_z{n}")
