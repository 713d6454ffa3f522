"""Seeded input families for the benchmark, written as groupoidal/1 specs,
and the closed-form values each one must produce.

Nothing here imports the engine: every expected value is computed from
the generated tables or from a formula, so a wrong engine cannot agree
with itself.

The seed acts through :func:`disguise`.  It prefixes every point, arrow and
semigroup element name with a seeded tag and rotates the key order of
every JSON object.  The prefix is common to all names, so it keeps the
string order of names and the order of every list; stripping it from a
report gives back the report of the undisguised spec.  That is what lets
one golden digest per job hold for every seed.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations
from math import comb, factorial, prod
from string import ascii_lowercase

FORMAT = "groupoidal/1"


# ---------------------------------------------------------------------------
# Closed forms.
# ---------------------------------------------------------------------------

def sym_inverse_order(n):
    """|I(n)|: partial bijections of an n-set, sum_k C(n,k)^2 k!."""
    return sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))


def pair_groupoid_dim_l(n):
    """dim L over the bisections of the pair groupoid on n points: each
    bisection B contributes |r(B)| = |B| basis vectors."""
    return sum(comb(n, k) ** 2 * factorial(k) * k for k in range(n + 1))


def bundle_order(orders):
    """|S| for a bundle of groups: a bisection picks at most one arrow of
    each isotropy group, so prod (k_i + 1)."""
    return prod(k + 1 for k in orders)


def bundle_dim_l(orders):
    return sum(k * prod(m + 1 for j, m in enumerate(orders) if j != i)
               for i, k in enumerate(orders))


def theorem5_ledger(order, dim_l, arrows):
    """The expected theorem5 rows: |S| and dim L/dim I/dim L/I/dim A."""
    return {"bisections": [order],
            "ledger": [dim_l, dim_l - arrows, arrows, arrows]}


def theorem3_ledger(arrows):
    """The expected theorem3 rows: the arrow count, then dim L = arrows."""
    return {"arrows": [arrows] * 3}


def action_arrows(spec):
    """Arrows of the transformation groupoid: sum over g of |X_g|."""
    return sum(len(points) for points in spec["domains"].values())


def groupoid_census(spec):
    """Brute-force |S| and dim L = sum |B| over all bisections of a small
    groupoid spec, from its tables alone."""
    arrows = spec["arrows"]
    compose = {tuple(k.split()): v for k, v in spec["compose"].items()}
    inverse = spec["inverse"]
    rng = {a: compose[(a, inverse[a])] for a in arrows}
    src = {a: compose[(inverse[a], a)] for a in arrows}
    order = dim_l = 0
    for mask in range(1 << len(arrows)):
        subset = [a for i, a in enumerate(arrows) if mask >> i & 1]
        if (len({rng[a] for a in subset}) == len(subset)
                and len({src[a] for a in subset}) == len(subset)):
            order += 1
            dim_l += len(subset)
    return order, dim_l


# ---------------------------------------------------------------------------
# Families.
# ---------------------------------------------------------------------------

def pair_groupoid(n, name=None):
    """The pair groupoid on n points: arrow a{i}_{j} runs from j to i."""
    units = [f"a{i}_{i}" for i in range(n)]
    others = [f"a{i}_{j}" for i in range(n) for j in range(n) if i != j]
    compose = {f"a{i}_{j} a{j}_{k}": f"a{i}_{k}"
               for i in range(n) for j in range(n) for k in range(n)}
    inverse = {f"a{i}_{j}": f"a{j}_{i}" for i in range(n) for j in range(n)}
    return {"format": FORMAT, "kind": "groupoid",
            "name": name or f"pair_groupoid_{n}",
            "arrows": units + others, "units": units,
            "inverse": inverse, "compose": compose}


def cyclic_bundle(orders, name=None):
    """Disjoint union of cyclic groups Z_k, one isotropy group per unit."""
    arrows, units, inverse, compose = [], [], {}, {}
    for i, k in enumerate(orders):
        units.append(f"c{i}_0")
        for r in range(k):
            arrows.append(f"c{i}_{r}")
            inverse[f"c{i}_{r}"] = f"c{i}_{-r % k}"
            for s in range(k):
                compose[f"c{i}_{r} c{i}_{s}"] = f"c{i}_{(r + s) % k}"
    return {"format": FORMAT, "kind": "groupoid",
            "name": name or "bundle_" + "_".join(f"z{k}" for k in orders),
            "arrows": arrows, "units": units,
            "inverse": inverse, "compose": compose}


def cyclic_group(n):
    """Z_n as an explicit Cayley table (the presets stop at Z6)."""
    elements = [f"g{r}" for r in range(n)]
    table = {f"g{a} g{b}": f"g{(a + b) % n}"
             for a in range(n) for b in range(n)}
    return {"elements": elements, "table": table}


def rotation_action(n, points=None, perm=None, name=None):
    """Z_n rotating Z_n, restricted to the subset `points` (default all).

    theta_r(x) = x + r, so X_r = Y intersect (Y + r) and theta_r is defined
    on X_{-r}.  `perm` renames the points (a permutation of range(n)),
    which gives a conjugate copy of the action.
    """
    ys = list(range(n)) if points is None else sorted(points)
    yset = set(ys)
    perm = perm or range(n)

    def label(x):
        return f"x{perm[x]}"
    domains, maps = {}, {}
    for r in range(n):
        domains[f"g{r}"] = [label(y) for y in ys if (y - r) % n in yset]
        maps[f"g{r}"] = {label(x): label((x + r) % n)
                         for x in ys if (x + r) % n in yset}
    space = sorted((label(y) for y in ys), key=lambda s: int(s[1:]))
    return {"format": FORMAT, "kind": "action",
            "name": name or f"z{n}_rotation_{len(ys)}pt",
            "group": cyclic_group(n), "space": space,
            "domains": domains, "maps": maps}


def trivial_action(n, name=None):
    """Z_n acting trivially on n points: every map is the identity."""
    space = [f"x{x}" for x in range(n)]
    return {"format": FORMAT, "kind": "action",
            "name": name or f"z{n}_trivial_{n}pt",
            "group": cyclic_group(n), "space": space,
            "domains": {f"g{r}": list(space) for r in range(n)},
            "maps": {f"g{r}": {x: x for x in space} for r in range(n)}}


def action_pair(left, right, name):
    return {"format": FORMAT, "kind": "pair", "name": name,
            "left": left, "right": right}


def _pb_name(mapping):
    """Partial bijections are named as in the catalog: '1>2,3>1', '0'."""
    return ",".join(f"{x + 1}>{y + 1}" for x, y in sorted(mapping)) or "0"


def symmetric_inverse_monoid(n, name=None):
    """I(n) with product f g = f after g (g applied first) and star the
    inverse, ordered by rank then by the sorted pairs."""
    elements = []
    for k in range(n + 1):
        for domain in combinations(range(n), k):
            for image in permutations(range(n), k):
                elements.append(tuple(zip(domain, image)))
    elements.sort(key=lambda pb: (len(pb), sorted(pb)))
    names = [_pb_name(pb) for pb in elements]
    maps = [dict(pb) for pb in elements]
    index = {tuple(sorted(m.items())): i for i, m in enumerate(maps)}
    table = {}
    for f, fmap in zip(names, maps):
        for g, gmap in zip(names, maps):
            fg = {x: fmap[y] for x, y in gmap.items() if y in fmap}
            table[f"{f} {g}"] = names[index[tuple(sorted(fg.items()))]]
    star = {nm: names[index[tuple(sorted((y, x) for x, y in m.items()))]]
            for nm, m in zip(names, maps)}
    return {"format": FORMAT, "kind": "semigroup",
            "name": name or f"sym_inv_{n}",
            "elements": names, "table": table, "star": star}


def corrupt_zero_row(spec, rng):
    """Copy a semigroup spec with one entry of the zero's row changed.

    The seed picks the entry (0, b) and its wrong value w, with w not 0
    and not b.  Then (0 0) b = w but 0 (0 b) = 0 w = 0, so associativity
    fails, and it fails on the first outer row of an exhaustive scan for
    every seed; the job's time does not swing with the entry picked.
    """
    elements = spec["elements"]
    zero = elements[0]
    b = rng.choice(elements[1:])
    w = rng.choice([e for e in elements if e not in (zero, b)])
    table = dict(spec["table"])
    table[f"{zero} {b}"] = w
    return dict(spec, table=table, name=spec["name"] + "_corrupt")


# ---------------------------------------------------------------------------
# Seeded disguise.
# ---------------------------------------------------------------------------

def seed_prefix(seed):
    """A short tag that no report text contains by accident: reports
    never print '#'."""
    rng = random.Random(f"prefix-{seed}")
    return "#" + "".join(rng.choice(ascii_lowercase) for _ in range(2))


def _tag_pair_key(key, tag):
    a, b = key.split()
    return f"{tag(a)} {tag(b)}"


def relabel(spec, prefix):
    """Prefix every point, arrow and semigroup element name.  Group
    element names are left alone; they are not points or arrows."""
    def tag(x):
        return prefix + x

    kind = spec.get("kind", "action")
    out = dict(spec)
    if kind == "groupoid":
        out["arrows"] = [tag(a) for a in spec["arrows"]]
        out["units"] = [tag(u) for u in spec["units"]]
        out["inverse"] = {tag(k): tag(v) for k, v in spec["inverse"].items()}
        out["compose"] = {_tag_pair_key(k, tag): tag(v)
                          for k, v in spec["compose"].items()}
    elif kind == "semigroup":
        out["elements"] = [tag(e) for e in spec["elements"]]
        out["table"] = {_tag_pair_key(k, tag): tag(v)
                        for k, v in spec["table"].items()}
        out["star"] = {tag(k): tag(v) for k, v in spec["star"].items()}
    elif kind == "pair":
        for side in ("left", "right"):
            if isinstance(spec[side], dict):
                out[side] = relabel(spec[side], prefix)
    else:
        out["space"] = [tag(x) for x in spec["space"]]
        out["domains"] = {g: [tag(x) for x in pts]
                          for g, pts in spec["domains"].items()}
        out["maps"] = {g: {tag(x): tag(y) for x, y in m.items()}
                       for g, m in spec["maps"].items()}
    return out


def rotate_keys(obj, rng):
    """The same JSON value with every object's keys rotated by a seeded
    offset.  A rotation, not a shuffle: the parser builds its tables in
    file order, and a shuffled 44k-entry table is twice as slow to scan
    for cache reasons alone, which would swamp what the workload is for."""
    if isinstance(obj, dict):
        keys = list(obj)
        cut = rng.randrange(len(keys)) if keys else 0
        return {k: rotate_keys(obj[k], rng) for k in keys[cut:] + keys[:cut]}
    if isinstance(obj, list):
        return [rotate_keys(v, rng) for v in obj]
    return obj


def disguise(spec, prefix, rng):
    return rotate_keys(relabel(spec, prefix), rng)
