"""Replay of theorem3 and theorem5 reports from the report and the input
file alone.

The input is read with the `json` module, not through `specfiles`, and
every expected value is recomputed from the set formulas, with no call
into the engine.

For theorem3, on an action document:

- the arrows (g, x) for x in X_g, in group-element order then space
  order, the order of the basis of L; a preset group has the elements
  that FiniteGroup.cyclic names (e, g, g2, ...), `trivial` only e, and
  an explicit group its element list, with the identity the one element
  e with e e = e;
- the arrow count, in `transformation_groupoid_axioms` and
  `dimension_match` (dim L = #arrows);
- rho's image of each basis element (g, x): the arrow (g, x), as
  `rho_basis_images` lists it, in order;
- that each listed (e, x), e the identity, goes to a unit (e, y), and
  that the units are covered.

For theorem5, on a groupoid document:

- the bisections, by brute force over all arrow subsets, in ascending
  bitmask order over the arrow list, and their count;
- the basis (B, u) of L, for u in r(B), and psi's image of each: the
  arrow of B with range u, as `psi_basis_images` lists it;
- the natural order, s <= t iff s = t s* s with the set product, and the
  classes of L/I, joined by (s, x) ~ (t, x) for s <= t and x in r(s);
- the ledger: dim L, dim I = dim L - #classes, dim L/I = #classes and
  dim A = #arrows;
- `quotient_basis`: basis elements of L, in basis order, one per class.

`replay_theorem3(doc, text)` and `replay_theorem5(formulas, text)` return
the mismatches, empty when the report replays.  `Formulas` holds what a
groupoid gives and is kept per input by the caller.
"""

import re

ROW = re.compile(r"^check (\w+): (\w+)(?:  \[(.*)\])?$", re.M)
LEDGER = re.compile(r"dim L=(\d+) dim I=(\d+) dim L/I=(\d+) dim A=(\d+)")


class Formulas:
    """A groupoid document's arrows, inverse and composition, and what
    the set formulas give on its bisections."""

    def __init__(self, doc):
        self.arrows = list(doc["arrows"])
        for a in self.arrows:
            # The report renders labels unquoted.
            assert re.fullmatch(r"\w+", a), a
        self.inverse = dict(doc["inverse"])
        self.compose = {tuple(key.split()): value
                        for key, value in doc["compose"].items()}
        self.range = {b: self.compose[b, self.inverse[b]] for b in self.arrows}
        self.source = {b: self.compose[self.inverse[b], b]
                       for b in self.arrows}
        self.bisections = self._bisections()
        # (B, u, the arrow of B with range u), for u in r(B) in the order
        # of the units in the arrow list.
        units = [a for a in self.arrows if a in set(doc["units"])]
        self.basis = [(bis, u, b) for bis in self.bisections for u in units
                      for b in bis if self.range[b] == u]
        self.classes = self._classes()

    def _bisections(self):
        n = len(self.arrows)
        found = []
        for mask in range(1 << n):
            arrows = [self.arrows[i] for i in range(n) if mask >> i & 1]
            if len({self.range[a] for a in arrows}) == len(arrows) == \
                    len({self.source[a] for a in arrows}):
                found.append(frozenset(arrows))
        return found

    def product(self, bis_b, bis_c):
        return frozenset(self.compose[b, c] for b in bis_b for c in bis_c
                         if self.source[b] == self.range[c])

    def star(self, bis):
        return frozenset(self.inverse[b] for b in bis)

    def _classes(self):
        """Basis position -> class id, by union-find over the generators
        of I from the natural order."""
        position = {(bis, u): k for k, (bis, u, _) in enumerate(self.basis)}
        parent = list(range(len(self.basis)))

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        for t in self.bisections:
            for s in self.bisections:
                if s != t and s == self.product(t, self.product(self.star(s),
                                                                s)):
                    for u in {self.range[b] for b in s}:
                        ra, rb = find(position[s, u]), find(position[t, u])
                        parent[ra] = rb
        return [find(k) for k in range(len(self.basis))]

    def label(self, k):
        """Basis element k as the report renders it."""
        bis, u, _ = self.basis[k]
        return "({" + ",".join(sorted(bis)) + "}," + u + ")"


def parse_rows(text):
    """Row name -> (status, detail) of a text report."""
    return {name: (status, detail or "")
            for name, status, detail in ROW.findall(text)}


def action_arrows(doc):
    """The identity of an action document's group, and the arrows (g, x)
    for x in X_g, in group-element order then space order."""
    group = doc["group"]
    if "preset" in group:
        order = 1 if group["preset"] == "trivial" else int(group["preset"][1:])
        elements = ["e"] + ["g" if k == 1 else f"g{k}"
                            for k in range(1, order)]
        identity = "e"
    else:
        elements = list(group["elements"])
        table = {tuple(key.split()): c for key, c in group["table"].items()}
        identity = next(a for a in elements if table[a, a] == a)
    arrows = []
    for g in elements:
        domain = set(doc["domains"].get(g, ()))
        arrows += [(g, x) for x in doc["space"] if x in domain]
    for g, x in arrows:
        # The report renders labels unquoted.
        assert re.fullmatch(r"\w+", g) and re.fullmatch(r"\w+", x), (g, x)
    return identity, arrows


def replay_theorem3(doc, text):
    """The ways the passing theorem3 report disagrees with the set
    formulas on its action document, as messages."""
    rows = parse_rows(text)
    identity, arrows = action_arrows(doc)
    n = len(arrows)
    problems = []
    if rows.get("transformation_groupoid_axioms") != ("pass", f"{n} arrows"):
        problems.append("arrow count")
    if rows.get("dimension_match") != ("pass", f"dim L={n} arrows={n}"):
        problems.append("dimension_match")
    listed = rows.get("rho_basis_images", ("", ""))[1].split("; ")
    if listed != [f"({g},{x})->({g},{x}):1" for g, x in arrows]:
        problems.append("rho_basis_images")
    images = dict(entry.split("->") for entry in listed if "->" in entry)
    units = {f"({identity},{x}):1" for x in doc["space"]}
    diagonal = [images.get(f"({identity},{x})") for x in doc["space"]]
    if not units.issuperset(diagonal) or len(set(diagonal)) != len(units):
        problems.append("the (e, x) do not go onto the units")
    return problems


def replay_theorem5(formulas, text):
    """The ways the passing theorem5 report disagrees with the set
    formulas on its input, as messages."""
    rows = parse_rows(text)
    problems = []
    if rows.get("bisection_semigroup_axioms") != \
            ("pass", f"{len(formulas.bisections)} bisections"):
        problems.append("bisection count")
    dim_l = len(formulas.basis)
    classes = sorted(set(formulas.classes))
    dim_q = len(classes)
    ledger = (dim_l, dim_l - dim_q, dim_q, len(formulas.arrows))
    status, detail = rows.get("dimension_ledger", ("", ""))
    found = LEDGER.fullmatch(detail)
    if status != "pass" or found is None or \
            tuple(map(int, found.groups())) != ledger:
        problems.append(f"ledger: expected {ledger}, report says {detail}")
    images = [f"{formulas.label(k)}->{b}:1"
              for k, (_, _, b) in enumerate(formulas.basis)]
    if rows.get("psi_basis_images") != ("pass", "; ".join(images)):
        problems.append("psi_basis_images")
    if rows.get("psi_vanishes_on_ideal") != \
            ("pass", f"checked on {ledger[1]} ideal basis vectors"):
        problems.append("psi_vanishes_on_ideal")
    position = {formulas.label(k): k for k in range(dim_l)}
    listed = rows.get("quotient_basis", ("", ""))[1].split("; ")
    ks = [position.get(label) for label in listed]
    if None in ks or ks != sorted(ks) or \
            sorted(formulas.classes[k] for k in ks) != classes:
        problems.append("quotient_basis is not one element per class")
    return problems
