"""Replay of a theorem5 report from the report and the input file alone.

The input is read with the `json` module, not through `specfiles`, and
every expected value is recomputed from the set formulas, with no call
into the engine:

- the bisections, by brute force over all arrow subsets, in ascending
  bitmask order over the arrow list, and their count;
- the basis (B, u) of L, for u in r(B), and psi's image of each: the
  arrow of B with range u, as `psi_basis_images` lists it;
- the natural order, s <= t iff s = t s* s with the set product, and the
  classes of L/I, joined by (s, x) ~ (t, x) for s <= t and x in r(s);
- the ledger: dim L, dim I = dim L - #classes, dim L/I = #classes and
  dim A = #arrows;
- `quotient_basis`: basis elements of L, in basis order, one per class.

`replay_theorem5(formulas, text)` returns the mismatches, empty when the
report replays.  `Formulas` holds what a groupoid gives and is kept per
input by the caller.
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
