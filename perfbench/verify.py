"""Independent checks of ``check`` output on the reject documents.

Uses only the leq relation recomputed from the document's own cover
pairs.  Greatest lower bounds and least upper bounds are found by
lookup: in a poset the common lower bounds of a and b are exactly the
down-set of one element iff that element is their meet.  Semidistributivity
of a finite lattice is tested by Freese-Jezek-Nation, Theorem 2.56:
meet-SD iff kappa(j) = max {x | j ^ x = j_*} exists for every
join-irreducible j, and dually for join-SD.  That is a different route
from the triple sweep the program runs.
"""

from __future__ import annotations

import functools
import json
import re

_PAIR = re.compile(r"error: elements '(.+)' and '(.+)' have no greatest lower bound\n")
_TRIPLE = re.compile(r"semidistributive: no \((join|meet) law fails at a='(.+)', x='(.+)', y='(.+)'\)")


class _Order:
    def __init__(self, text: str) -> None:
        doc = json.loads(text)
        self.names = doc["elements"]
        index = {name: i for i, name in enumerate(self.names)}
        n = len(self.names)
        self.lower = [[] for _ in range(n)]
        self.upper = [[] for _ in range(n)]
        for u, l in doc["covers"]:
            self.lower[index[u]].append(index[l])
            self.upper[index[l]].append(index[u])
        self.index = index
        self.down = [self._reach(x, self.lower) for x in range(n)]
        self.up = [self._reach(x, self.upper) for x in range(n)]
        self.by_down = {m: x for x, m in enumerate(self.down)}
        self.by_up = {m: x for x, m in enumerate(self.up)}

    @staticmethod
    def _reach(x: int, step: list[list[int]]) -> int:
        seen, todo = 1 << x, [x]
        while todo:
            for y in step[todo.pop()]:
                if not (seen >> y) & 1:
                    seen |= 1 << y
                    todo.append(y)
        return seen

    def meet(self, a: int, b: int) -> int | None:
        return self.by_down.get(self.down[a] & self.down[b])

    def join(self, a: int, b: int) -> int | None:
        return self.by_up.get(self.up[a] & self.up[b])

    def is_lattice(self) -> bool:
        n = len(self.names)
        return all(
            self.meet(a, b) is not None and self.join(a, b) is not None
            for a in range(n)
            for b in range(a)
        )

    def kappa(self, covers: list[list[int]], op, dual) -> dict[int, int] | None:
        """For each e with one cover c in covers: the dual-extreme x with op(e, x) == c.

        With (lower, meet, join) this is kappa on the join-irreducibles, with
        (upper, join, meet) its dual; None if some value does not exist.
        """
        table = {}
        for e, adjacent in enumerate(covers):
            if len(adjacent) != 1:
                continue
            fiber = [x for x in range(len(self.names)) if op(e, x) == adjacent[0]]
            extreme = functools.reduce(dual, fiber)
            if op(e, extreme) != adjacent[0]:
                return None
            table[e] = extreme
        return table

    def header(self) -> list[str]:
        bottom = next(x for x, l in enumerate(self.lower) if not l)
        top = next(x for x, u in enumerate(self.upper) if not u)
        covers = sum(len(l) for l in self.lower)
        return [
            f"lattice: {len(self.names)} elements, {covers} covers",
            f"bottom: {self.names[bottom]}   top: {self.names[top]}",
        ]


def _names_line(line: str, label: str) -> set[str] | None:
    head, _, rest = line.partition(": ")
    if not head.startswith(label + " ("):
        return None
    names = set(rest.split(", ")) if rest else set()
    return names if head == f"{label} ({len(names)})" else None


def check_output(doc: str, code: int, out: str, err: str) -> str | None:
    """None if the exit code and output of ``check`` are right, else why not."""
    order = _Order(doc)
    names = order.names
    if code == 2:
        hit = _PAIR.fullmatch(err)
        if hit is None or out:
            return "exit 2 without a missing-meet pair"
        a, b = (order.index.get(s) for s in hit.groups())
        if a is None or b is None or order.meet(a, b) is not None:
            return f"named pair {hit.groups()} has a greatest lower bound"
        return None
    if code not in (0, 3):
        return f"unexpected exit code {code}"
    if not order.is_lattice():
        return f"exit {code} on a poset that is not a lattice"
    lines = out.splitlines()
    if lines[:2] != order.header():
        return "wrong size or bound lines"
    if code == 3:
        hit = _TRIPLE.fullmatch(lines[2]) if len(lines) == 3 else None
        if hit is None:
            return "exit 3 without a witness triple"
        law = hit.group(1)
        a, x, y = (order.index.get(s) for s in hit.groups()[1:])
        if None in (a, x, y):
            return "witness names an unknown element"
        op, dual = (order.join, order.meet) if law == "join" else (order.meet, order.join)
        v = op(a, x)
        if v != op(a, y) or op(a, dual(x, y)) == v:
            return f"triple does not break the {law} law"
        return None
    kappa = order.kappa(order.lower, order.meet, order.join)
    if kappa is None or order.kappa(order.upper, order.join, order.meet) is None:
        return "exit 0 on a lattice that is not semidistributive"
    mirr = {names[m] for m, u in enumerate(order.upper) if len(u) == 1}
    expected_kappa = sorted(f"  {names[j]} -> {names[m]}" for j, m in kappa.items())
    if (
        len(lines) != 6 + len(kappa)
        or lines[2] != "semidistributive: yes"
        or _names_line(lines[3], "jirr") != {names[j] for j in kappa}
        or _names_line(lines[4], "mirr") != mirr
        or lines[5] != "kappa:"
        or sorted(lines[6:]) != expected_kappa
    ):
        return "wrong jirr, mirr or kappa lines"
    return None
