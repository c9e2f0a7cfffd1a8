"""The benchmark's workloads: the documents each one writes and the requests it sends.

- ``dense``: boolean(7) and weak_sym(5) under every labeling-heavy
  command.  Many covers and few distinct label sets, so the lattice
  test, the SD sweep, arrow labels and the clo order do most of the
  work and poset assembly little.
- ``posets``: ``posets --kind all`` on lattices with hundreds to
  thousands of distinct label sets on at most 120 elements, so inclusion
  plus transitive reduction dominate and labeling is negligible.
  weak_dihedral(34) has 66 join-irreducibles, past the 64-bit word of
  the compiled sweep.
- ``reject``: small seeded documents through ``check``, most of them
  failing the lattice test (exit 2) or the SD test (exit 3) on their
  witness paths, plus the paper's worked examples under the emitting
  commands.

Every request takes at most about 0.25 s with the current pure-Python
kernels, so a run repeats each one many times.  On a shared 2-CPU host
the time of one request varies by up to 2x from second to second, while
the fastest of its many runs varies by a few percent; a request of
several seconds cannot be repeated often enough for that.  So
boolean(9), weak_sym(6) and chain(100), which take 1 to 10 s per request
now, stay out until the labeling and poset-assembly algorithms are fast.

Every workload also reaches each traced layer at least once, so no layer
reads a constant zero.  The seed orders the requests; for ``reject`` it
also draws the documents.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import rejectgen

DEFAULT_SEED = 1

# document name -> (generator family, size parameter or None)
FAMILY_DOCS = {
    "boolean7": ("boolean", 7),
    "weak_sym5": ("weak_sym", 5),
    "chain40": ("chain", 40),
    "weak_dihedral34": ("weak_dihedral", 34),
    "fig1": ("fig1", None),
    "ex424": ("ex424", None),
    "ex426": ("ex426", None),
}


@dataclass(frozen=True)
class Request:
    command: str
    doc: str
    options: tuple[str, ...] = ()

    @property
    def rid(self) -> str:
        return " ".join((self.command, self.doc, *self.options))

    def argv(self, path: Path) -> list[str]:
        return [self.command, str(path), *self.options]


def _dense() -> list[Request]:
    return [
        Request(command, doc, options)
        for doc in ("boolean7", "weak_sym5")
        for command, options in (
            ("check", ()),
            ("labels", ()),
            ("compare", ()),
            ("orders", ("--kind", "clo")),
            ("posets", ("--kind", "wide")),
        )
    ]


def _posets() -> list[Request]:
    return [
        Request("posets", "chain40", ("--kind", "all")),
        Request("posets", "weak_dihedral34", ("--kind", "all", "--format", "dot")),
        Request("posets", "weak_sym5", ("--kind", "all")),
        Request("posets", "weak_sym5", ("--kind", "ice")),
        Request("compare", "ex426"),  # reaches the orders layer
    ]


_REJECT_FIXED = (
    Request("compare", "ex424"),
    Request("posets", "fig1", ("--kind", "wide", "--format", "dot")),
    Request("labels", "ex426", ("--dot",)),
)

NAMES = ("dense", "posets", "reject")


def seeded_documents(workload: str, seed: int) -> list[tuple[str, str]]:
    """The (name, text) pairs the seed draws: reject's random documents."""
    return rejectgen.generate(seed) if workload == "reject" else []


def make_inputs(workload: str, seed: int, kappalat, workdir: Path, seeded):
    """Write the workload's documents; return (requests, paths, random texts).

    seeded is ``seeded_documents(workload, seed)``; each gets a ``check``
    request.  paths maps every document name to its file; random texts
    maps the seeded documents to their text, for independent checking.
    """
    if workload == "dense":
        requests = _dense()
    elif workload == "posets":
        requests = _posets()
    else:
        requests = list(_REJECT_FIXED)
    texts = {}
    for doc in dict.fromkeys(r.doc for r in requests):
        family, n = FAMILY_DOCS[doc]
        if n is None:
            lattice, meta = kappalat.generators.FAMILIES[family](), {"family": family}
        else:
            lattice, meta = kappalat.generators.FAMILIES[family](n), {"family": family, "n": str(n)}
        texts[doc] = kappalat.io.emit_lattice(lattice, meta)
    random_texts = {}
    for doc, text in seeded:
        random_texts[doc] = texts[doc] = text
        requests.append(Request("check", doc))
    paths = {}
    for doc, text in texts.items():
        paths[doc] = workdir / f"{doc}.json"
        paths[doc].write_text(text, encoding="utf-8")
    random.Random(seed).shuffle(requests)
    return requests, paths, random_texts
