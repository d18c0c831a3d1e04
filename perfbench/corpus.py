"""Seeded workload generation for the repo benchmark.

Every workload is drawn from a *finite* pool of programs so that the
expected output of every request can be frozen in ``expected.json``
(see ``freeze.py``).  A corpus is a fixed ladder of base programs from
the generator families of :mod:`repro.synthetic.workloads` (plus, on
``par-corpus``, the paper's eight figures verbatim); the seed picks, per
base, ``PICKS`` of ``VARIANTS`` two-statement random edits of it, and
the sending order.  The edits change the answers but hardly the cost, so
two seeds load the pipeline alike while still sending different
programs.  ``edit-session`` walks ``CHAINS_PER_BASE`` of the
``EDIT_CHAINS`` frozen edit chains of each base, chosen by the seed.
Its chains are many and short, so that which ones a seed picks moves
the cost of a run little.

Sizes are kept moderate on purpose: percentiles over many mid-sized
programs are steady from run to run, while a few huge programs make
p50/p90 hop between them (and constprop is cubic on long diamond
chains).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import parse_program, pretty
from repro.fuzz.mutate import random_edit_script
from repro.paper.programs import SOURCES as FIGURES
from repro.synthetic.workloads import WORKLOADS

WORKLOAD_NAMES = ("seq-corpus", "par-corpus", "edit-session")

#: Base programs: family → generator arguments, a size ladder per family.
SEQ_BASES: Dict[str, List[Tuple]] = {
    "chain": [(n,) for n in range(100, 371, 30)],
    "diamond": [(n,) for n in range(10, 29, 2)],
    "dloop": [(n,) for n in range(6, 25, 2)],
    "loopnest": [(d, m) for d in (2, 3, 4, 5, 6) for m in (3, 6)],
}

#: ``random_mix`` seeds (40 statements) whose programs use post/wait and
#: pass the synchronization lint: their §6 Preserved assumption holds, so
#: ``optimize`` answers at full precision instead of degrading.
MIX_SEEDS = (0, 4, 7, 9, 10, 11, 13, 15, 16, 19, 20, 22)

PAR_BASES: Dict[str, List[Tuple]] = {
    "pdloop": [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (2, 4)],
    "plchain": [(2, 3), (2, 4), (3, 3), (3, 4), (4, 3), (4, 4)],
    "fig3x": [(n,) for n in range(1, 7)],
    "pipeline": [(n,) for n in (3, 4, 5, 7, 9, 11)],
    "pardo": [(c, b) for c in (2, 3, 4) for b in (3, 5)],
    "wide": [(3, 3), (3, 5), (4, 4), (5, 3), (6, 3), (6, 5)],
    "nested": [(d,) for d in range(2, 8)],
    "mix": [(s, 40) for s in MIX_SEEDS],
}

#: Seeded edit variants per base program, and how many a seed sends.
VARIANTS = 8
PICKS = 2
VARIANT_EDITS = 2

#: Paper figures sent to ``analyze`` only.  Figure 3's stale event voids
#: the §6 Preserved assumption, so ``optimize`` degrades it by design
#: (``repro.robust.degrade``) and a degraded report counts as a failure.
ANALYZE_ONLY_FIGURES = frozenset({"fig3"})

#: Base programs of the edit chains: a multi-region parallel program (the
#: incremental engine's target), a sequential diamond chain (many small
#: regions), and a synchronized program (always a full-solve fallback).
EDIT_BASES: Tuple[Tuple[str, Tuple], ...] = (
    ("plchain", (6, 5)),
    ("diamond", (40,)),
    ("fig3x", (4,)),
)
EDIT_CHAINS = 32
CHAINS_PER_BASE = 16
EDIT_VERSIONS = 3


@dataclass(frozen=True)
class Request:
    """One program a run sends: its source text and what is asked of it."""

    name: str
    source: str
    #: Also sent to ``optimize`` (``repro report``).
    optimize: bool = True
    #: Paper figure key when the program is one (golden tables apply).
    figure: Optional[str] = None

    @property
    def digest(self) -> str:
        return source_digest(self.source)


@dataclass(frozen=True)
class EditChain:
    """A session: ``versions[0]`` is opened with a full ``analyze``, each
    later version is a one-statement edit of the one before it."""

    name: str
    versions: Tuple[Request, ...]


def source_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def _variant(family: str, args: Tuple, variant: int) -> Request:
    """Edit ``variant`` of a base program: a seeded two-statement edit."""
    program = random_edit_script(WORKLOADS[family](*args), seed=variant, n_edits=VARIANT_EDITS).program
    name = family + "x".join(str(a) for a in args) + f"-e{variant}"
    return Request(name=name, source=pretty(program))


def figure_request(key: str) -> Request:
    return Request(
        name=key,
        source=pretty(parse_program(FIGURES[key])),
        optimize=key not in ANALYZE_ONLY_FIGURES,
        figure=key,
    )


def _bases(workload: str) -> List[Tuple[str, Tuple]]:
    bases = SEQ_BASES if workload == "seq-corpus" else PAR_BASES
    return [(family, args) for family, ladder in bases.items() for args in ladder]


def edit_chain(family: str, args: Tuple, chain_id: int) -> EditChain:
    """Frozen edit chain ``chain_id`` on one base program: each step is a
    seeded one-statement insert/delete/replace at a random position."""
    program = WORKLOADS[family](*args)
    versions = [Request(name=f"{family}-v0", source=pretty(program))]
    for step in range(1, EDIT_VERSIONS + 1):
        program = random_edit_script(program, seed=chain_id * 1000 + step, n_edits=1).program
        versions.append(Request(name=f"{family}-v{step}", source=pretty(program)))
    return EditChain(name=family + "x".join(str(a) for a in args), versions=tuple(versions))


def corpus(workload: str, seed: int) -> List[Request]:
    """The requests of a corpus workload for ``seed``."""
    if workload not in ("seq-corpus", "par-corpus"):
        raise ValueError(f"not a corpus workload: {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    requests = [
        _variant(f, a, v) for f, a in _bases(workload) for v in rng.sample(range(VARIANTS), PICKS)
    ]
    if workload == "par-corpus":
        requests += [figure_request(k) for k in FIGURES]
    rng.shuffle(requests)
    return requests


def edit_session(seed: int) -> List[EditChain]:
    """The edit chains of ``edit-session`` for ``seed``, taking the bases
    in turn so that any prefix of a pass loads them alike."""
    rng = random.Random(f"edit-session:{seed}")
    picked = [rng.sample(range(EDIT_CHAINS), CHAINS_PER_BASE) for _ in EDIT_BASES]
    return [
        edit_chain(family, args, ids[i])
        for i in range(CHAINS_PER_BASE)
        for (family, args), ids in zip(EDIT_BASES, picked)
    ]


def requests_of(workload: str, seed: int) -> List[Request]:
    """Every request program of a run, in sending order (an edit chain's
    opening version included)."""
    if workload == "edit-session":
        return [v for chain in edit_session(seed) for v in chain.versions]
    return corpus(workload, seed)


def full_pool(workload: str) -> List[Request]:
    """Every program any seed can send on ``workload`` (what ``freeze.py``
    freezes)."""
    if workload == "edit-session":
        return [
            v
            for chain_id in range(EDIT_CHAINS)
            for family, args in EDIT_BASES
            for v in edit_chain(family, args, chain_id).versions
        ]
    pool = [_variant(f, a, v) for f, a in _bases(workload) for v in range(VARIANTS)]
    if workload == "par-corpus":
        pool += [figure_request(k) for k in FIGURES]
    return pool


def manifest_programs(workload: str, seed: int) -> List[Dict[str, str]]:
    return [{"name": r.name, "sha256": r.digest} for r in requests_of(workload, seed)]


def workload_digest(programs: List[Dict[str, str]]) -> str:
    """One digest over the ordered program digests of a run."""
    return source_digest("\n".join(p["sha256"] for p in programs))
