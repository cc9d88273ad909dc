"""Seeded corpora for the benchmark workloads, written with ``proprep gen``.

Every instance is produced by the command-line generator, driven in-process
through ``proprep.cli.main`` exactly as a user would call it.  The one input
``gen`` cannot express, the all-approve kept failure of ``sp-stab``, is
written as instance text.  The workload seed picks the per-instance
generator seeds and the covering families; the kept failures do not depend
on it, so they fail identically in every run.

Kept failures go to a ``kept/`` subdirectory: the solve pass runs them, but
``proprep bench`` scans only the workload directory itself, so a known crash
cannot abort the bench pass.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

WORKLOADS = ("monroe-enum", "cc-enum", "sp-large", "sp-stab")

# (m, n, k) ladders; each size is generated once per objective, or as many
# times as the workload's replica counts say.  Replicas spread the data over
# several profiles per size, so totals vary little with the seed.  The
# stabbing DP's time swings most from one profile to the next, least under
# minimax, so sp-stab draws ten minimax profiles per size: its median
# instance falls among them, and a median over thirty varies little with the
# seed (with five per size it spread past its bound).
MONROE_LADDER = ((8, 20, 3), (9, 24, 3), (10, 20, 2))
CC_LADDER = ((14, 40, 4), (16, 60, 4), (18, 80, 3), (20, 100, 3), (20, 60, 4))
CC_REPLICAS = {"sum": 2, "minimax": 2}
SP_LARGE_LADDER = ((60, 1000, 4),)
SP_LARGE_REPLICAS = {"sum": 3, "minimax": 3}
SP_STAB_LADDER = ((4, 30, 2), (5, 24, 2), (6, 24, 2))
SP_STAB_REPLICAS = {"sum": 2, "minimax": 10}
OBJECTIVES = ("sum", "minimax")

# Covering questions behind the known-answer Monroe instances.
HS_UNIVERSE, HS_SETS, HS_K = 9, 6, 3
RX3C_ELEMENTS = 6

KEPT_ALL_APPROVE = (3, 1500)  # candidates, voters: stabbing DP recursion
KEPT_LONG_AXIS = 1200  # candidates for one voter: axis detection recursion


@dataclass(frozen=True)
class Item:
    """One instance file of a workload.

    ``oracle`` names the reference method the checks use: ``"enum"`` for
    exhaustive committee search, ``"sp"`` for the single-peaked methods.
    ``cover`` holds the hitting-set ``(universe, sets, k)`` or exact-cover
    ``(elements, sets)`` question a reduction instance encodes.
    """

    path: Path
    oracle: str
    kept: bool = False
    cover_kind: Optional[str] = None
    cover: Optional[tuple] = None


@dataclass(frozen=True)
class Corpus:
    directory: Path
    items: tuple[Item, ...]

    @property
    def solve_order(self) -> tuple[Item, ...]:
        """Bench files in name order, then the kept failures."""
        return tuple(sorted(self.items, key=lambda item: (item.kept, item.path.name)))


def _sets_arg(sets: Sequence[Sequence[int]]) -> list[str]:
    args = []
    for members in sets:
        args += ["--set", ",".join(str(x) for x in members)]
    return args


def _hitting_family(rng: random.Random) -> tuple[tuple[int, ...], ...]:
    """Sets of 2 or 3 elements whose election has no societal axis.

    ``gen hs-approval`` ranks each set's members first and then the rest in
    index order, and its dummy voters rank everything in index order.  Three
    different last-ranked candidates rule out every axis (each voter's last
    candidate must sit at one of its two ends), so ``auto`` sends the file to
    committee enumeration whatever the seed.
    """
    everyone = range(HS_UNIVERSE)
    while True:
        family = tuple(
            tuple(sorted(rng.sample(everyone, rng.choice((2, 3)))))
            for _ in range(HS_SETS)
        )
        lasts = {max(c for c in everyone if c not in members) for members in family}
        lasts.add(HS_UNIVERSE - 1)
        if len(lasts) >= 3:
            return family


def _triple_family(rng: random.Random) -> tuple[tuple[int, int, int], ...]:
    """Triples over 0..n-1 in which every element occurs exactly three times."""
    slots = [e for e in range(RX3C_ELEMENTS) for _ in range(3)]
    while True:
        rng.shuffle(slots)
        triples = [tuple(sorted(slots[i : i + 3])) for i in range(0, len(slots), 3)]
        if all(len(set(t)) == 3 for t in triples):
            return tuple(sorted(triples))


def build(
    workload: str, seed: int, directory: Path, run_cli: Callable[[list[str]], int]
) -> Corpus:
    """Write the workload's instance files under ``directory``."""
    rng = random.Random(f"perfbench/{workload}/{seed}")
    kept_dir = directory / "kept"
    kept_dir.mkdir(parents=True, exist_ok=True)
    items: list[Item] = []

    def gen(stem: str, oracle: str, args: list[str], **extra) -> None:
        path = directory / f"{len(items):02d}-{stem}.elect"
        code = run_cli(["gen", *args, "--out", str(path)])
        if code != 0:
            raise RuntimeError(f"proprep gen {' '.join(args)} exited {code}")
        items.append(Item(path, oracle, **extra))

    def ladder(family, sizes, oracle, extra_args, replicas=None):
        for (m, n, k), objective in itertools.product(sizes, OBJECTIVES):
            for replica in range(replicas[objective] if replicas else 1):
                suffix = f"-{replica + 1}" if replicas else ""
                gen(
                    f"{family}-m{m}n{n}k{k}-{objective}{suffix}",
                    oracle,
                    [family, "--m", str(m), "--n", str(n), "--k", str(k),
                     "--objective", objective, "--seed", str(rng.randrange(2**31)),
                     *extra_args],
                )

    if workload == "monroe-enum":
        ladder("random", MONROE_LADDER, "enum", ["--rule", "monroe"])
        for objective in OBJECTIVES:
            family = _hitting_family(rng)
            gen(
                f"hs-approval-u{HS_UNIVERSE}k{HS_K}-{objective}",
                "enum",
                ["hs-approval", "--universe", str(HS_UNIVERSE), "--k", str(HS_K),
                 "--rule", "monroe", "--objective", objective, *_sets_arg(family)],
                cover_kind="hitting-set",
                cover=(HS_UNIVERSE, family, HS_K),
            )
        triples = _triple_family(rng)
        gen(
            f"rx3c-monroe-n{RX3C_ELEMENTS}",
            "enum",
            ["rx3c-monroe", "--n", str(RX3C_ELEMENTS), *_sets_arg(triples)],
            cover_kind="exact-cover",
            cover=(RX3C_ELEMENTS, triples),
        )
    elif workload == "cc-enum":
        ladder("random", CC_LADDER, "enum", ["--rule", "cc"], CC_REPLICAS)
    elif workload == "sp-large":
        ladder("single-peaked", SP_LARGE_LADDER, "sp", ["--rule", "cc"], SP_LARGE_REPLICAS)
        path = kept_dir / f"single-peaked-m{KEPT_LONG_AXIS}n1k1-monroe-sum.elect"
        code = run_cli(
            ["gen", "single-peaked", "--m", str(KEPT_LONG_AXIS), "--n", "1",
             "--k", "1", "--rule", "monroe", "--bound", "0", "--seed", "0",
             "--out", str(path)]
        )
        if code != 0:
            raise RuntimeError(f"proprep gen for {path.name} exited {code}")
        items.append(Item(path, "enum", kept=True))
    else:
        ladder(
            "single-peaked", SP_STAB_LADDER, "enum",
            ["--rule", "monroe", "--misrep", "approval"],
            SP_STAB_REPLICAS,
        )
        m, n = KEPT_ALL_APPROVE
        names = [f"c{i + 1}" for i in range(m)]
        ranking = " ".join(names) + "\n"
        text = (
            f"proprep v1\n{m} {n} 1 - monroe sum approval\n"
            + "".join(name + "\n" for name in names)
            + ranking * n
            + "#approve\n"
            + ranking * n
        )
        path = kept_dir / f"all-approve-m{m}n{n}k1-sum.elect"
        path.write_text(text)
        items.append(Item(path, "enum", kept=True))
    return Corpus(directory, tuple(items))
