"""Seeded workload inputs, command lists and expected report values.

Each workload is a list of CLI commands.  The inputs the program sees are
generated from the seed alone: catalog graphs with their vertices
relabelled and their edge lines shuffled, and ordered-pairs groups with
their points relabelled and their generators shuffled.  The benchmark
holds its own copies of the graph and group definitions, so the program
receives only the generated files and never helps build its own input.

Every expected value is invariant under relabelling (group orders, core
series, classification levels, vertex and edge counts); witness
permutations and block systems are never compared.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from math import factorial
from pathlib import Path

WORKLOADS = ("pairs-scan", "tc-pipeline", "small-inputs")

# Why each workload is in the benchmark; BENCHMARK.json repeats these.
WHY = {
    "pairs-scan": (
        "Sym(8) on ordered pairs: the normalizer and conjugacy-class element "
        "scans and normal-closure chain rebuilds in group, structure and "
        "actions; graphs does no work"
    ),
    "tc-pipeline": (
        "the README Tutte-Coxeter commands plus autos on a seeded relabelling: "
        "dominated by graph automorphism search, then pointwise stabilizers, "
        "amalgams and verify"
    ),
    "small-inputs": (
        "about twenty short commands on small seeded graphs and groups, where "
        "interpreter start, import and fixed per-call costs dominate"
    ),
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the values its JSON reports must carry.

    ``argv`` may name generated files as ``{key}``.  ``expect`` holds one
    mapping per report, from ``"inputs.<field>"`` or
    ``"<check name>.<detail field>"`` to the value it must have.
    """

    argv: tuple[str, ...]
    command: str
    expect: tuple[dict, ...]


# -- graph and group definitions held by the benchmark ------------------------


def _lcf(shifts: list[int], repeats: int) -> tuple[int, list[tuple[int, int]]]:
    n = len(shifts) * repeats
    edges = {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}
    for i in range(n):
        j = (i + shifts[i % len(shifts)]) % n
        edges.add((min(i, j), max(i, j)))
    return n, sorted(edges)


GRAPHS = {
    "k4": (4, [(u, v) for u in range(4) for v in range(u + 1, 4)]),
    "k33": (6, [(u, v) for u in range(3) for v in range(3, 6)]),
    "petersen": (
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
    ),
    "heawood": _lcf([5, -5], 7),
    "tutte-coxeter": _lcf([-13, -9, 7, -7, 9, 13], 5),
}

# Automorphism group orders, vertex counts and edge counts.
GRAPH_FACTS = {
    "k4": (24, 4, 6),
    "k33": (72, 6, 9),
    "petersen": (120, 10, 15),
    "heawood": (336, 14, 21),
    "tutte-coxeter": (1440, 30, 45),
}


def relabelled_graph(name: str, rng: random.Random) -> str:
    """Graph file text for a catalog graph under a random vertex relabelling."""
    n, edges = GRAPHS[name]
    sigma = list(range(n))
    rng.shuffle(sigma)
    lines = []
    for u, v in edges:
        a, b = sigma[u], sigma[v]
        lines.append(f"{a} {b}" if rng.random() < 0.5 else f"{b} {a}")
    rng.shuffle(lines)
    return f"{n} {len(edges)}\n" + "\n".join(lines) + "\n"


def pairs_generators(n: int) -> list[list[int]]:
    """Sym(n) on its n(n-1) ordered pairs, generated by (0 1) and (0 1 ... n-1)."""
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    index = {p: i for i, p in enumerate(pairs)}
    swap = list(range(n))
    swap[0], swap[1] = 1, 0
    cycle = [(x + 1) % n for x in range(n)]
    return [[index[(g[a], g[b])] for a, b in pairs] for g in (swap, cycle)]


def relabelled_pairs_group(n: int, rng: random.Random) -> str:
    """Group file text for the pairs action with relabelled points and
    generators in shuffled order."""
    gens = pairs_generators(n)
    degree = len(gens[0])
    sigma = list(range(degree))
    rng.shuffle(sigma)
    relabelled = []
    for g in gens:
        images = [0] * degree
        for x in range(degree):
            images[sigma[x]] = sigma[g[x]]
        relabelled.append(images)
    rng.shuffle(relabelled)
    return f"degree {degree}\n" + "".join(
        ",".join(map(str, g)) + "\n" for g in relabelled
    )


# -- expected report values ---------------------------------------------------


def _lemma(n: int) -> dict:
    stab = factorial(n - 2)
    return {
        "inputs.n": n,
        "inputs.degree": n * (n - 1),
        "base-stabilizer-order.order": stab,
        "normalizer-index.normalizer_order": 2 * stab,
        "pair-generation.join_order": factorial(n),
    }


def _autos(source: str, name: str) -> Command:
    order, vertices, edges = GRAPH_FACTS[name]
    return Command(
        ("graph", "autos", source),
        "graph autos",
        (
            {
                "inputs.vertices": vertices,
                "inputs.edges": edges,
                "automorphism-group.order": order,
                "automorphism-group.vertex_transitive": True,
            },
        ),
    )


def _theorem_n4(vertex_order: int, edge_order: int, cores: list[int]) -> dict:
    return {
        "inputs.n": 4,
        "inputs.radius": 3,
        "inputs.route": "amalgam",
        "inputs.vertex_order": vertex_order,
        "inputs.edge_order": edge_order,
        "inputs.valency": 12,
        "stabilizer-triviality.vertex_core_orders": cores,
    }


def _classify(n: int, level: str, plinths: list[int]) -> Command:
    return Command(
        ("action", "classify", "--group", f"{{pairs{n}}}"),
        "action classify",
        (
            {
                "inputs.degree": n * (n - 1),
                "inputs.order": factorial(n),
                "classification.level": level,
                "classification.plinth_orders": plinths,
            },
        ),
    )


def _build_pairs(n: int) -> Command:
    return Command(
        ("action", "build-pairs", "--n", str(n)),
        "action build-pairs",
        ({"inputs.degree": n * (n - 1), "inputs.order": factorial(n)},),
    )


TC_THEOREM = _theorem_n4(192, 32, [8, 2, 1])


def commands(workload: str) -> list[Command]:
    """The command list of a workload, with ``{key}`` file placeholders."""
    return list(_COMMANDS[workload])


def generate_inputs(seed: int, directory: Path) -> dict[str, str]:
    """Write the seeded input files; returns placeholder -> path."""
    rng = random.Random(seed)
    files = {}
    for name in ("k4", "k33", "petersen", "heawood", "tutte-coxeter"):
        path = directory / f"{name}.txt"
        path.write_text(relabelled_graph(name, rng))
        files[name] = str(path)
    for n in (4, 5, 6, 8):
        path = directory / f"pairs{n}.grp"
        path.write_text(relabelled_pairs_group(n, rng))
        files[f"pairs{n}"] = str(path)
    return files


def resolve(command: Command, files: dict[str, str]) -> list[str]:
    """CLI arguments with the file placeholders filled in, plus --json."""
    return [arg.format(**files) for arg in command.argv] + ["--json"]


_COMMANDS: dict[str, tuple[Command, ...]] = {
    "pairs-scan": (
        Command(
            ("lemma", "verify", "--n", "4..8"),
            "lemma verify",
            tuple(_lemma(n) for n in range(4, 9)),
        ),
        _classify(8, "quasiprimitive", [20160]),
    ),
    "tc-pipeline": (
        Command(
            ("verify", "theorem", "--n", "4", "--construct", "tutte-coxeter"),
            "verify theorem",
            (TC_THEOREM,),
        ),
        Command(
            ("trace", "claims", "--n", "4", "--construct", "tutte-coxeter"),
            "trace claims",
            (
                {
                    "inputs.vertex_order": 192,
                    "inputs.edge_order": 32,
                    "inputs.first_edge_kernel_order": 4,
                    "inputs.subgroup_orders": {
                        "s_xy": 16, "z_xy": 4, "q_x": 8, "q_y": 8, "z_x": 8,
                        "z_y": 8, "r1": 48, "r2": 48, "r1_star": 48,
                        "r2_star": 48,
                    },
                    "edge-kernel-prime.prime": 2,
                    "claim5-second-edge-kernel.second_edge_kernel_order": 1,
                },
            ),
        ),
        Command(
            ("check", "hauptlemma", "--n", "4", "--construct", "tutte-coxeter",
             "--k", "trivial"),
            "check hauptlemma",
            (
                {
                    "inputs.k_order": 1,
                    "inputs.vertex_order": 192,
                    "hauptlemma-consistency.normalizer_order": 192,
                },
            ),
        ),
        Command(
            ("construct", "section4", "--h", "tutte-coxeter", "--depth", "3"),
            "construct section4",
            (
                {
                    "inputs.input_vertex_order": 48,
                    "inputs.output_vertex_order": 192,
                    "inputs.output_edge_order": 32,
                    "core-sequence-match.vertex_core_orders": [8, 2, 1],
                    "core-sequence-match.edge_core_orders": [4, 1, 1],
                    "faithful.kernel_order": 1,
                },
            ),
        ),
        _autos("tutte-coxeter", "tutte-coxeter"),
        Command(
            ("amalgam", "cores", "tutte-coxeter", "--depth", "3"),
            "amalgam cores",
            (
                {
                    "ball-agreement.vertex_core_orders": [8, 2, 1],
                    "ball-agreement.edge_core_orders": [4, 1, 1],
                },
            ),
        ),
        _autos("{tutte-coxeter}", "tutte-coxeter"),
        Command(
            ("verify", "theorem", "--n", "4", "--construct", "{tutte-coxeter}"),
            "verify theorem",
            (TC_THEOREM,),
        ),
    ),
    "small-inputs": (
        _autos("{k4}", "k4"),
        _autos("{k33}", "k33"),
        _autos("{petersen}", "petersen"),
        _autos("{heawood}", "heawood"),
        Command(
            ("graph", "balls", "{petersen}", "--radius", "2"),
            "graph balls",
            ({"ball-series.orders": [12, 2, 1]},),
        ),
        Command(
            ("graph", "balls", "{heawood}", "--radius", "3"),
            "graph balls",
            ({"ball-series.orders": [24, 4, 1, 1]},),
        ),
        *(
            Command(
                ("graph", "coset", f"{{{name}}}"),
                "graph coset",
                (
                    {
                        "vertex-count.rebuilt": GRAPH_FACTS[name][1],
                        "edge-count.rebuilt": GRAPH_FACTS[name][2],
                        "group-order.rebuilt": GRAPH_FACTS[name][0],
                    },
                ),
            )
            for name in ("k33", "heawood")
        ),
        Command(
            ("amalgam", "extract", "{heawood}"),
            "amalgam extract",
            ({"inputs.vertex_order": 24, "inputs.edge_order": 16,
              "inputs.shared_order": 8},),
        ),
        Command(
            ("amalgam", "extract", "{k4}"),
            "amalgam extract",
            ({"inputs.vertex_order": 6, "inputs.edge_order": 4,
              "inputs.shared_order": 2},),
        ),
        Command(
            ("amalgam", "faithful", "{petersen}"),
            "amalgam faithful",
            ({"faithful.kernel_order": 1},),
        ),
        Command(
            ("amalgam", "cores", "{heawood}", "--depth", "2"),
            "amalgam cores",
            ({"ball-agreement.vertex_core_orders": [4, 1],
              "ball-agreement.edge_core_orders": [2, 1]},),
        ),
        Command(
            ("amalgam", "cores", "{k33}", "--depth", "2"),
            "amalgam cores",
            ({"ball-agreement.vertex_core_orders": [2, 1],
              "ball-agreement.edge_core_orders": [1, 1]},),
        ),
        _build_pairs(5),
        _build_pairs(6),
        _classify(4, "semiprimitive", [12]),
        _classify(5, "quasiprimitive", [60]),
        _classify(6, "quasiprimitive", [360]),
        Command(
            ("lemma", "verify", "--n", "4..6"),
            "lemma verify",
            tuple(_lemma(n) for n in range(4, 7)),
        ),
        Command(
            ("verify", "theorem", "--n", "3"),
            "verify theorem",
            ({"inputs.vertex_order": 6, "inputs.edge_order": 2,
              "stabilizer-triviality.vertex_core_orders": [1]},),
        ),
        Command(
            ("verify", "theorem", "--n", "4", "--construct", "{heawood}"),
            "verify theorem",
            (_theorem_n4(96, 16, [4, 1, 1]),),
        ),
        Command(
            ("trace", "claims", "--n", "4", "--construct", "{petersen}"),
            "trace claims",
            ({"inputs.vertex_order": 48, "inputs.edge_order": 8,
              "inputs.first_edge_kernel_order": 1},),
        ),
        Command(
            ("construct", "section4", "--h", "{k33}", "--depth", "2"),
            "construct section4",
            ({"inputs.output_vertex_order": 48,
              "core-sequence-match.vertex_core_orders": [2, 1],
              "faithful.kernel_order": 1},),
        ),
    ),
}
