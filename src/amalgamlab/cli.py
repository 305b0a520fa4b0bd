"""Command-line interface.

Every subcommand runs one or more verifications and emits reports, either
human-readable (default) or as JSON objects, one per line, with ``--json``.
The exit code is a pure function of the reports: 0 when every check passed
or was vacuous, 1 when at least one check is violated, 2 for usage, input,
or guard errors.

Each handler imports the library names it calls at the top of its own
body, so a command loads only the modules it runs: a graph command never
compiles the ordered-pairs, structure or verifier modules.  At module level
this file imports only ``argparse``, ``os``, ``sys``, ``errors`` and
``report``.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import AmalgamlabError, GraphError
from .report import Report

# Type checkers read these imports; at run time `typing` is never loaded.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable

    from .amalgams import Amalgam
    from .graphs import PairInstance

__all__ = ["main", "cli_dispatch"]


def _parse_n_range(text: str) -> range:
    """The values of `--n`, lazily: a guard stops a huge range early."""
    lo, dots, hi = text.partition("..")
    try:
        start = int(lo)
        stop = int(hi) if dots else start
    except ValueError:
        raise ValueError(
            f"--n must be an integer or a range a..b, got {text!r}"
        ) from None
    if stop < start:
        raise ValueError(f"empty range {text!r}")
    return range(start, stop + 1)


def _at_least(value: int, low: int, flag: str) -> None:
    """Reject a bound that would make a reported series empty."""
    if value < low:
        raise ValueError(f"{flag} must be at least {low}, got {value}")


def _within_graph(value: int, inst: PairInstance, flag: str) -> None:
    """Reject a distance bound above the vertex count: past the diameter the
    series is constant, so a larger bound only repeats its last term."""
    if value > inst.graph.vertex_count:
        raise ValueError(
            f"{flag} must be at most the vertex count "
            f"{inst.graph.vertex_count}, got {value}"
        )


def _load_instance(source: str) -> PairInstance:
    """A catalog name, or a path to a graph file (automorphisms computed)."""
    from pathlib import Path

    from .graphs import (
        catalog_graph,
        catalog_names,
        graph_automorphisms,
        pair_instance,
        parse_graph,
    )

    path = Path(source)
    if source in catalog_names() or not path.exists():
        return catalog_graph(source)
    graph = parse_graph(path.read_text())
    return pair_instance(graph, graph_automorphisms(graph))


def _parse_edge(text: str | None) -> tuple[int, int] | None:
    if text is None:
        return None
    x, _, y = text.partition(",")
    try:
        return (int(x), int(y))
    except ValueError:
        raise ValueError(
            f"--edge must be x,y with integer x and y, got {text!r}"
        ) from None


def _instance_edge(
    inst: PairInstance, edge: tuple[int, int] | None
) -> tuple[int, int]:
    """The given edge, checked against the graph, or its first edge."""
    if edge is None:
        return inst.graph.first_edge()
    x, y = edge
    if not inst.graph.has_edge(x, y):
        raise GraphError(f"{{{x},{y}}} is not an edge")
    return edge


def _section4_pipeline(h_source: str):
    """Catalog H-amalgam inflated over the n = 4 pairs action and its seed."""
    from .actions import classify_action
    from .amalgams import amalgam_from_pair, inflate_amalgam
    from .pairs import build_ordered_pairs

    base = build_ordered_pairs(4).group
    seed = classify_action(base).witnesses["quasiprimitive"]
    inst = _load_instance(h_source)
    h_amalgam = amalgam_from_pair(inst, *inst.graph.first_edge())
    return inflate_amalgam(base, seed, h_amalgam)


def _theorem_instance(args: argparse.Namespace) -> PairInstance | Amalgam:
    from pathlib import Path

    from .graphs import pair_instance, parse_graph
    from .group import PermGroup
    from .perm import parse_group_file
    from .verify import regular_base_instance

    if args.construct is not None:
        if args.n != 4:
            raise AmalgamlabError(
                "the product construction targets the n = 4 pairs action"
            )
        return _section4_pipeline(args.construct).amalgam
    if args.graph is not None:
        if args.group is None:
            raise AmalgamlabError("--graph needs --group")
        graph = parse_graph(Path(args.graph).read_text())
        degree, gens = parse_group_file(Path(args.group).read_text())
        return pair_instance(graph, PermGroup(gens, degree=degree))
    if args.n == 3:
        return regular_base_instance()
    raise AmalgamlabError(
        f"no built-in instance for n = {args.n}; pass --construct or --graph"
    )


# -- command handlers (each returns a list of reports) ------------------------


def _cmd_action_build_pairs(args: argparse.Namespace) -> list[Report]:
    from math import factorial
    from pathlib import Path

    from .pairs import build_ordered_pairs
    from .perm import format_group_file

    action = build_ordered_pairs(args.n)
    report = Report(
        "action build-pairs",
        {"n": args.n, "degree": action.degree, "order": action.group.order()},
    )
    report.require(
        "degree-formula",
        action.degree == args.n * (args.n - 1),
        "pair-action",
        {"degree": action.degree, "expected": args.n * (args.n - 1)},
    )
    report.require(
        "order-formula",
        action.group.order() == factorial(args.n),
        "pair-action",
        {"order": action.group.order(), "expected": factorial(args.n)},
    )
    report.require(
        "transitive",
        action.group.is_transitive(),
        "pair-action",
        {},
    )
    if args.out is not None:
        Path(args.out).write_text(
            format_group_file(action.degree, action.group.generators)
        )
    return [report]


def _cmd_action_classify(args: argparse.Namespace) -> list[Report]:
    from pathlib import Path

    from .actions import classify_action
    from .group import PermGroup
    from .pairs import build_ordered_pairs
    from .perm import parse_group_file

    if args.pairs is not None:
        group = build_ordered_pairs(args.pairs).group
        source = f"pairs n={args.pairs}"
    else:
        degree, gens = parse_group_file(Path(args.group).read_text())
        group = PermGroup(gens, degree=degree)
        source = args.group
    result = classify_action(group)
    details: dict = {"level": result.level}
    details["witness_orders"] = {
        level: sub.order() for level, sub in result.witnesses.items()
    }
    if result.block_system is not None:
        details["block_system"] = [list(b) for b in result.block_system]
    if result.plinths:
        details["plinth_orders"] = [g.order() for g in result.plinths]
    report = Report(
        "action classify",
        {"source": source, "degree": group.degree, "order": group.order()},
    )
    report.add("classification", "pass", "action-hierarchy", details)
    return [report]


def _cmd_lemma_verify(args: argparse.Namespace) -> list[Report]:
    from .pairs import verify_approximation

    return [verify_approximation(n) for n in _parse_n_range(args.n)]


def _cmd_graph_autos(args: argparse.Namespace) -> list[Report]:
    inst = _load_instance(args.source)
    report = Report(
        "graph autos",
        {
            "source": args.source,
            "vertices": inst.graph.vertex_count,
            "edges": len(inst.graph.edges()),
        },
    )
    report.require(
        "automorphism-group",
        all(inst.graph.is_automorphism(g) for g in inst.group.generators),
        "graph-symmetries",
        {
            "order": inst.group.order(),
            "vertex_transitive": inst.vertex_transitive,
            "generators": [str(g) for g in inst.group.generators],
        },
    )
    return [report]


def _cmd_graph_balls(args: argparse.Namespace) -> list[Report]:
    from .graphs import stabilizer_series, stabilizer_series_pair

    _at_least(args.radius, 0, "--radius")
    inst = _load_instance(args.source)
    _within_graph(args.radius, inst, "--radius")
    series = stabilizer_series(inst, args.x, args.radius)
    inputs = {"source": args.source, "x": args.x, "y": args.y, "radius": args.radius}
    if args.y is None:
        del inputs["y"]
    report = Report("graph balls", inputs)
    report.require(
        "ball-series",
        all(
            series[i] % series[i + 1] == 0 and series[i] >= series[i + 1]
            for i in range(len(series) - 1)
        ),
        "ball-stabilizers",
        {"orders": series},
    )
    if args.y is not None:
        pair_series = stabilizer_series_pair(inst, args.x, args.y, args.radius)
        report.require(
            "edge-ball-series",
            all(
                pair_series[i] % pair_series[i + 1] == 0
                for i in range(len(pair_series) - 1)
            ),
            "ball-stabilizers",
            {"orders": pair_series},
        )
    return [report]


def _cmd_graph_coset(args: argparse.Namespace) -> list[Report]:
    from .graphs import coset_graph

    inst = _load_instance(args.source)
    x, y = _instance_edge(inst, _parse_edge(args.edge))
    rebuilt = coset_graph(
        inst.group,
        inst.group.stabilizer(x),
        inst.group.setwise_stabilizer([x, y]),
    )
    report = Report(
        "graph coset",
        {"source": args.source, "edge": [x, y]},
    )
    report.require(
        "vertex-count",
        rebuilt.graph.vertex_count == inst.graph.vertex_count,
        "coset-graph",
        {
            "rebuilt": rebuilt.graph.vertex_count,
            "original": inst.graph.vertex_count,
        },
    )
    report.require(
        "edge-count",
        len(rebuilt.graph.edges()) == len(inst.graph.edges()),
        "coset-graph",
        {"rebuilt": len(rebuilt.graph.edges()), "original": len(inst.graph.edges())},
    )
    report.require(
        "group-order",
        rebuilt.group.order() == inst.group.order(),
        "coset-graph",
        {"rebuilt": rebuilt.group.order(), "original": inst.group.order()},
    )
    return [report]


def _cmd_graph_catalog(args: argparse.Namespace) -> list[Report]:
    from .graphs import catalog_graph, catalog_names

    report = Report("graph catalog", {"names": list(catalog_names())})
    for name in catalog_names():
        inst = catalog_graph(name)
        report.add(
            f"catalog-{name}",
            "pass",
            "graph-symmetries",
            {
                "vertices": inst.graph.vertex_count,
                "valency": inst.graph.degree(0),
                "automorphism_order": inst.group.order(),
            },
        )
    return [report]


def _cmd_amalgam_extract(args: argparse.Namespace) -> list[Report]:
    from .amalgams import amalgam_from_pair

    inst = _load_instance(args.source)
    x, y = _instance_edge(inst, _parse_edge(args.edge))
    amalgam = amalgam_from_pair(inst, x, y)
    report = Report(
        "amalgam extract",
        {
            "source": args.source,
            "edge": [x, y],
            "vertex_order": amalgam.a.order(),
            "edge_order": amalgam.b.order(),
            "shared_order": amalgam.c_in_a.order(),
        },
    )
    report.require(
        "vertex-edge-shape",
        amalgam.index_b == 2,
        "stabilizer-amalgam",
        {"edge_index": amalgam.index_b},
    )
    report.require(
        "valency-index",
        amalgam.index_a == inst.graph.degree(x),
        "stabilizer-amalgam",
        {"vertex_index": amalgam.index_a, "valency": inst.graph.degree(x)},
    )
    return [report]


def _cmd_amalgam_faithful(args: argparse.Namespace) -> list[Report]:
    from .amalgams import amalgam_from_pair, faithful_kernel

    inst = _load_instance(args.source)
    x, y = _instance_edge(inst, _parse_edge(args.edge))
    amalgam = amalgam_from_pair(inst, x, y)
    kernel = faithful_kernel(amalgam)
    report = Report(
        "amalgam faithful", {"source": args.source, "edge": [x, y]}
    )
    report.require(
        "faithful",
        kernel.is_trivial(),
        "amalgam-faithfulness",
        {"kernel_order": kernel.order()},
    )
    return [report]


def _cmd_amalgam_cores(args: argparse.Namespace) -> list[Report]:
    from .amalgams import amalgam_from_pair, core_sequence
    from .graphs import stabilizer_series, stabilizer_series_pair

    _at_least(args.depth, 1, "--depth")
    inst = _load_instance(args.source)
    _within_graph(args.depth, inst, "--depth")
    x, y = _instance_edge(inst, _parse_edge(args.edge))
    amalgam = amalgam_from_pair(inst, x, y)
    vertex_cores, edge_cores = core_sequence(amalgam, args.depth)
    vertex_orders = [g.order() for g in vertex_cores]
    edge_orders = [g.order() for g in edge_cores]
    ball_orders = stabilizer_series(inst, x, args.depth)[1:]
    pair_orders = stabilizer_series_pair(inst, x, y, args.depth)[1:]
    report = Report(
        "amalgam cores",
        {"source": args.source, "edge": [x, y], "depth": args.depth},
    )
    report.require(
        "ball-agreement",
        vertex_orders == ball_orders and edge_orders == pair_orders,
        "core-recursion",
        {
            "vertex_core_orders": vertex_orders,
            "vertex_ball_orders": ball_orders,
            "edge_core_orders": edge_orders,
            "edge_ball_orders": pair_orders,
        },
    )
    return [report]


def _cmd_construct_section4(args: argparse.Namespace) -> list[Report]:
    from .amalgams import verify_inflation

    _at_least(args.depth, 1, "--depth")
    certificate = _section4_pipeline(args.h)
    report = verify_inflation(certificate, depth=args.depth)
    report.inputs["h_source"] = args.h
    return [report]


def _cmd_verify_theorem(args: argparse.Namespace) -> list[Report]:
    from .verify import verify_theorem

    instance = _theorem_instance(args)
    return [verify_theorem(instance, args.n, edge=_parse_edge(args.edge))]


def _cmd_trace_claims(args: argparse.Namespace) -> list[Report]:
    from .verify import proof_trace

    instance = _theorem_instance(args)
    return [proof_trace(instance, args.n, edge=_parse_edge(args.edge))]


def _cmd_check_hauptlemma(args: argparse.Namespace) -> list[Report]:
    from .group import PermGroup
    from .structure import o_p, p_valuation
    from .verify import edge_context, edge_kernel_prime, hauptlemma_check

    instance = _theorem_instance(args)
    ctx = edge_context(instance, depth=1, edge=_parse_edge(args.edge))
    if args.k == "trivial":
        subgroup = PermGroup(degree=ctx.amalgam.a.degree)
    elif args.k == "first-edge-kernel":
        subgroup = ctx.edge_cores[0]
    else:  # sylow-product
        kernel = ctx.edge_cores[0]
        if kernel.is_trivial():
            raise AmalgamlabError(
                "the first edge kernel is trivial; no prime to take a radical for"
            )
        p = edge_kernel_prime(ctx)
        if p_valuation(kernel.order(), p)[1] != 1:
            raise AmalgamlabError("the first edge kernel is not a prime power")
        subgroup = o_p(ctx.amalgam.c_in_a, p)
    report = hauptlemma_check(ctx, subgroup)
    report.inputs["k"] = args.k
    return [report]


# -- parser -------------------------------------------------------------------


def _action_leaves(
    sub: argparse._SubParsersAction, common: argparse.ArgumentParser
) -> None:
    build = sub.add_parser("build-pairs", parents=[common])
    build.add_argument("--n", type=int, required=True)
    build.add_argument("--out", help="write the group to a file")
    build.set_defaults(handler=_cmd_action_build_pairs)
    classify = sub.add_parser("classify", parents=[common])
    classify_src = classify.add_mutually_exclusive_group(required=True)
    classify_src.add_argument("--pairs", type=int, help="ordered-pairs action for n")
    classify_src.add_argument("--group", help="path to a group file")
    classify.set_defaults(handler=_cmd_action_classify)


def _lemma_leaves(
    sub: argparse._SubParsersAction, common: argparse.ArgumentParser
) -> None:
    lverify = sub.add_parser("verify", parents=[common])
    lverify.add_argument("--n", required=True, help="single value or range like 4..8")
    lverify.set_defaults(handler=_cmd_lemma_verify)


def _graph_leaves(
    sub: argparse._SubParsersAction, common: argparse.ArgumentParser
) -> None:
    autos = sub.add_parser("autos", parents=[common])
    autos.add_argument("source", help="catalog name or graph file")
    autos.set_defaults(handler=_cmd_graph_autos)
    balls = sub.add_parser("balls", parents=[common])
    balls.add_argument("source")
    balls.add_argument("--x", type=int, default=0)
    balls.add_argument("--y", type=int, default=None)
    balls.add_argument("--radius", type=int, default=3)
    balls.set_defaults(handler=_cmd_graph_balls)
    coset = sub.add_parser("coset", parents=[common])
    coset.add_argument("source")
    coset.add_argument("--edge", help="edge as x,y (default: first edge)")
    coset.set_defaults(handler=_cmd_graph_coset)
    catalog = sub.add_parser("catalog", parents=[common])
    catalog.set_defaults(handler=_cmd_graph_catalog)


def _amalgam_leaves(
    sub: argparse._SubParsersAction, common: argparse.ArgumentParser
) -> None:
    for name, handler in (
        ("extract", _cmd_amalgam_extract),
        ("faithful", _cmd_amalgam_faithful),
        ("cores", _cmd_amalgam_cores),
    ):
        leaf = sub.add_parser(name, parents=[common])
        leaf.add_argument("source")
        leaf.add_argument("--edge", help="edge as x,y (default: first edge)")
        if name == "cores":
            leaf.add_argument("--depth", type=int, default=3)
        leaf.set_defaults(handler=handler)


def _construct_leaves(
    sub: argparse._SubParsersAction, common: argparse.ArgumentParser
) -> None:
    section4 = sub.add_parser("section4", parents=[common])
    section4.add_argument(
        "--h", default="tutte-coxeter", help="catalog source of the input amalgam"
    )
    section4.add_argument("--depth", type=int, default=3)
    section4.set_defaults(handler=_cmd_construct_section4)


def _instance_leaf(
    sub: argparse._SubParsersAction,
    common: argparse.ArgumentParser,
    name: str,
    handler: Callable[[argparse.Namespace], list[Report]],
) -> argparse.ArgumentParser:
    """A leaf that checks a theorem instance: `--n` and the instance flags."""
    leaf = sub.add_parser(name, parents=[common])
    leaf.add_argument("--n", type=int, required=True)
    leaf.add_argument("--construct", help="catalog H-amalgam for the construction")
    leaf.add_argument("--graph", help="path to a graph file")
    leaf.add_argument("--group", help="path to a group file")
    leaf.add_argument("--edge", help="edge as x,y (graph route only)")
    leaf.set_defaults(handler=handler)
    return leaf


def _verify_leaves(
    sub: argparse._SubParsersAction, common: argparse.ArgumentParser
) -> None:
    _instance_leaf(sub, common, "theorem", _cmd_verify_theorem)


def _trace_leaves(
    sub: argparse._SubParsersAction, common: argparse.ArgumentParser
) -> None:
    _instance_leaf(sub, common, "claims", _cmd_trace_claims)


def _check_leaves(
    sub: argparse._SubParsersAction, common: argparse.ArgumentParser
) -> None:
    haupt = _instance_leaf(sub, common, "hauptlemma", _cmd_check_hauptlemma)
    haupt.add_argument(
        "--k",
        choices=("trivial", "first-edge-kernel", "sylow-product"),
        default="first-edge-kernel",
    )


# Command group -> (help, builder of its leaf parsers), in help order.
_GROUPS = {
    "action": ("pair actions and classification", _action_leaves),
    "lemma": ("pair-stabilizer approximation checks", _lemma_leaves),
    "graph": ("graphs, symmetries and stabilizers", _graph_leaves),
    "amalgam": ("vertex-edge stabilizer amalgams", _amalgam_leaves),
    "construct": ("product amalgam construction", _construct_leaves),
    "verify": ("main theorem instance checks", _verify_leaves),
    "trace": ("proof-trace claim checks", _trace_leaves),
    "check": ("basic lemma consistency checks", _check_leaves),
}


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser for ``argv``.

    argparse hands every argument after a command group's name to that
    group's parser alone, so when ``argv`` starts with a group only its leaf
    parsers are built.  Every group parser is still added, so the top-level
    usage line lists them all; with no group first, every leaf is built.
    """
    parser = argparse.ArgumentParser(
        prog="amalgamlab",
        description="Verifiers for pair actions, graph stabilizers and amalgams.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit one JSON report per line"
    )
    top = parser.add_subparsers(dest="command", required=True)
    only = argv[0] if argv and argv[0] in _GROUPS else None
    for name, (help_text, add_leaves) in _GROUPS.items():
        group = top.add_parser(name, help=help_text)
        if only in (None, name):
            add_leaves(group.add_subparsers(dest="subcommand", required=True), common)
    return parser


def cli_dispatch(argv: list[str] | None = None) -> int:
    """Run one command; returns the exit code without exiting."""
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        reports = args.handler(args)
    except (AmalgamlabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        for i, report in enumerate(reports):
            if args.json:
                print(report.to_json())
            else:
                if i:
                    print()
                print(report.human())
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early (`| head`).  Send what is still buffered to
        # the null device so the interpreter's final flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return max((r.exit_code for r in reports), default=0)


def main(argv: list[str] | None = None) -> int:
    return cli_dispatch(argv)


if __name__ == "__main__":
    sys.exit(main())
