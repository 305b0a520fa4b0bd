"""Outside-in tracing of amalgamlab: spans at layer boundaries, counters on
hot calls.

The wrappers are installed from the benchmark's files into an already
imported package, by replacing each traced function wherever a loaded
amalgamlab module refers to it.  Calls that run hundreds of thousands of
times (kernels, membership tests, element scans) are counted, never
spanned, because a span on them would change the timing it measures.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref
from collections import Counter

# Span name -> (module, attribute path).  The layer is the part of the
# name before the first dot.
SPANS = {
    **{
        f"group.{name}": ("amalgamlab.group", f"PermGroup.{name}")
        for name in (
            "normalizer",
            "centralizer",
            "normal_closure",
            "pointwise_stabilizer",
            "setwise_stabilizer",
            "coset_action",
        )
    },
    "group.intersection": ("amalgamlab.group", "intersection"),
    "group.commutator_subgroup": ("amalgamlab.group", "commutator_subgroup"),
    **{
        f"structure.{name}": ("amalgamlab.structure", name)
        for name in (
            "sylow",
            "o_p",
            "o_upper_p",
            "omega1_center",
            "thompson_subgroup",
            "frattini_p",
            "conjugacy_classes",
            "normal_subgroups",
            "minimal_normal",
        )
    },
    **{
        f"actions.{name}": ("amalgamlab.actions", name)
        for name in (
            "classify_action",
            "block_systems",
            "action_profile",
            "is_primitive",
            "permutation_isomorphism",
        )
    },
    "pairs.build_ordered_pairs": ("amalgamlab.pairs", "build_ordered_pairs"),
    "pairs.verify_approximation": ("amalgamlab.pairs", "verify_approximation"),
    **{
        f"graphs.{name}": ("amalgamlab.graphs", name)
        for name in (
            "graph_automorphisms",
            "catalog_graph",
            "pair_instance",
            "coset_graph",
            "stabilizer_series",
            "stabilizer_series_pair",
            "local_action",
            "is_locally",
        )
    },
    **{
        f"amalgams.{name}": ("amalgamlab.amalgams", name)
        for name in (
            "amalgam_from_pair",
            "faithful_kernel",
            "core_sequence",
            "inflate_amalgam",
            "verify_inflation",
        )
    },
    **{
        f"verify.{name}": ("amalgamlab.verify", name)
        for name in (
            "verify_theorem",
            "proof_trace",
            "hauptlemma_check",
            "edge_context",
            "regular_base_instance",
        )
    },
}
# Group and graph file parsing share one span name.
PARSERS = (("amalgamlab.perm", "parse_group_file"), ("amalgamlab.graphs", "parse_graph"))

# Counter name -> targets whose calls it counts.
COUNTERS = {
    "kernels.compose.calls": [("amalgamlab.kernels", "compose")],
    "kernels.inverse.calls": [("amalgamlab.kernels", "inverse")],
    "kernels.conjugate.calls": [("amalgamlab.kernels", "conjugate")],
    "kernels.orbit_transversal.calls": [("amalgamlab.kernels", "orbit_transversal")],
    "group.contains.calls": [
        ("amalgamlab.group", "PermGroup.__contains__"),
        ("amalgamlab.group", "PermGroup.contains_images"),
    ],
    "actions.induced_action.calls": [("amalgamlab.actions", "induced_action")],
    "amalgams.GroupIso.builds": [("amalgamlab.amalgams", "GroupIso._build_table")],
}
SCANS = ("PermGroup.elements", "PermGroup.element_images")
AUTOS = "graphs.graph_automorphisms"


class Tracer:
    """Spans and counts of one command process, kept in memory.

    A span is ``[id, name, start, end, parent id, command id]`` with
    ``perf_counter`` times; the parent id is -1 for a root span.
    """

    def __init__(self, command_id: int) -> None:
        self.command_id = command_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._chains: weakref.WeakSet = weakref.WeakSet()

    def span(self, name: str, fn, on_result=None):
        spans, stack, clock, cid = self.spans, self._stack, time.perf_counter, self.command_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [len(spans), name, clock(), 0.0, stack[-1] if stack else -1, cid]
            spans.append(record)
            stack.append(record[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _membership(self, fn):
        # Counts every membership test, and separately those made directly
        # inside the automorphism search, for the generator yield.
        counts, spans, stack = self.counts, self.spans, self._stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts["group.contains.calls"] += 1
            if stack and spans[stack[-1]][1] == AUTOS:
                counts["graphs.autos.membership_tests"] += 1
            return fn(*args, **kwargs)

        return counted

    def _scan(self, fn):
        counts = self.counts

        def count(items):
            for item in items:
                counts["group.element_scan.elements"] += 1
                yield item

        @functools.wraps(fn)
        def scanned(*args, **kwargs):
            # The call itself runs eagerly so that guards still raise here.
            return count(fn(*args, **kwargs))

        return scanned

    def _chain(self, fn):
        counts, chains = self.counts, self._chains

        @functools.wraps(fn)
        def chain(group):
            result = fn(group)
            if result not in chains:
                chains.add(result)
                counts["group.chain.builds"] += 1
            return result

        return chain

    def _autos_result(self, group) -> None:
        self.counts["graphs.autos.generators"] += len(group.generators)

    def install(self) -> None:
        """Wrap every traced function of the imported package."""
        for name, target in SPANS.items():
            hook = self._autos_result if name == AUTOS else None
            _replace(target, lambda fn, name=name, hook=hook: self.span(name, fn, hook))
        for target in PARSERS:
            _replace(target, lambda fn: self.span("perm.parse", fn))
        for name, targets in COUNTERS.items():
            for target in targets:
                if name == "group.contains.calls":
                    _replace(target, self._membership)
                else:
                    _replace(target, lambda fn, name=name: self.counter(name, fn))
        for attr in SCANS:
            _replace(("amalgamlab.group", attr), self._scan)
        _replace(("amalgamlab.group", "PermGroup.chain"), self._chain)


def _replace(target: tuple[str, str], wrap) -> None:
    module_name, path = target
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    original = getattr(owner, attr)
    wrapped = wrap(original)
    if outer:
        setattr(owner, attr, wrapped)
        return
    # A module-level function: rebind it in every package module that
    # imported it, except the kernel implementations, whose internal calls
    # are not calls through the kernel interface.
    for name, module in list(sys.modules.items()):
        if not name.startswith("amalgamlab") or name.startswith("amalgamlab._"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans.

    Spans are ``[id, name, start, end, parent id, ...]``; ids are unique
    within the list.  Overlapping children are merged, and children are
    clipped to their parent's interval.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span[4], []).append((span[2], span[3]))
    result = {}
    for span in spans:
        start, end = span[2], span[3]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span[0], ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result[span[0]] = (end - start) - covered
    return result
