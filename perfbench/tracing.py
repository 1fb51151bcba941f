"""Spans around qfoundry's public entry points, recorded from outside the package.

`Tracer.installed` rebinds the module attributes that callers look up (for
example `ks.orthogonal`, which `build_orth_structure` resolves at call time)
to wrappers that record one span per call, and puts every original back
when the block ends, so untraced passes run unwrapped code.  Spans stay in
memory, one list per pass; `layer_metrics` turns one pass's spans into the
per-layer metrics that BENCHMARK.json lists.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional


@dataclass
class Span:
    """One call of a wrapped entry point; `parent` indexes the same pass's list."""

    name: str
    start: float
    end: float
    parent: Optional[int]
    pass_id: int
    attrs: dict = field(default_factory=dict)

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.pass_id, self.attrs]


# (owner, attribute, span name, note) where note(args, result) -> span attrs
Hook = tuple[object, str, str, Optional[Callable[[tuple, object], dict]]]


class Tracer:
    def __init__(self) -> None:
        self.passes: list[list[Span]] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def begin_pass(self) -> None:
        self.passes.append([])
        self._stack.clear()

    def _wrapper(self, original: Callable, name: str, note) -> Callable:
        stack = self._stack

        def traced(*args, **kwargs):
            spans = self.passes[-1]
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, len(self.passes) - 1)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if note is not None:
                span.attrs = note(args, result)
            return result

        return traced

    @contextmanager
    def installed(self, hooks: list[Hook]) -> Iterator["Tracer"]:
        """Rebind every hooked attribute for the duration of the block.

        An attribute the package no longer has is skipped and listed in
        `missing`; its metrics then read 0.
        """
        saved: list[tuple[object, str, object]] = []
        try:
            for owner, attr, name, note in hooks:
                if not hasattr(owner, attr):
                    self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                    continue
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrapper(original, name, note))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children[index]):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((span.end - span.start) - covered)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Names whose per-pass values must repeat exactly between traced passes.
EXACT_COUNTS = (
    "exact.orthogonal.calls",
    "ks.search.nodes",
    "ks.colorings_counted",
    "logic.implication.calls",
    "mkc.totally_incompatible.calls",
    "quantum.collapse.calls",
)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass, keyed by their BENCHMARK.json names."""
    calls: Counter = Counter(span.name for span in spans)
    own: dict[str, float] = defaultdict(float)
    for span, seconds in zip(spans, self_times(spans)):
        own[span.name] += seconds

    def named(name: str) -> list[Span]:
        return [span for span in spans if span.name == name]

    def total(name: str, key: str) -> float:
        return sum(span.attrs.get(key, 0) for span in named(name))

    orth_hits = sum(1 for span in named("exact.orthogonal") if span.attrs.get("result"))
    rays = total("meyer.verify_meyer_conditions", "rays")
    pairs_scanned = sum(
        span.attrs["rays"] * (span.attrs["rays"] - 1) // 2
        for span in named("meyer.verify_meyer_conditions")
    )
    implications = named("logic.implication")
    distinct = {(span.parent, span.attrs["key"]) for span in implications}
    accepted = total("mkc.generate_basis_family", "accepted")
    rejected = sum(
        1 for span in named("mkc.totally_incompatible") if span.attrs.get("result") is False
    )
    shots = total("mkc.simulate_sequence", "shots")
    simulate_s = sum(span.end - span.start for span in named("mkc.simulate_sequence"))

    return {
        "exact.orthogonal.calls": calls["exact.orthogonal"],
        "exact.orthogonal.self_s": own["exact.orthogonal"],
        "exact.orthogonal.hit_ratio": _ratio(orth_hits, calls["exact.orthogonal"]),
        "exact.cross_product.calls": calls["exact.cross_product"],
        "exact.cross_product.self_s": own["exact.cross_product"],
        "datasets.load_builtin.calls": calls["datasets.load_builtin"],
        "datasets.load_builtin.self_s": own["datasets.load_builtin"],
        "ks.build_orth_structure.self_s": own["ks.build_orth_structure"],
        "ks.bases_found": total("ks.build_orth_structure", "bases"),
        "ks.search_coloring.self_s": own["ks.search_coloring"],
        "ks.search.nodes": total("ks.search_coloring", "nodes"),
        "ks.count_colorings.self_s": own["ks.count_colorings"],
        "ks.colorings_counted": total("ks.count_colorings", "count"),
        "ks.complete_pairs_to_triads.self_s": own["ks.complete_pairs_to_triads"],
        "meyer.enumerate_pyth_points.self_s": own["meyer.enumerate_pyth_points"],
        "meyer.verify_meyer_conditions.self_s": own["meyer.verify_meyer_conditions"],
        "meyer.rays": rays,
        "meyer.pairs_scanned": pairs_scanned,
        "meyer.orth_ratio": _ratio(total("meyer.verify_meyer_conditions", "pairs"), pairs_scanned),
        "logic.poset_from_bases.self_s": own["logic.poset_from_bases"],
        "logic.enumerate_elements.self_s": own["logic.enumerate_elements"],
        "logic.enumerate.accept_ratio": _ratio(
            total("logic.enumerate_elements", "accepted"),
            total("logic.enumerate_elements", "candidates"),
        ),
        "logic.sample_elements.self_s": own["logic.sample_elements"],
        "logic.check_heyting_laws.self_s": own["logic.check_heyting_laws"],
        "logic.triples": total("logic.check_heyting_laws", "triples"),
        "logic.implication.calls": len(implications),
        "logic.implication.self_s": own["logic.implication"],
        "logic.implication.distinct_ratio": _ratio(len(distinct), len(implications)),
        "mkc.generate_basis_family.self_s": own["mkc.generate_basis_family"],
        "mkc.totally_incompatible.calls": calls["mkc.totally_incompatible"],
        "mkc.totally_incompatible.self_s": own["mkc.totally_incompatible"],
        "mkc.family.accept_ratio": _ratio(accepted, accepted + rejected),
        "mkc.simulate_sequence.self_s": own["mkc.simulate_sequence"],
        "mkc.shots_per_s": _ratio(shots, simulate_s),
        "mkc.nearest_family_observable.self_s": own["mkc.nearest_family_observable"],
        "mkc.sample_choices.self_s": own["mkc.sample_choices"],
        "quantum.collapse.calls": calls["quantum.collapse"],
        "quantum.collapse.self_s": own["quantum.collapse"],
        "quantum.reconstruct_state.self_s": own["quantum.reconstruct_state"],
        "quantum.ks_single_generator.self_s": own["quantum.ks_single_generator"],
        "bell.chsh_grid_max.self_s": own["bell.chsh_grid_max"],
        "bell.chsh_grid.points": total("bell.chsh_grid_max", "points"),
        "bell.lhv_chsh_monte_carlo.self_s": own["bell.lhv_chsh_monte_carlo"],
        "bell.exhaustive_deterministic_chsh_max.self_s": own["bell.exhaustive_deterministic_chsh_max"],
        "bell.fwt_direction_counts.self_s": own["bell.fwt_direction_counts"],
        "bell.imprecise_sum_grid_sup.self_s": own["bell.imprecise_sum_grid_sup"],
        "cli.main.self_s": own["cli.main"],
        "cli.checks": total("cli.checks", "checks"),
    }
