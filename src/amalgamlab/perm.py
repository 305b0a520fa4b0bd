"""Permutations on 0-based points with left-to-right composition.

A permutation is stored as its image tuple: p maps x to p[x].  Products
read left to right, (p * q)(x) = q(p(x)), and every point set is
0..degree-1.  Two permutations are equal exactly when their degrees and
image tuples are equal; there is no implicit extension or restriction.

Two interchangeable text forms are supported:

    cycle notation   "(0 1 2)(3 4)"   identity is "()"
    image list       "1,0,2"          comma-separated images of 0,1,2,...

Group files hold one generating set: a "degree N" header line followed by
one permutation per line, blank lines and "#" comments ignored.
"""
from __future__ import annotations

import re
from collections.abc import Iterable, Sequence

from . import kernels
from .config import guards
from .errors import DegreeMismatchError, FormatError, GuardExceededError

__all__ = [
    "Permutation",
    "parse_permutation",
    "format_group_file",
    "parse_group_file",
]


class Permutation:
    __slots__ = ("_images",)

    def __init__(self, images: Sequence[int]) -> None:
        tup = tuple(images)
        seen = [False] * len(tup)
        for x in tup:
            if not isinstance(x, int) or not 0 <= x < len(tup) or seen[x]:
                raise FormatError(f"not a permutation of 0..{len(tup) - 1}: {tup!r}")
            seen[x] = True
        self._images = tup

    @classmethod
    def _raw(cls, images: tuple) -> "Permutation":
        # Trusted constructor for kernel outputs, skips validation.
        p = object.__new__(cls)
        p._images = images
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls._raw(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        images = list(range(degree))
        for cycle in cycles:
            for x in cycle:
                if not 0 <= x < degree:
                    raise FormatError(f"cycle point {x} out of range for degree {degree}")
            if len(set(cycle)) != len(cycle):
                raise FormatError(f"repeated point in cycle {tuple(cycle)}")
            for i, x in enumerate(cycle):
                if images[x] != x:
                    raise FormatError(f"point {x} appears in two cycles")
                images[x] = cycle[(i + 1) % len(cycle)]
        # The "appears in two cycles" check above only catches reuse as a
        # cycle source; recheck bijectivity to reject overlaps outright.
        return cls(images)

    @property
    def images(self) -> tuple:
        return self._images

    @property
    def degree(self) -> int:
        return len(self._images)

    def __getitem__(self, point: int) -> int:
        return self._images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        if other.degree != self.degree:
            raise DegreeMismatchError(
                f"degree {self.degree} * degree {other.degree}"
            )
        return Permutation._raw(kernels.compose(self._images, other._images))

    def inverse(self) -> "Permutation":
        return Permutation._raw(kernels.inverse(self._images))

    def __pow__(self, n: int) -> "Permutation":
        return Permutation._raw(kernels.power(self._images, n))

    def order(self) -> int:
        return kernels.perm_order(self._images)

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self._images))

    def moved_points(self) -> list[int]:
        return [i for i, x in enumerate(self._images) if i != x]

    def cycles(self) -> list[tuple]:
        """Disjoint cycles, each rotated to start at its least point and
        listed in increasing order of that point."""
        out = []
        seen = [False] * self.degree
        for start in range(self.degree):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            x = self._images[start]
            while x != start:
                cycle.append(x)
                seen[x] = True
                x = self._images[x]
            if len(cycle) > 1:
                out.append(tuple(cycle))
        return out

    def __str__(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cycles)

    def __repr__(self) -> str:
        return f"Permutation({self!s}, degree={self.degree})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self._images == other._images

    def __hash__(self) -> int:
        return hash(self._images)

    def __lt__(self, other: "Permutation") -> bool:
        return self._images < other._images


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_permutation(text: str, degree: int | None = None) -> Permutation:
    """Parse either text form.

    Cycle notation needs an explicit degree whenever trailing points are
    fixed; the image-list form carries its degree.  format/parse round-trip
    exactly once the degree is supplied.
    """
    text = text.strip()
    if not text:
        raise FormatError("empty permutation text")
    if text.startswith("("):
        stripped = _CYCLE_RE.sub("", text).strip()
        if stripped:
            raise FormatError(f"stray text {stripped!r} in cycle notation")
        cycles = []
        maxpoint = -1
        for group in _CYCLE_RE.findall(text):
            parts = [p for p in re.split(r"[,\s]+", group.strip()) if p]
            if not parts:
                continue
            try:
                cycle = [int(p) for p in parts]
            except ValueError as exc:
                raise FormatError(f"bad cycle entry in {group!r}") from exc
            maxpoint = max(maxpoint, max(cycle))
            cycles.append(cycle)
        if degree is None:
            degree = maxpoint + 1
        return Permutation.from_cycles(degree, cycles)
    parts = [p.strip() for p in text.split(",")]
    if any(p == "" for p in parts):
        raise FormatError(f"empty entry in image list {text!r}")
    try:
        images = [int(p) for p in parts]
    except ValueError as exc:
        raise FormatError(f"bad image list {text!r}") from exc
    if degree is not None and len(images) != degree:
        raise FormatError(
            f"image list has {len(images)} entries, expected degree {degree}"
        )
    return Permutation(images)


def format_group_file(degree: int, gens: Sequence[Permutation]) -> str:
    lines = [f"degree {degree}"]
    for g in gens:
        if g.degree != degree:
            raise DegreeMismatchError(f"generator degree {g.degree} in degree-{degree} file")
        lines.append(str(g))
    return "\n".join(lines) + "\n"


def parse_group_file(text: str) -> tuple[int, list[Permutation]]:
    degree = None
    gens: list[Permutation] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if degree is None:
            m = re.fullmatch(r"degree\s+(\d+)", line)
            if not m:
                raise FormatError(f"line {lineno}: expected 'degree N' header")
            degree = int(m.group(1))
            if degree < 1:
                raise FormatError(f"line {lineno}: degree must be at least 1")
            if degree > guards().degree:
                raise GuardExceededError("degree", guards().degree, degree)
            continue
        gens.append(parse_permutation(line, degree=degree))
    if degree is None:
        raise FormatError("missing 'degree N' header")
    return degree, gens
