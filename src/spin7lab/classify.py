"""Classification of nilpotent perturbation directions for the Cayley form.

For each of the 22 nilpotent Jordan types on R^8 this module builds the
canonical representative A, the kernel K = {ω ∈ Λ⁴ : ρ(A)²ω = 0} and a
certificate deciding whether K can meet the GL(8)-orbit of the Cayley
form.  A is a shift, so everything runs on int bitmasks from A's chain
steps to the verdict: the rows of ρ(A)² by bit addition on blade masks,
and the candidate pairs as basis duals, contracted on blade masks by
``forms._pair_contracted`` (the kernel of ``cayley.pair_contraction_cube``).
The obstruction is degeneracy: if some pair of dual vectors (u, v) has
(u⌟v⌟ω)³ = 0 for EVERY ω ∈ K — proved by expanding the cubic's
coefficients, not by sampling — then no orbit element lies in K and the
type is excluded.  Exactly the rank-one type (2,1,...,1) and the zero type
(1,...,1) survive.  Tests derive dim K from sl₂ weights too, and check that
each kernel vector lies in one (bits per chain, H-weight) block.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, combinations, product
from typing import Iterator

from .exterior.blades import BLADES, DIM
from .exterior.forms import Vector, _composed, _pair_contracted, _wedged
from .exterior import linalg
from .exterior.endo import Endo

__all__ = ["YoungDiagram", "JordanRepresentative", "KernelSpace",
           "Certificate", "ClassificationReport", "enumerate_diagrams",
           "representative", "jordan_type_of", "kernel_space",
           "cubic_vanishes_on_subspace", "find_certificate",
           "classification_report"]


@dataclass(frozen=True)
class YoungDiagram:
    """A partition of 8 = the Jordan type of a nilpotent endomorphism."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts or sum(self.parts) != DIM:
            raise ValueError(f"parts must sum to {DIM}")
        if any(p <= 0 for p in self.parts):
            raise ValueError("parts must be positive")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError("parts must be weakly decreasing")

    def blocks(self) -> list[tuple[int, int]]:
        """(start position, size) for each Jordan block, positions 1-based."""
        out = []
        pos = 1
        for size in self.parts:
            out.append((pos, size))
            pos += size
        return out

    def __str__(self):
        return "(" + ",".join(map(str, self.parts)) + ")"


def enumerate_diagrams() -> tuple[YoungDiagram, ...]:
    """All 22 partitions of 8 in descending lexicographic order."""

    def gen(n: int, maxpart: int):
        if n == 0:
            yield ()
            return
        for k in range(min(n, maxpart), 0, -1):
            for rest in gen(n - k, k):
                yield (k,) + rest

    return tuple(YoungDiagram(p) for p in gen(DIM, DIM))


@dataclass(frozen=True)
class JordanRepresentative:
    """Canonical nilpotent matrix for a diagram, with labeled Jordan basis.

    The covector starting a block of size >= 2 at position p is labeled
    ``w{p}``; every other basis covector is ``v{p}``.  The matrix sends
    each chain covector to the next one and the chain ends to zero: column
    p - 1 of ``columns`` is {bit of e^(p+1): 1} for each chain step
    e^p -> e^(p+1) (1-based), and bit p - 1 of ``steps`` is set.
    """

    diagram: YoungDiagram
    labels: tuple[str, ...]
    columns: tuple[dict[int, int], ...]

    @property
    def steps(self) -> int:
        """The mask of the generators that A moves one step up."""
        return sum(1 << p for p, column in enumerate(self.columns) if column)

    @property
    def matrix(self) -> Endo:
        return Endo([[column.get(1 << i, 0) for column in self.columns]
                     for i in range(DIM)])


def representative(diagram: YoungDiagram) -> JordanRepresentative:
    labels = [""] * DIM
    columns: list[dict[int, int]] = [{} for _ in range(DIM)]
    for start, size in diagram.blocks():
        labels[start - 1] = (f"w{start}" if size >= 2 else f"v{start}")
        for p in range(start, start + size - 1):
            labels[p] = f"v{p + 1}"
            columns[p - 1] = {1 << p: 1}
    return JordanRepresentative(diagram, tuple(labels), tuple(columns))


def jordan_type_of(a: Endo) -> YoungDiagram:
    """Recover the partition from the ranks of A, A², … up to the first
    zero power; A^8 ≠ 0 means A is not nilpotent.  A's numerator view is
    read as int images by ``linalg._int_rows`` (ValueError on a surd
    entry), so a product such as g·A·g⁻¹ is never divided into
    FieldScalars; the powers are composed on those images
    (``forms._composed``) and each rank is the size of their integer
    Gauss–Jordan basis (``linalg._integer_rref``), the rank of A^k's
    transpose."""
    images = linalg._int_rows((a._denom, a._nums))
    ranks = [DIM]
    power = images
    while any(power):
        if len(ranks) == DIM:
            raise ValueError("jordan type computed for nilpotent input only")
        ranks.append(len(linalg._integer_rref(power)))
        power = _composed(power, images, 1)
    ranks.append(0)
    # at_least[k - 1] = ranks[k - 1] - ranks[k] blocks have size >= k
    at_least = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))] + [0]
    return YoungDiagram(tuple(
        size for size in range(len(at_least) - 1, 0, -1)
        for _ in range(at_least[size - 1] - at_least[size])))


@dataclass(frozen=True)
class KernelSpace:
    """K = {ω ∈ Λ⁴ : ρ(A)²ω = 0} for the diagram's representative A,
    spanned by ``vectors``, primitive int coordinates over ``BLADES[4]``."""

    diagram: YoungDiagram
    vectors: tuple[dict[int, int], ...]
    representative: JordanRepresentative

    @property
    def dimension(self) -> int:
        return len(self.vectors)


def _square_rows(steps: int) -> dict[int, dict[int, int]]:
    """The sparse int rows of ρ(A)² on Λ⁴, keyed by blade mask, for the
    shift A with chain-step mask ``steps``.  Each step sends e^p to
    e^(p+1) and no generator lies between them, so ρ(A)e^m is Σ e^(m+b),
    every coefficient +1, over the bits b of m & steps & ~(m >> 1): the
    steps of m whose target m lacks.  Two such bit loops per blade m, the
    j-th of Λ⁴, add 1 to column j of row m'' per path m -> m' -> m''; no
    sum cancels."""
    rows: defaultdict[int, dict[int, int]] = defaultdict(dict)
    for j, m in enumerate(BLADES[4]):
        t = m & steps & ~(m >> 1)
        while t:
            b = t & -t
            t ^= b
            m1 = m + b
            t1 = m1 & steps & ~(m1 >> 1)
            while t1:
                b1 = t1 & -t1
                t1 ^= b1
                row = rows[m1 + b1]
                row[j] = row.get(j, 0) + 1
    return rows


def kernel_space(diagram: YoungDiagram) -> KernelSpace:
    """K for the representative, on ints: integer Gauss–Jordan on the rows
    of ρ(A)² (``_square_rows``) gives the kernel vectors."""
    rep = representative(diagram)
    return KernelSpace(diagram, tuple(linalg.integer_nullspace(
        list(_square_rows(rep.steps).values()), len(BLADES[4]))), rep)


# -- the cubic certificate ----------------------------------------------------
#
# (e_a⌟e_b⌟ Σ xᵢωᵢ)³ is a cubic in x with Λ⁶-valued coefficients.  Since
# the two-forms qᵢ = e_a⌟e_b⌟ωᵢ commute, it vanishes identically iff
# qᵢ∧qⱼ∧q_k = 0 for all i ≤ j ≤ k, which the int kernel vectors decide.
# The basis duals are kept as vectors only for the certificate records.

_DUALS = tuple(Vector.basis(i + 1) for i in range(DIM))


def cubic_vanishes_on_subspace(a: int, b: int, kernel: KernelSpace) -> bool:
    """True iff (e_a⌟e_b⌟ω)³ = 0 for every ω in K, for the basis duals of
    two distinct 0-based indices a and b: each kernel vector with a blade
    holding both (the others contract to zero), keyed by blade mask, goes
    through ``forms._pair_contracted``; the results are wedged on ints."""
    if a == b or not (0 <= a < DIM and 0 <= b < DIM):
        raise ValueError(f"need two distinct dual indices in 0..{DIM - 1}")
    ab = 1 << a | 1 << b
    holding = {j for j, m in enumerate(BLADES[4]) if m & ab == ab}
    qs = [_pair_contracted(1 << a, 1 << b, {
        BLADES[4][j]: x for j, x in vec.items()})
        for vec in kernel.vectors if not holding.isdisjoint(vec)]
    for i, qi in enumerate(qs):
        for j in range(i, len(qs)):
            rij = _wedged(qi, qs[j])
            if rij and any(_wedged(rij, q) for q in qs[j:]):
                return False
    return True


@dataclass(frozen=True)
class LabeledVector:
    """A certificate vector together with its dual-basis label, if it has one."""

    vector: Vector
    label: str | None = None

    def to_record(self) -> dict:
        """The rational components as ``str(Q)`` prints them."""
        return {"label": self.label,
                "components": [str(c) for c in self.vector.components]}


@dataclass(frozen=True)
class Certificate:
    diagram: YoungDiagram
    verdict: str  # "admissible" | "excluded" | "unresolved"
    dim_kernel: int
    pair: tuple[LabeledVector, LabeledVector] | None = None

    def to_record(self) -> dict:
        rec = {"diagram": list(self.diagram.parts),
               "dim_kernel": self.dim_kernel,
               "verdict": self.verdict,
               "pair": None}
        if self.pair is not None:
            rec["pair"] = {"u": self.pair[0].to_record(),
                           "v": self.pair[1].to_record()}
        return rec


def _candidate_pairs(rep: JordanRepresentative) -> Iterator[tuple[int, int]]:
    """Deterministic search order of the 0-based basis-dual indices: pairs
    of w-duals, then (w-dual, v-dual) pairs, then pairs of v-duals."""
    w = [i for i, lab in enumerate(rep.labels) if lab[0] == "w"]
    v = [i for i, lab in enumerate(rep.labels) if lab[0] == "v"]
    return chain(combinations(w, 2), product(w, v), combinations(v, 2))


def find_certificate(diagram: YoungDiagram) -> Certificate:
    kernel = kernel_space(diagram)
    if kernel.dimension == len(BLADES[4]):
        # ρ(A)² kills every 4-form: every orbit element perturbs, admissible.
        return Certificate(diagram, "admissible", kernel.dimension)
    rep = kernel.representative
    for a, b in _candidate_pairs(rep):
        if cubic_vanishes_on_subspace(a, b, kernel):
            return Certificate(diagram, "excluded", kernel.dimension, (
                LabeledVector(_DUALS[a], rep.labels[a]),
                LabeledVector(_DUALS[b], rep.labels[b])))
    return Certificate(diagram, "unresolved", kernel.dimension)


@dataclass(frozen=True)
class ClassificationReport:
    """The certificate of each of the 22 Jordan types, in the order of
    ``enumerate_diagrams``, with the milliseconds its search took."""

    rows: tuple[tuple[Certificate, int], ...]  # (certificate, millis)

    @property
    def admissible(self) -> tuple[YoungDiagram, ...]:
        return tuple(c.diagram for c, _ in self.rows
                     if c.verdict == "admissible")


def classification_report() -> ClassificationReport:
    """``find_certificate`` for every diagram, timed one by one."""
    rows = []
    for diagram in enumerate_diagrams():
        started = time.perf_counter()
        cert = find_certificate(diagram)
        millis = int((time.perf_counter() - started) * 1000)
        rows.append((cert, millis))
    return ClassificationReport(rows=tuple(rows))
