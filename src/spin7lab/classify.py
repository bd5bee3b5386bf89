"""Classification of nilpotent perturbation directions for the Cayley form.

For each of the 22 nilpotent Jordan types on R^8 this module builds the
canonical representative A, the kernel K = {ω ∈ Λ⁴ : ρ(A)²ω = 0} and a
certificate deciding whether K can meet the GL(8)-orbit of the Cayley
form.  The obstruction is degeneracy: if some pair of dual vectors (u, v)
has (u⌟v⌟ω)³ = 0 for EVERY ω ∈ K — proved by expanding the cubic's
coefficients, not by sampling — then no orbit element lies in K and the
type is excluded.  Exactly the rank-one type (2,1,...,1) and the zero type
(1,...,1) survive.

A is a shift, so all of it runs on int bitmasks and constant tables of
Λ⁴.  A step moves one generator up one position, so ρ(A)² adds 2 to a
blade's weight (the sum of its 0-based generator positions): ρ(A)² is
block-diagonal over the 17 weight classes of Λ⁴.  So, though K is
eliminated in one pass, each ω of its basis, so each q = e_a⌟e_b⌟ω, has
one weight.  A product of three q is a multiple of the blade of Λ⁶ without
e^a and e^b, of weight 28 − a − b, so only triples whose weights sum to
that are wedged.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from collections import defaultdict
from itertools import accumulate, chain, combinations, product
from typing import Iterator

from ._record import Record
from .exterior.blades import BLADE_POSITION, BLADES, DIM
from .exterior.forms import (KForm, _composed, _contractions, _wedged,
                             basis_blades)
from .exterior import linalg
from .exterior.endo import Endo

__all__ = ["YoungDiagram", "JordanRepresentative", "KernelSpace",
           "Certificate", "ClassificationReport", "enumerate_diagrams",
           "representative", "jordan_type_of", "kernel_space",
           "cubic_vanishes_on_subspace", "find_certificate",
           "classification_report"]


class YoungDiagram(Record):
    """A partition of 8 = the Jordan type of a nilpotent endomorphism."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = self.__dict__["parts"] = tuple(self.parts)
        if set(map(type, parts)) != {int} or min(parts) < 1:
            raise ValueError("parts must be positive ints")
        if sum(parts) != DIM or sorted(parts, reverse=True) != list(parts):
            raise ValueError(f"parts must sum to {DIM}, weakly decreasing")

    def blocks(self) -> list[tuple[int, int]]:
        """(start position, size) for each Jordan block, positions 1-based."""
        return list(zip(accumulate(self.parts[:-1], initial=1), self.parts))

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


class JordanRepresentative(Record):
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
    __hash__ = None  # equal by value, but it holds dicts

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
    zero power; A^8 ≠ 0 means A is not nilpotent.  A's int numerator
    images are read as they are, so a product such as g·A·g⁻¹ is never
    divided into FieldScalars; the powers are composed on those images
    (``forms._composed``) and each rank is the size of their integer
    Gauss–Jordan basis (``linalg._integer_rref``), the rank of A^k's
    transpose."""
    ranks = [DIM]
    power = images = a._nums
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


class KernelSpace(Record):
    """K = {ω ∈ Λ⁴ : ρ(A)²ω = 0} for the diagram's representative A,
    spanned by ``vectors``, primitive int coordinates over ``BLADES[4]``."""

    diagram: YoungDiagram
    vectors: tuple[dict[int, int], ...]
    representative: JordanRepresentative
    __hash__ = None  # equal by value, but it holds dicts

    @property
    def dimension(self) -> int:
        return len(self.vectors)


# The weight of each blade mask of Λ⁴; and _PATHS[p][q], the
# (j, m + 2^p + 2^q) of the blades m, the j-th of Λ⁴, that step p
# (e^(p+1) -> e^(p+2), 1-based) and then step q move.
_WEIGHT = {m: sum(i for i in range(DIM) if m >> i & 1) for m in BLADES[4]}
_PATHS = tuple(tuple(
    tuple((j, m + (1 << p) + (1 << q)) for j, m in enumerate(BLADES[4])
          if m >> p & 3 == 1 and (m + (1 << p)) >> q & 3 == 1)
    for q in range(DIM - 1)) for p in range(DIM - 1))


def _square_rows(steps: int) -> dict[int, dict[int, int]]:
    """The sparse int rows of ρ(A)² on Λ⁴, keyed by blade mask, for the
    shift A with chain-step mask ``steps``: each path m -> m'' of two
    steps in the mask (``_PATHS``), m the j-th blade, adds 1 to column j
    of row m''.  No sum cancels."""
    rows: defaultdict[int, dict[int, int]] = defaultdict(dict)
    steps_on = [q for q in range(DIM - 1) if steps >> q & 1]
    for p in steps_on:
        for q in steps_on:
            for j, target in _PATHS[p][q]:
                row = rows[target]
                row[j] = row.get(j, 0) + 1
    return rows


def kernel_space(diagram: YoungDiagram) -> KernelSpace:
    """K for the representative, on ints: the rows of ρ(A)² go to
    ``linalg.integer_nullspace``."""
    rep = representative(diagram)
    return KernelSpace(diagram, tuple(linalg.integer_nullspace(
        list(_square_rows(rep.steps).values()), len(BLADES[4]))), rep)


# -- the cubic certificate ----------------------------------------------------
#
# (e_a⌟e_b⌟ Σ xᵢωᵢ)³ is a cubic in x with Λ⁶-valued coefficients.  Since
# the two-forms qᵢ = e_a⌟e_b⌟ωᵢ commute, it vanishes identically iff
# qᵢ∧qⱼ∧q_k = 0 for all i ≤ j ≤ k, which the int kernel vectors decide.
# The basis duals are kept as vectors only for the certificate records.

_DUALS = tuple(basis_blades(1))

# e_a⌟e_b⌟ on Λ⁴ per ordered pair (a, b) of distinct indices: blade index
# -> (image mask, sign), for the blades holding both generators, from one
# ``forms._contractions`` walk of the unit blades and one of each e_b⌟ of
# them; its 840 entries share the 56 tuples of _IMAGES.
_IMAGES = {(m, sign): (m, sign) for m in BLADES[2] for sign in (1, -1)}
_CONTRACTIONS = {(a, b): {
    BLADE_POSITION[4][m | 1 << a | 1 << b]: _IMAGES[m, sign]
    for m, sign in by_ab.items()}
    for b, by_b in enumerate(_contractions(dict.fromkeys(BLADES[4], 1), DIM))
    for a, by_ab in enumerate(_contractions(by_b, DIM)) if a != b}


def cubic_vanishes_on_subspace(a: int, b: int, kernel: KernelSpace) -> bool:
    """True iff (e_a⌟e_b⌟ω)³ = 0 for every ω in K, for the basis duals of
    two distinct 0-based indices a and b: the kernel vectors, each of one
    weight, are contracted through ``_CONTRACTIONS``, and the triples of
    weights summing to 28 − a − b are wedged on ints."""
    if a == b or not (0 <= a < DIM and 0 <= b < DIM):
        raise ValueError(f"need two distinct dual indices in 0..{DIM - 1}")
    table, top = _CONTRACTIONS[a, b], sum(range(DIM)) - a - b
    qs = sorted(((_WEIGHT[BLADES[4][next(iter(vec))]] - a - b, {
        table[j][0]: table[j][1] * x for j, x in vec.items() if j in table})
        for vec in kernel.vectors if not table.keys().isdisjoint(vec)),
        key=lambda wq: wq[0])
    weights = [w for w, _ in qs]
    for i, (wi, qi) in enumerate(qs):
        for j, (wj, qj) in enumerate(qs[i:], i):
            if (wk := top - wi - wj) < wj:
                break
            lo, hi = bisect_left(weights, wk, j), bisect_right(weights, wk, j)
            if lo < hi and (rij := _wedged(qi, qj)) and any(
                    _wedged(rij, q) for _, q in qs[lo:hi]):
                return False
    return True


class LabeledVector(Record):
    """A certificate vector, a 1-form, and its dual-basis label, if any."""

    vector: KForm
    label: str | None = None

    def to_record(self) -> dict:
        """The rational components as ``str(Q)`` prints them."""
        return {"label": self.label,
                "components": [str(c) for c in self.vector.components()]}


class Certificate(Record):
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


class ClassificationReport(Record):
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
