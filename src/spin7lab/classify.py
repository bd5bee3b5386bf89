"""Classification of nilpotent perturbation directions for the Cayley form.

For each of the 22 nilpotent Jordan types on R^8 this module builds the
canonical representative A, the kernel K = {ω ∈ Λ⁴ : ρ(A)²ω = 0} and a
certificate deciding whether K can meet the GL(8)-orbit of the Cayley
form, on Python ints from A's chain steps to the verdict, with ρ(A)
squared straight into the sparse rows of ρ(A)².  The obstruction is
degeneracy: if some pair of dual vectors (u, v) has (u⌟v⌟ω)³ = 0 for
EVERY ω ∈ K — proved by expanding the cubic's coefficients, not by
sampling — then no orbit element lies in K and the type is excluded.
Exactly the rank-one type (2,1,...,1) and the zero type (1,...,1) survive.
"""

from __future__ import annotations

import random
import time
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, combinations, product
from typing import Iterator

from .exterior.blades import BLADE_POSITION, BLADES, DIM
from .exterior.forms import Vector, _wedged
from .exterior import linalg
from .exterior.endo import Endo, _product, _rho_images, rho
from .exterior.scalars import ZERO, to_numerators
from . import cayley
from .sampling import random_rank_one_nilpotent

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

    @staticmethod
    def of(*parts: int) -> "YoungDiagram":
        return YoungDiagram(tuple(parts))

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
    e^p -> e^(p+1) (1-based), as ``endo._rho_images`` reads it.
    """

    diagram: YoungDiagram
    labels: tuple[str, ...]
    columns: tuple[dict[int, int], ...]

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
    zero power; A^8 ≠ 0 means A is not nilpotent.  The powers are taken on
    the numerator view of A's rows (``scalars.to_numerators``).  Like
    ``linalg.echelon`` it branches on the view, because the ranks use a
    different algorithm on ints (``linalg._integer_rref``) than in the
    field (``linalg.rank``)."""
    _den, rows = to_numerators(a.rows)
    if linalg._on_ints(rows):
        rank = lambda power: len(linalg._integer_rref(power))
    else:
        rank = lambda power: linalg.rank(
            [[row.get(j, ZERO) for j in range(DIM)] for row in power])
    ranks = [DIM]
    power = rows
    while any(power):
        if len(ranks) == DIM:
            raise ValueError("jordan type computed for nilpotent input only")
        ranks.append(rank(power))
        power = _product(power, rows)
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


def kernel_space(diagram: YoungDiagram) -> KernelSpace:
    """K for the representative, on ints: ρ(A) on Λ⁴ comes from its int
    columns; each term c·e^m of image j adds c·c' to row m' of ρ(A)² per
    term c'·e^m' of the image of e^m (zero sums dropped), and integer
    Gauss–Jordan on the rows gives the kernel vectors."""
    rep = representative(diagram)
    images = _rho_images(rep.columns, BLADES[4])
    pos = BLADE_POSITION[4]
    rows: defaultdict[int, dict[int, int]] = defaultdict(dict)
    for j, image in enumerate(images):
        for m, c in image.items():
            for m2, c2 in images[pos[m]].items():
                row = rows[m2]
                x = row.get(j, 0) + c * c2
                if x:
                    row[j] = x
                else:
                    row.pop(j, None)
    return KernelSpace(diagram, tuple(linalg.integer_nullspace(
        list(rows.values()), len(images))), rep)


# -- the cubic certificate ----------------------------------------------------
#
# (u⌟v⌟ Σ xᵢωᵢ)³ is a cubic in x with Λ⁶-valued coefficients.  Since the
# two-forms qᵢ = u⌟v⌟ωᵢ commute, it vanishes identically iff
# qᵢ∧qⱼ∧q_k = 0 for all i ≤ j ≤ k.  That depends only on span(K) and the
# lines of u and v, so int kernel vectors and numerators give the verdict.


def _pair_contractions(u: Vector, v: Vector, vectors) -> list[dict]:
    """The nonzero qᵢ = u⌟v⌟ωᵢ of the kernel vectors as term maps, up to
    the positive factor of ``cayley._pair_contracted``."""
    return [q for q in cayley._pair_contracted(
        u, v, BLADES[4], (vec.items() for vec in vectors))[1] if q]


def cubic_vanishes_on_subspace(u: Vector, v: Vector,
                               kernel: KernelSpace) -> bool:
    """True iff (u⌟v⌟ω)³ = 0 for every ω in K."""
    qs = _pair_contractions(u, v, kernel.vectors)
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


def _candidate_pairs(rep: JordanRepresentative) -> Iterator[tuple[LabeledVector, LabeledVector]]:
    """Deterministic search order: pairs of w-duals, then (w-dual, v-dual)
    pairs, then pairs of v-duals, each dual built when its pair comes up."""
    w = [i for i, lab in enumerate(rep.labels) if lab[0] == "w"]
    v = [i for i, lab in enumerate(rep.labels) if lab[0] == "v"]
    for pair in chain(combinations(w, 2), product(w, v), combinations(v, 2)):
        yield tuple(LabeledVector(Vector.basis(i + 1), rep.labels[i])
                    for i in pair)


def find_certificate(diagram: YoungDiagram) -> Certificate:
    kernel = kernel_space(diagram)
    if kernel.dimension == len(BLADES[4]):
        # ρ(A)² kills every 4-form: every orbit element perturbs, admissible.
        return Certificate(diagram, "admissible", kernel.dimension)
    for u, v in _candidate_pairs(kernel.representative):
        if cubic_vanishes_on_subspace(u.vector, v.vector, kernel):
            return Certificate(diagram, "excluded", kernel.dimension, (u, v))
    return Certificate(diagram, "unresolved", kernel.dimension)


@dataclass(frozen=True)
class ClassificationReport:
    seed: int
    rows: tuple[tuple[Certificate, int], ...]  # (certificate, millis)
    signature_samples: int
    signature_clean: bool  # p1 and p27 of ρ(A)Ω vanished for every sample

    @property
    def admissible(self) -> tuple[YoungDiagram, ...]:
        return tuple(c.diagram for c, _ in self.rows
                     if c.verdict == "admissible")

    def to_record(self, *, zero_timings: bool = False) -> dict:
        return {
            "seed": self.seed,
            "diagrams": [dict(c.to_record(), millis=0 if zero_timings else ms)
                         for c, ms in self.rows],
            "admissible_diagrams": [list(d.parts) for d in self.admissible],
            "rank_one_signature": {"samples": self.signature_samples,
                                   "pure_7_35": self.signature_clean},
        }


def classification_report(seed: int = 0,
                          signature_samples: int = 25) -> ClassificationReport:
    rows = []
    for diagram in enumerate_diagrams():
        started = time.perf_counter()
        cert = find_certificate(diagram)
        millis = int((time.perf_counter() - started) * 1000)
        rows.append((cert, millis))

    rng = random.Random(f"{seed}:classify:signature")
    ps = cayley.projectors()
    omega = cayley.build_omega().omega
    clean = True
    for _ in range(signature_samples):
        a = random_rank_one_nilpotent(rng)
        delta = rho(a, omega)
        if ps.p1(delta) or ps.p27(delta):
            clean = False
            break
    return ClassificationReport(seed=seed, rows=tuple(rows),
                                signature_samples=signature_samples,
                                signature_clean=clean)
