"""Reference helpers that only the tests use, kept out of the package."""

import sys
from math import factorial, gcd

from spin7lab.cayley import build_omega, so8_basis
from spin7lab.exterior import linalg
from spin7lab.exterior.blades import (BLADE_POSITION, BLADES, DIM, FULL_MASK,
                                     complement_sign, wedge_sign)
from spin7lab.exterior.endo import Endo, rho
from spin7lab.exterior.forms import (FormOperator, KForm, _combine, contract,
                                     inner, wedge)
from spin7lab.exterior.scalars import ONE, ZERO, FieldScalar, Q, to_numerators
from spin7lab.invariant.bryant_salamon import (build_bryant_salamon,
                                               build_metric,
                                               metric_lie_derivative,
                                               proposition_display)
from spin7lab.invariant import chamber
from spin7lab.invariant.chamber import ChamberForm, ChamberScalar
from spin7lab.invariant.liealg import (N_GENERATORS, LieFrame, QuatMat2,
                                       _ZERO_Q, _basis_matrices,
                                       build_lie_frame)
from spin7lab.sampling import random_unimodular


def trace(a):
    return sum((a.rows[i][i] for i in range(DIM)), ZERO)


# -- interior-product signs, one blade and one generator at a time ------------

def contract_sign(slot, mask):
    """Sign picked up when e_slot (0-based) is pulled out of the front of
    mask: 0 if the slot is absent, else (-1)**(number of earlier slots)."""
    bit = 1 << slot
    if not (mask & bit):
        return 0
    return -1 if (mask & (bit - 1)).bit_count() & 1 else 1


def pair_contracted(a, b, terms):
    """e_a⌟e_b⌟ of a term map for 0-based generators a ≠ b: e_b comes out
    first, then e_a, each by ``contract_sign``."""
    out = {}
    for m, c in terms.items():
        sign = contract_sign(b, m) * contract_sign(a, m & ~(1 << b))
        if sign:
            out[m ^ (1 << a) ^ (1 << b)] = c if sign == 1 else -c
    return out


def flatten(a):
    return [x for row in a.rows for x in row]


def is_skew(a):
    return all(a.rows[i][j] == -a.rows[j][i]
               for i in range(DIM) for j in range(i, DIM))


def apply(a, alpha):
    """The image of a 1-form under an Endo, row by row."""
    comps = alpha.components()
    return KForm.vector(sum((row[j] * comps[j] for j in range(DIM)), ZERO)
                        for row in a.rows)


def diagonal(*entries):
    if len(entries) != DIM:
        raise ValueError(f"need {DIM} diagonal entries")
    return Endo([[entries[i] if i == j else 0 for j in range(DIM)]
                 for i in range(DIM)])


def is_nilpotent(a):
    p = a
    for _ in range(3):  # A^8 via three squarings
        if not p:
            return True
        p = p @ p
    return not p


def commutator(a, b):
    return a @ b - b @ a


def random_nilpotent(rng, max_rank=3):
    """A nilpotent matrix of rank <= max_rank, conjugated off Jordan form."""
    starts = []
    pos = 1
    rank = 0
    while pos <= DIM and rank < max_rank:
        size = rng.randint(1, min(DIM - pos + 1, max_rank - rank + 1))
        if size >= 2:
            starts.append((pos, size))
            rank += size - 1
        pos += size
    steps = {(start + k + 1, start + k)
             for start, size in starts for k in range(size - 1)}
    n = Endo([[int((i, j) in steps) for j in range(1, DIM + 1)]
              for i in range(1, DIM + 1)])
    g, g_inv = random_unimodular(rng)
    return g @ n @ g_inv


def old_jordan_type(a):
    """The partition of a nilpotent Endo from the ranks of its Endo powers
    A, A², …, each ranked by ``field_rref`` on its FieldScalar rows."""
    ranks = [DIM]
    power = a
    while power:
        if len(ranks) == DIM:
            raise ValueError("not nilpotent")
        ranks.append(len(field_rref(power.rows)[1]))
        power = power @ a
    ranks.append(0)
    at_least = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))] + [0]
    return tuple(size for size in range(len(at_least) - 1, 0, -1)
                 for _ in range(at_least[size - 1] - at_least[size]))


def solve(rows, rhs):
    """The unique solution of A x = b; raises if none exists or it is not
    unique."""
    if not rows:
        raise ValueError("linear system has no unique solution")
    ncols = len(rows[0])
    red, pivots = linalg.echelon([list(r) + [b] for r, b in zip(rows, rhs)])
    if ncols in pivots:
        raise ValueError("linear system is inconsistent")
    if len(pivots) != ncols:
        raise ValueError("linear system has no unique solution")
    x = [ZERO] * ncols
    for row, c in zip(red, pivots):
        x[c] = row[ncols]
    return x


def field_rref(rows):
    """Gauss–Jordan in the field, one inversion per pivot: the nonzero rows
    of the RREF and the pivots, as ``linalg.echelon`` returns them on ints."""
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = m[r][c].inverse()
        pivot_row = m[r] = [x * inv for x in m[r]]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                m[i] = [a - f * b for a, b in zip(row, pivot_row)]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def gram_p7():
    """The projector onto Λ⁴₇ = ρ(so(8))Ω by elimination in the field: the
    images ρ(A)Ω of ``so8_basis()`` at the pivots of ``field_rref`` span
    Λ⁴₇, and each blade goes to its orthogonal projection onto that span,
    by the Gram normal equations with the inverse Gram matrix read off
    ``field_rref`` of [G | I]."""
    omega = build_omega().omega
    images = [rho(a, omega) for a in so8_basis()]
    span = [images[j] for j in field_rref(coefficient_matrix(images))[1]]
    n = len(span)
    reduced, pivots = field_rref(
        [[inner(a, b) for b in span] + [ONE if i == j else ZERO
                                        for j in range(n)]
         for i, a in enumerate(span)])
    assert pivots == list(range(n)), "the Gram matrix is invertible"
    gram_inv = [row[n:] for row in reduced]
    out = []
    for m in BLADES[4]:
        rhs = [inner(g, KForm(4, {m: ONE})) for g in span]
        coords = [sum((x * y for x, y in zip(row, rhs)), ZERO)
                  for row in gram_inv]
        out.append(_combine((dict(g.mask_items()), c)
                            for g, c in zip(span, coords) if c))
    return FormOperator(4, out)


def field_nullspace(rows, ncols):
    """The kernel basis from ``field_rref``: one vector per free column f,
    in order, with 1 in f and minus the RREF entries of column f in the
    pivot columns, as ``linalg.nullspace`` returns it on ints."""
    reduced, pivots = field_rref(rows)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [ZERO] * ncols
        v[f] = ONE
        for row, c in zip(reduced, pivots):
            if row[f]:
                v[c] = -row[f]
        basis.append(v)
    return basis


def verify_pullback_proposition():
    return build_bryant_salamon().phi == proposition_display()


def verify_killing(frame):
    """L_{A_i} g = 0 for i = 4, 5, 6 on the Bryant-Salamon metric."""
    metric = build_metric()
    return all(not metric_lie_derivative(i, metric, frame) for i in (4, 5, 6))


def blade_pullback(a, images):
    """Λ^k of the map sending generator i to images[i], with every blade's
    wedge of images built from scratch and summed into a running total."""
    if a.degree == 0:
        return a
    out = type(a).zero(a.degree)
    for m, coeff in a.mask_items():
        low = m & -m
        piece = images[low.bit_length() - 1]
        t = m ^ low
        while t and piece:
            low = t & -t
            t ^= low
            piece = wedge(piece, images[low.bit_length() - 1])
        out = out + piece * coeff
    return out


def conj_sqrt2(x):
    """The automorphism sqrt2 -> -sqrt2 (also flips sqrt6)."""
    a, b, c, d = x.quadruple()
    return FieldScalar(a, -b, c, -d)


def conj_sqrt3(x):
    """The automorphism sqrt3 -> -sqrt3 (also flips sqrt6)."""
    a, b, c, d = x.quadruple()
    return FieldScalar(a, b, -c, -d)


def is_anti_hermitian(m):
    """m + m* = 0 for a 2x2 quaternion matrix."""
    a, b, c, d = (m.a + m.a.conjugate(), m.b + m.c.conjugate(),
                  m.c + m.b.conjugate(), m.d + m.d.conjugate())
    return not (a or b or c or d)


def old_frame_from_scales(a_scale, x_scale):
    """The sp(2) frame as it was built on FieldScalar quaternions, and its
    ten scaled matrices: every bracket of the basis ``_basis_matrices()``
    scaled by a_scale (A1..A6) and x_scale (X1..X4) decomposed with the
    inverse scales and rebuilt from all ten scaled matrices as the
    exactness guard.  Returns (matrices, frame)."""
    mats = tuple(s * m for s, m in zip((a_scale,) * 6 + (x_scale,) * 4,
                                       _basis_matrices()))
    a_inv, x_inv = a_scale.inverse(), x_scale.inverse()
    structure = []
    for mi in mats:
        row = []
        for mj in mats:
            br = mi.bracket(mj)
            if br.a.w or br.d.w:
                raise ValueError("diagonal entries must be imaginary")
            coords = (a_inv * br.a.x, a_inv * br.a.y, a_inv * br.a.z,
                      a_inv * br.d.x, a_inv * br.d.y, a_inv * br.d.z,
                      x_inv * br.b.x, x_inv * br.b.y, x_inv * br.b.z,
                      x_inv * br.b.w)
            rebuilt = QuatMat2(_ZERO_Q, _ZERO_Q, _ZERO_Q, _ZERO_Q)
            for c, m in zip(coords, mats):
                rebuilt = rebuilt + c * m
            if rebuilt != br:
                raise ArithmeticError("bracket does not close in the basis")
            row.append(coords)
        structure.append(tuple(row))
    return mats, LieFrame(structure=tuple(structure))


def mutated_frame(entries):
    """The real frame with some structure constants c^k_ij replaced, given
    as {(i, j, k): value}."""
    base = build_lie_frame()
    mutated = [[list(row) for row in plane] for plane in base.structure]
    for (i, j, k), value in entries.items():
        mutated[i][j][k] = FieldScalar.of(value)
    return base.with_structure(tuple(tuple(tuple(r) for r in p)
                                     for p in mutated))


# -- the derivation action, its kernels and the cubic, as they were ------------

def old_rho(a, form):
    """Replace each slot of each blade by its image, one term at a time."""
    acc = {}
    for m, coeff in form.mask_items():
        t = m
        while t:
            low = t & -t
            t ^= low
            p = low.bit_length() - 1
            sub = m ^ low
            s_out = contract_sign(p, m)
            for i, row in enumerate(a.rows):
                bit, entry = 1 << i, row[p]
                if not entry or sub & bit:
                    continue
                term = coeff * entry
                if s_out * wedge_sign(bit, sub) == -1:
                    term = -term
                key = sub | bit
                acc[key] = acc[key] + term if key in acc else term
    return KForm(form.degree, acc)


def _rho_image(columns, m):
    """ρ(A)e^m from A's nonzero column entries, visiting every slot of m."""
    acc = {}
    t = m
    while t:
        low = t & -t
        t ^= low
        p = low.bit_length() - 1
        sub = m ^ low
        s_out = contract_sign(p, m)
        for bit, entry in columns[p]:
            if sub & bit:
                continue
            term = entry if s_out * wedge_sign(bit, sub) == 1 else -entry
            prev = acc.get(sub | bit)
            acc[sub | bit] = term if prev is None else prev + term
    return acc


def old_rho_operator(a, degree):
    """ρ(A) on Λ^degree built blade by blade, slot by slot, on FieldScalars."""
    columns = [[(1 << i, row[p]) for i, row in enumerate(a.rows) if row[p]]
               for p in range(DIM)]
    return FormOperator(degree, [
        {key: c for key, c in _rho_image(columns, m).items() if c}
        for m in BLADES[degree]])


def rho_images(columns, masks):
    """ρ(A)e^m for each blade m of ``masks``, from the nonzero entries a_ip
    of A (``field_columns``): a blade with e^p, and without e^i unless
    i = p, sends a_ip to m ^ p | i, negated if m has an odd number of
    generators strictly between i and p.  Every entry is tried against
    every blade.  Diagonal entries may sum to zero coefficients."""
    images = [{} for _ in masks]
    for p, column in enumerate(columns):
        bit_p = 1 << p
        for bit_i, entry in column.items():
            both, negated = bit_p | bit_i, -entry
            between = (abs(bit_i - bit_p) - min(bit_i, bit_p)
                       if bit_i != bit_p else 0)
            for image, m in zip(images, masks):
                if (m & both) == bit_p:
                    key = m ^ bit_p | bit_i
                    image[key] = image.get(key, 0) + (
                        negated if (m & between).bit_count() & 1 else entry)
    return images


def field_columns(a):
    """Column p of A as a {bit of e^i: FieldScalar} dict of its nonzero
    entries: image p of the Endo."""
    return list(a.images)


def images_rho(a, form):
    """ρ(A) of a form as the sum of the images ``rho_images`` of its blades,
    each times its coefficient, on FieldScalars."""
    terms = dict(form.mask_items())
    return KForm(form.degree, _combine(zip(
        rho_images(field_columns(a), list(terms)), terms.values())))


def rho_operator(a, degree):
    """ρ(A) on Λ^degree as a FormOperator of FieldScalar images, built once
    from the nonzero entries of A (``rho_images``)."""
    return FormOperator(degree, [
        {key: c for key, c in image.items() if c}
        for image in rho_images(field_columns(a), BLADES[degree])])


def operator_square_rows(a):
    """ρ(A)² on Λ⁴ of an integer A as ρ(A) @ ρ(A) of FormOperators, read
    as ints and transposed into sparse int rows keyed by blade mask."""
    square = rho_operator(a, 4) @ rho_operator(a, 4)
    den, images = to_numerators(square.images)
    assert den == 1, "an integer A has an integer square"
    rows = {}
    for j, image in enumerate(images):
        for m, c in image.items():
            rows.setdefault(m, {})[j] = c
    return rows


def operator_kernel(op):
    """The canonical kernel basis of a FormOperator, one sparse vector per
    free column with 1 there: the primitive int vectors that
    ``linalg.integer_nullspace`` builds on the operator's int rows, each
    over its entry in its free (last) column, as {coordinate: Q}."""
    return [{j: Q(x, vec[max(vec)]) for j, x in vec.items()}
            for vec in linalg.integer_nullspace(op._rows(), len(op._nums))]


def operator_kernel_vectors(a):
    """ker ρ(A)² on Λ⁴ of an integer A as primitive int vectors, the way
    the classifier took it before it built the rows of ρ(A)² directly:
    the rows of ``operator_square_rows``, each made primitive, then
    ``linalg.integer_nullspace``."""
    primitive = []
    for row in operator_square_rows(a).values():
        g = gcd(*row.values())
        primitive.append({j: x // g for j, x in row.items()})
    return linalg.integer_nullspace(primitive, len(BLADES[4]))


# -- FormOperator and exp_nilpotent on FieldScalars ----------------------------
# apply, @, + and - summed FieldScalar images straight through
# forms._combine, and exp_nilpotent summed Endo powers, as the
# package did before both read their inputs through the numerator view.

def old_operator_apply(op, form):
    pos = BLADE_POSITION[op.degree]
    return KForm(op.degree, _combine((op.images[pos[m]], c)
                                     for m, c in form.mask_items()))


def old_operator_product(p, q):
    pos = BLADE_POSITION[p.degree]
    return FormOperator(p.degree, [
        _combine((p.images[pos[m]], c) for m, c in img.items())
        for img in q.images])


def old_operator_sum(p, q, sign=1):
    """p + sign·q."""
    return FormOperator(p.degree, [_combine(((a, 1), (b, sign)))
                                   for a, b in zip(p.images, q.images)])


def old_exp_nilpotent(a):
    """Σ A^k/k! by Endo products, scalar multiples and sums."""
    acc = Endo.identity()
    power = a
    for k in range(1, DIM):
        if not power:
            return acc
        acc = acc + FieldScalar.from_ratio(1, factorial(k)) * power
        power = power @ a
    if power:
        raise ValueError("exp_nilpotent requires nilpotent input")
    return acc


def old_pair_contraction_cube(u, v, a):
    """(u⌟v⌟a)³ by FieldScalar contraction and wedge."""
    q = contract(u, contract(v, a))
    return wedge(q, wedge(q, q))


def coefficient_matrix(images):
    """Dense matrix of forms: one row per occurring blade, one column per form."""
    masks = sorted({m for f in images for m, _ in f.mask_items()})
    row_of = {m: i for i, m in enumerate(masks)}
    matrix = [[ZERO] * len(images) for _ in masks]
    for j, f in enumerate(images):
        for m, c in f.mask_items():
            matrix[row_of[m]][j] = c
    return matrix


def nullspace_on_forms(op, degree):
    """Canonical kernel basis of a map on Λ^degree, by dense elimination
    in the field (``field_nullspace``)."""
    domain = BLADES[degree]
    images = [op(KForm(degree, {m: ONE})) for m in domain]
    kernel = field_nullspace(coefficient_matrix(images), len(domain))
    return [KForm(degree, dict(zip(domain, vec))) for vec in kernel]


def kernel_basis(space):
    """The canonical basis of ``linalg.nullspace`` for a ``KernelSpace``:
    each int vector over its entry in its free (last) column, as a KForm."""
    return [KForm(4, {BLADES[4][j]: FieldScalar.from_ratio(x, vec[max(vec)])
                      for j, x in vec.items()}) for vec in space.vectors]


def old_kernel_basis(a):
    """The canonical basis of {ω ∈ Λ⁴ : ρ(A)²ω = 0} as FieldScalar KForms."""
    return nullspace_on_forms(lambda b: old_rho(a, old_rho(a, b)), 4)


def old_cubic_vanishes(u, v, basis):
    """(u⌟v⌟ω)³ = 0 on the span of ``basis``, by FieldScalar contraction
    and wedge of every qᵢ = u⌟v⌟ωᵢ."""
    qs = [q for q in (contract(u, contract(v, omega)) for omega in basis) if q]
    for i, qi in enumerate(qs):
        for j in range(i, len(qs)):
            rij = wedge(qi, qs[j])
            if not rij:
                continue
            for k in range(j, len(qs)):
                if wedge(rij, qs[k]):
                    return False
    return True


def count_function_calls(monkeypatch, function) -> list:
    """Records the arguments of each call of a module-level function under
    every name that a loaded spin7lab module binds it to."""
    calls = []

    def counted(*args):
        calls.append(args)
        return function(*args)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("spin7lab"):
            for name, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, name, counted)
    return calls


def count_calls(monkeypatch, *names, cls=FieldScalar):
    """Counts calls of these methods of ``cls``; ``__rmul__`` shares the
    ``__mul__`` counter."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(cls, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(cls, name, counted)
        if name == "__mul__":
            monkeypatch.setattr(cls, "__rmul__", counted)
    return calls


# -- the chamber ring's raw-term layer on FieldScalars -------------------------
# Raw term maps (s_exp, w_exp) -> FieldScalar, summed from ZERO and reduced
# once by old_canonical, as the package did before it ran rational
# coefficients on int numerators.

_TWO_FIFTHS = FieldScalar(Q(2, 5))


def _old_add_terms(raw, items):
    for key, c in items:
        raw[key] = raw.get(key, ZERO) + c


def _old_product_terms(x, y):
    for (a1, e1), c1 in x.items():
        for (a2, e2), c2 in y.items():
            yield (a1 + a2, e1 + e2), c1 * c2


def _old_derivative_terms(terms):
    for (a, e), c in terms.items():
        if a:
            yield (a - 1, e), FieldScalar(a) * c
        if e:
            yield (a + 1, e - 5), (_TWO_FIFTHS * FieldScalar(e)) * c


def old_canonical(raw):
    """The unique representative with minimal w-denominator: shift to
    w-exponents >= 0, reduce w⁵ = 1 + s² one step at a time, then divide by
    w while the w⁰ layer is divisible by 1 + s²."""
    terms = {k: c for k, c in raw.items() if c}
    if not terms:
        return {}
    shift = max(0, -min(e for (_a, e) in terms))
    num = {}
    for (a, e), c in terms.items():
        num[(a, e + shift)] = num.get((a, e + shift), ZERO) + c
    while True:
        high = [(a, e) for (a, e) in num if e >= 5]
        if not high:
            break
        for a, e in high:
            c = num.pop((a, e))
            for key in ((a, e - 5), (a + 2, e - 5)):
                num[key] = num.get(key, ZERO) + c
        num = {k: c for k, c in num.items() if c}
    while shift > 0:
        layer0 = {a: c for (a, e), c in num.items() if e == 0}
        quotient = _old_divide_by_one_plus_s2(layer0)
        if quotient is None:
            break
        nxt = {}
        for (a, e), c in num.items():
            if e:
                nxt[(a, e - 1)] = nxt.get((a, e - 1), ZERO) + c
        for a, c in quotient.items():
            nxt[(a, 4)] = nxt.get((a, 4), ZERO) + c
        num = {k: c for k, c in nxt.items() if c}
        shift -= 1
        if not num:
            break
    return {(a, e - shift): c for (a, e), c in num.items()}


def _old_divide_by_one_plus_s2(poly):
    if not poly:
        return {}
    rem = dict(poly)
    out = {}
    for deg in range(max(rem), 1, -1):
        c = rem.get(deg)
        if not c:
            continue
        out[deg - 2] = c
        rem.pop(deg)
        low = rem.get(deg - 2, ZERO) - c
        if low:
            rem[deg - 2] = low
        else:
            rem.pop(deg - 2, None)
    return None if any(rem.values()) else out


def _old_scalar(raw):
    den, (nums,) = to_numerators([old_canonical(raw)])
    return chamber._make(den, nums)


def old_product(x, y):
    """x·y summed as FieldScalars and canonicalized once."""
    raw = {}
    _old_add_terms(raw, _old_product_terms(x.terms, y.terms))
    return _old_scalar(raw)


def old_derivative(x):
    raw = {}
    _old_add_terms(raw, _old_derivative_terms(x.terms))
    return _old_scalar(raw)


def coframe_differentials(frame):
    """d(e^k) = −Σ_{i<j} c^k_{ij} e^i ∧ e^j as a ChamberForm per coframe
    slot; slot 0 is ds, with d(ds) = 0, and generator i is slot i + 1."""
    out = [ChamberForm.zero(2)]
    for k in range(N_GENERATORS):
        acc = {}
        for i in range(N_GENERATORS):
            for j in range(i + 1, N_GENERATORS):
                c = frame.structure[i][j][k]
                if c:
                    mask = (1 << (i + 1)) | (1 << (j + 1))
                    acc[mask] = acc.get(mask, ChamberScalar()) \
                        - ChamberScalar.of(c)
        out.append(ChamberForm(2, acc))
    return tuple(out)


def old_maurer_cartan_d(form, frame):
    """d(c·e^I) = ∂_s c ds∧e^I + c Σ_{k∈I} de^k∧(e_k⌟e^I), summed per
    output blade as FieldScalar raw terms."""
    dgen = coframe_differentials(frame)
    acc = {}
    for mask, coeff in form.terms.items():
        if not mask & 1:
            _old_add_terms(acc.setdefault(mask | 1, {}),
                           _old_derivative_terms(coeff.terms))
        t = mask
        while t:
            bit = t & -t
            t ^= bit
            slot = bit.bit_length() - 1
            sub = mask ^ bit
            s_out = contract_sign(slot, mask)
            for m, structure in dgen[slot].terms.items():
                if m & sub:
                    continue
                if s_out * wedge_sign(m, sub) == -1:
                    structure = -structure
                _old_add_terms(acc.setdefault(m | sub, {}), _old_product_terms(
                    structure.terms, coeff.terms))
    return ChamberForm(form.degree + 1,
                       {m: _old_scalar(raw) for m, raw in acc.items()})


def old_contract(field, form):
    """Y⌟form, the three slots' raw FieldScalar terms summed per blade."""
    acc = {}
    for slot, coeff in field.coefficients():
        for m, c in form.terms.items():
            sign = contract_sign(slot, m)
            if sign:
                _old_add_terms(acc.setdefault(m ^ (1 << slot), {}),
                               _old_product_terms(coeff.terms,
                                                  c.terms if sign == 1
                                                  else (-c).terms))
    return ChamberForm(form.degree - 1,
                       {m: _old_scalar(raw) for m, raw in acc.items()})


# -- the KForm engine on {mask: FieldScalar} dicts -----------------------------
# Every operation term by term on FieldScalar coefficients, summed from ZERO
# with the signs of blades.py, as the package computed forms before a KForm
# held its numerator view.  Results drop zero coefficients.

def coefficients(form):
    return dict(form.mask_items())


def _nonzero(acc):
    return {m: c for m, c in acc.items() if c}


def _put(acc, mask, c):
    acc[mask] = acc.get(mask, ZERO) + c


def dict_sum(a, b, sign=1):
    acc = dict(a)
    for m, c in b.items():
        _put(acc, m, c if sign == 1 else -c)
    return _nonzero(acc)


def dict_scale(s, a):
    return _nonzero({m: FieldScalar.of(s) * c for m, c in a.items()})


def dict_wedge(a, b):
    acc = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            sign = wedge_sign(m1, m2)
            if sign:
                _put(acc, m1 | m2, c1 * c2 if sign == 1 else -(c1 * c2))
    return _nonzero(acc)


def dict_contract(v, a):
    """v⌟a, contracting the first slot."""
    acc = {}
    for m, c in a.items():
        for slot, comp in enumerate(v.components()):
            sign = contract_sign(slot, m)
            if sign and comp:
                _put(acc, m ^ (1 << slot), sign * (comp * c))
    return _nonzero(acc)


def dict_star(a):
    return {FULL_MASK ^ m: complement_sign(m) * c for m, c in a.items()}


def dict_inner(a, b):
    return sum((c * b[m] for m, c in a.items() if m in b), ZERO)


def dict_rho(a, form):
    """Σ over the blades e^m = ±e^p∧e^rest and their slots p of
    ±(A e^p)∧e^rest."""
    acc = {}
    for m, c in form.items():
        for p in range(DIM):
            if m >> p & 1:
                rest = m ^ (1 << p)
                sign = wedge_sign(1 << p, rest)
                image = {1 << i: a.rows[i][p] for i in range(DIM)}
                for k, x in dict_wedge(image, {rest: c}).items():
                    _put(acc, k, x if sign == 1 else -x)
    return _nonzero(acc)


def dict_pullback(l_map, form):
    """Λ^k L: each blade's generators replaced by their images, wedged."""
    acc = {}
    for m, c in form.items():
        piece = {0: c}
        for p in range(DIM):
            if m >> p & 1:
                piece = dict_wedge(piece, {1 << i: l_map.rows[i][p]
                                           for i in range(DIM)})
        for k, x in piece.items():
            _put(acc, k, x)
    return _nonzero(acc)


def dict_apply(op, form):
    """Σ c·(image of blade m) over the terms c·e^m of the form."""
    acc = {}
    pos = BLADE_POSITION[op.degree]
    for m, c in form.items():
        for k, x in op.images[pos[m]].items():
            _put(acc, k, c * x)
    return _nonzero(acc)


def is_canonical_view(form):
    """Every mask of the form's degree, no zero numerator, and for a KForm
    the view in lowest terms: ints over den > 0 with gcd 1."""
    nums = form._nums
    if not all(m.bit_count() == form.degree and x for m, x in nums.items()):
        return False
    if not isinstance(form, KForm):
        return form._denom == 1
    return (all(type(x) is int for x in nums.values()) and form._denom > 0
            and gcd(form._denom, *nums.values()) == 1)
