"""Identity verifiers, the classical determinant oracle, the check registry
and the grid runner.

``mn-verify``, ``thm2-verify`` and ``specialize-check`` work on integer keys
and decode only a FAIL's witness.  ``mn-verify`` compares two key maps of one
:class:`WeightCode`; ``thm2-verify`` reads its minimum degree off the keys'
degree field; ``specialize-check`` forgets the colors of the loop Schur keys
and compares them with the oracle, a signed ``subset_expansion`` on
:class:`KeyPolynomial` entries of its own layout.  ``lemma-verify`` still sums
over enumerated plain members, counting their keys and weighing the first
member of each distinct key, so only its right-hand products work on monomials.

Every verifier returns a :class:`VerificationReport` whose canonical rendering
is byte-stable: equal inputs produce identical documents.  Wall time is
measured but excluded from canonical output.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter, namedtuple
from collections.abc import Callable
from functools import lru_cache
from itertools import repeat, tee
from operator import add, ge, itemgetter, rshift, sub
from types import SimpleNamespace
from typing import NamedTuple

from .errors import ConfigError, MembershipError, PreconditionError
from .involutions import (  # also the maps, which callers may look up or replace here
    DEFAULT_CAP,
    Member,
    SignedTableau,
    augmented_signed_sum,
    count_augmented_tableaux,
    count_staircase_tableaux,
    enumerate_augmented_tableaux,
    enumerate_staircase_tableaux,
    extract_power_sum_factor,
    i1,
    i2,
    i2_is_fixed,
    i3,
    i3_swaps,
    i4,
    in_low_family,
    insert_power_sum_factor,
    is_column_strict,
    permutation_sign,
    sample_augmented_tableau,
    sample_staircase_tableau,
    slide_from_border_strip,
    slide_to_border_strip,
    staircase_entries_standard,
    staircase_signed_sum,
    strip_rows,
    subset_expansion,
    validate_in_family,
)
from .polyring import Monomial, Polynomial, fraction_text, to_document
from .shapes import Partition, enumerate_border_strips, is_border_strip
from .tableaux import (  # also the builders, which callers may look up or replace here
    KeyPolynomial,
    ShiftParams,
    WeightCode,
    _RowKeys,
    loop_power_sum,
    loop_schur,
    ssyt_code,
    ssyt_keys,
    staircase_cells,
    staircase_monomial,
)


class VerificationReport(SimpleNamespace):
    """Outcome of one check.  ``passed`` is true iff the witness is absent.
    Mutable, equal by its fields, which its ``repr`` shows; ``details`` starts as a fresh dict."""

    def __init__(self, check: str, params: dict, passed: bool, witness: dict | None = None,
                 details: dict | None = None, wall_time_s: float = 0.0):
        super().__init__(check=check, params=params, passed=passed, witness=witness,
                         details={} if details is None else details, wall_time_s=wall_time_s)

    def to_document(self) -> dict:
        return {
            "check": self.check,
            "params": self.params,
            "pass": self.passed,
            "witness": self.witness,
            "details": self.details,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_document(), sort_keys=True, separators=(",", ":"))

    def text(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        params = " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        extras = " ".join(f"{k}={v}" for k, v in sorted(self.details.items()))
        line = f"{status} {self.check} {params}"
        if extras:
            line += f" | {extras}"
        if not self.passed and self.witness is not None:
            line += f" | witness={json.dumps(self.witness, sort_keys=True, separators=(',', ':'))}"
        return line


def _fold(total: dict, keys, counts, sign=add) -> dict:
    """Add (or ``sub``) each count to ``total`` at its key, in C; equal keys add up."""
    keys, lookups = tee(keys)  # in lockstep, so tee holds one key
    dict.update(total, zip(keys, map(sign, map(total.get, lookups, repeat(0)), counts)))
    return total


def _difference_witness(lhs, rhs, decode: Callable) -> dict | None:
    """The decoded difference of two key maps with no zero count; None if they are equal dicts."""
    if dict.__eq__(lhs, rhs):
        return None
    return {"difference": to_document(decode(_fold(dict(lhs), rhs, rhs.values(), sub)))}


# ---------------------------------------------------------------------------
# Classical oracle
# ---------------------------------------------------------------------------

def _y_width(lam: Partition) -> int:
    return max(lam.size, 1).bit_length()


def _schur_keys(lam: Partition, N: int) -> KeyPolynomial:
    """The keys of :func:`classical_schur`, built afresh on each call."""
    ell, width = len(lam), _y_width(lam)
    if ell > N:
        return KeyPolynomial()
    max_m, zero = lam.part(1) + ell - 1, KeyPolynomial()
    # h_0..h_max in y_1..y_N: h_m(y_1..y_j) = h_m(y_1..y_{j-1}) + y_j h_{m-1}(y_1..y_j)
    hs = [KeyPolynomial({0: 1})] + [zero] * max_m
    for j in range(N):
        y_j = KeyPolynomial({1 << (j * width): 1})
        for m in range(1, max_m + 1):
            hs[m] = hs[m] + y_j * hs[m - 1]
    matrix = [[hs[lam.part(i) - i + j] if 0 <= lam.part(i) - i + j <= max_m else zero
               for j in range(1, ell + 1)] for i in range(1, ell + 1)]
    return subset_expansion(matrix, zero, hs[0], signed=True)[-1]


def _y_polynomial(keys, lam: Partition, N: int) -> Polynomial:
    """The polynomial in y_j = x(0, j), of modulus 1, of the nonzero terms of a
    key-to-coefficient map on the oracle's layout for ``lam``."""
    width = _y_width(lam)
    exponents = lambda key: {(0, j + 1): key >> j * width & (1 << width) - 1 for j in range(N)}
    return Polynomial(1, {Monomial.from_exponents(exponents(key)): c for key, c in keys.items() if c})


def classical_schur(lam: Partition, N: int) -> Polynomial:
    """Classical Schur polynomial in y_1..y_N: the Jacobi-Trudi determinant of
    complete homogeneous sums, a signed :func:`subset_expansion` on keys where
    y_j owns bits (j-1)*w .. j*w - 1, w the bit length of max(|lam|, 1), which
    no minor's degree exceeds.  It builds no :class:`WeightCode` and reads no
    cell table: an independent oracle for the color-forgetting specialization
    of the loop Schur builders."""
    return _y_polynomial(_schur_keys(lam, N), lam, N)


# ---------------------------------------------------------------------------
# Top-level identity verifiers
# ---------------------------------------------------------------------------


def _signed_border_strip_sum(lam: Partition, n: int, k: int, N: int, l: int = 0) -> tuple[dict, int, WeightCode]:
    """The signed sum of the (shifted) loop Schur functions of the kn-border strips sigma/lam,
    as its nonzero key counts, folded strip by strip in C; with the strip count and the code,
    which covers lam and all sigma."""
    strips = enumerate_border_strips(lam, k * n)
    code = ssyt_code([lam] + [addition.sigma for addition in strips], n, l, N)
    total = {}
    for addition in strips:
        keys = ssyt_keys(addition.sigma, n, l, N, code)
        _fold(total, keys, keys.values(), add if addition.height % 2 == 0 else sub)
        del keys  # before the next strip is counted
    return dict(filter(itemgetter(1), total.items())), len(strips), code


def _power_sum_product(lam: Partition, n: int, k: int, N: int, code: WeightCode) -> dict:
    """The keys of the loop power sum times the loop Schur function of lam, folded in C."""
    keys, product = ssyt_keys(lam, n, 0, N, code), {}
    for power in map(code.power_key, range(1, N + 1), repeat(k)):
        _fold(product, map(power.__add__, keys), keys.values())
    return product


def verify_murnaghan_nakayama(lam: Partition, n: int, k: int, N: int) -> VerificationReport:
    """Check that the power-sum product equals the signed border-strip sum.

    Both sides are truncated at N; equality must be exact.  The common
    staircase monomial factor is omitted, which is equivalent because
    dividing by a monomial is exact.
    """
    if n < 1 or k < 1:
        raise PreconditionError(f"n and k must be positive, got n={n}, k={k}")
    required = k * n + len(lam)
    if N < required:
        raise PreconditionError(
            f"need N >= {required} for lambda={lam}, n={n}, k={k}; got N={N}",
            required_truncation=required,
        )
    start = time.perf_counter()
    rhs, strip_count, code = _signed_border_strip_sum(lam, n, k, N)
    lhs = _power_sum_product(lam, n, k, N, code)
    witness = _difference_witness(lhs, rhs, code.polynomial)
    return VerificationReport(
        check="mn-verify",
        params={"lambda": str(lam), "n": n, "k": k, "N": N},
        passed=witness is None,
        witness=witness,
        details={"strips": strip_count, "lhs_terms": len(lhs), "rhs_terms": len(rhs)},
        wall_time_s=time.perf_counter() - start,
    )


def verify_degree_bound(lam: Partition, n: int, k: int, N: int, l: int) -> VerificationReport:
    """Check the degree floor of the signed shifted border-strip sum.

    The sum must have minimum degree at least N - k*n - (l/n)*N; the zero
    polynomial passes with infinite degree.  The proof actually yields the
    stronger floor N - k*l - (l/n)*N, reported alongside for reference.
    """
    if not 1 <= l < n:
        raise PreconditionError(
            f"the degree bound applies to shifts 1 <= l < n, got l={l}, n={n}"
        )
    if k < 1:
        raise PreconditionError(f"k must be positive, got {k}")
    start = time.perf_counter()
    keys, strip_count, code = _signed_border_strip_sum(lam, n, k, N, l)
    # A key's field above code.top is n times its degree: degrees and bounds are compared
    # times n, as integers, and only a FAIL's terms at the least degree are decoded.
    least = min(keys) >> code.top if keys else None
    stated, stronger = N * (n - l) - k * n * n, N * (n - l) - k * l * n
    passed = least is None or least >= stated
    witness = None
    if not passed:
        lowest = code.polynomial({key: c for key, c in keys.items() if key >> code.top == least})
        witness = {"min_degree_terms": [
            {"coeff": str(c), "vars": [list(v) for v in m.vars]} for m, c in lowest.terms()
        ]}
    return VerificationReport(
        check="thm2-verify",
        params={"lambda": str(lam), "n": n, "k": k, "N": N, "l": l},
        passed=passed,
        witness=witness,
        details={
            "achieved_min_degree": "inf" if least is None else fraction_text(least, n),
            "stated_bound": fraction_text(stated, n),
            "proof_bound": fraction_text(stronger, n),
            "strips": strip_count,
            "terms": len(keys),
        },
        wall_time_s=time.perf_counter() - start,
    )


def verify_expansion(
    which: int, lam: Partition, n: int, k: int, N: int, cap: int = DEFAULT_CAP
) -> VerificationReport:
    """Check one of the three signed-family expansion identities exactly.

    1: the base-family signed sum equals the staircase monomial times the
       loop Schur function.
    2: the augmented-family signed sum equals the power sum times that
       product.
    3: the augmented-family signed sum equals the signed border-strip sum
       times the staircase monomial.
    """
    if which not in (1, 2, 3):
        raise PreconditionError(f"identity index must be 1, 2 or 3, got {which}")
    if which != 1 and k < 1:
        raise PreconditionError(f"k must be positive, got {k}")
    start = time.perf_counter()
    lhs = (staircase_signed_sum(lam, n, N, cap=cap) if which == 1
           else augmented_signed_sum(lam, n, k, N, cap=cap))
    staircase = Polynomial.from_term(n, staircase_monomial(N, n))  # once the cap admits the left side
    if which == 1:
        rhs = staircase * loop_schur(lam, n, N)
    elif which == 2:
        rhs = loop_power_sum(k, n, N) * staircase * loop_schur(lam, n, N)
    else:
        strip_sum, _, code = _signed_border_strip_sum(lam, n, k, N)
        rhs = staircase * code.polynomial(strip_sum)
    diff = lhs - rhs
    params = {"which": which, "lambda": str(lam), "n": n, "N": N}
    if which != 1:
        params["k"] = k
    return VerificationReport(
        check="lemma-verify",
        params=params,
        passed=diff.is_zero,
        witness=None if diff.is_zero else {"difference": to_document(diff)},
        details={"lhs_terms": len(lhs), "rhs_terms": len(rhs)},
        wall_time_s=time.perf_counter() - start,
    )


def _forgotten_keys(lam: Partition, n: int, N: int) -> dict:
    """The loop Schur keys of ``lam`` with their colors forgotten, on the
    classical oracle's layout.  The fields of the unshifted :func:`ssyt_code`
    are, per color of a cell, a block of N fields x(color, n*v), v = 1..N, as
    wide as y_v's (|lam|.bit_length() bits); summing the blocks (a ``map`` each) forgets colors."""
    code = ssyt_code((lam,), n, 0, N)
    mask = (1 << (N * code.width)) - 1
    blocks = [j * code.width for j, (_, weight_num) in enumerate(code.variables) if weight_num == n]
    keys, summed = ssyt_keys(lam, n, 0, N, code), repeat(0)  # summed over no block yet
    for shift in blocks:
        summed = map(add, summed, map(mask.__and__, map(rshift, keys, repeat(shift))))
    return _fold({}, summed, keys.values())


def check_specialization(lam: Partition, n: int, N: int) -> VerificationReport:
    """Check that forgetting colors turns the loop Schur function into the
    classical Schur polynomial of the determinant oracle, on keys; only a
    FAIL builds their difference and decodes it, for the witness."""
    start = time.perf_counter()
    oracle, forgotten = _schur_keys(lam, N), _forgotten_keys(lam, n, N)
    witness = _difference_witness(forgotten, oracle, lambda keys: _y_polynomial(keys, lam, N))
    return VerificationReport(
        check="specialize-check",
        params={"lambda": str(lam), "n": n, "N": N},
        passed=witness is None,
        witness=witness,
        details={"terms": len(oracle)},
        wall_time_s=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# Involution checking
# ---------------------------------------------------------------------------


_first = itemgetter(0)


class _FamilyCheck:
    """What the member checks of one family share: its map's :data:`_MAPS`
    entry, whose fields it binds, its parameters, the failures found, and the
    signed shifted sum of the members the map moves.

    Members and images are plain data (see :mod:`loopschur.involutions`).  A
    weight is the integer key of a :class:`WeightCode` on the family's
    :func:`staircase_cells`, taken of a member's rows by ``key`` (plain) or
    ``shifted_key``, and a product of weights is a sum of keys; ``l`` is the
    shift of the map's shifted-weight check, and ``kl`` is read only by the
    fourth map.  A moved pair's weights are compared by one ``joint_key``,
    whose bits ``plain_bits`` hold the plain key.  With a shift, the first and
    third maps join the plain key and the shifted key times 2 ** offset, past
    every plain key of the family, so ``plain_bits`` hold the plain key
    exactly even when the shifted key is negative; with none, it is the plain
    key, and ``plain_bits`` is -1.  The fourth map preserves only the shifted
    weight, so its joint key is the shifted key and ``plain_bits`` is 0.  Each
    key checks a filling's row count, then sums bound lookups in one memo of
    row keys (:meth:`_RowKeys.keyer`).  ``swaps[i]`` is :func:`i3_swaps` of
    the lengthened row i, and ``factors[j]`` the key of the second map's
    power-sum factor of label j.  Label signs are memoized, and so is what
    :meth:`closed` has accepted.
    """

    def __init__(self, spec: _Map, lam: Partition, n: int, N: int, d: int, l: int):
        self.apply, self.rule, self.breach, self.check_fixed, self.sign_failure, self.moves = spec[:6]
        self.low = spec.low
        self.lam, self.n, self.N, self.d, self.l = lam, n, N, d, l
        self.kl = d // n * l
        cells, shifted_cells = (staircase_cells(lam, N, d, n, shift) for shift in (0, l))
        self.plain = WeightCode(cells, n, N)
        self.shifted = WeightCode(shifted_cells, n, N) if l else self.plain
        self.key, self.shifted_key = self.plain.key, self.shifted.key
        self.joint_key, self.plain_bits = self.key, -1
        if spec.low:
            self.joint_key, self.plain_bits = self.shifted_key, 0
        elif l and N:  # with no rows, the one member moves nowhere
            low, high = self.plain.memo.bits, self.shifted.memo.bits
            offset = (N * len(low) * max(max(bits.values()) for bits in low)).bit_length()
            self.joint_key = _RowKeys(tuple({v: key + (up[v] << offset) for v, key in bits.items()}
                                            for bits, up in zip(low, high))).keyer(N)
            self.plain_bits = (1 << offset) - 1
        self.failures: list[tuple[str, Member | None]] = []
        self.reachable = Counter()
        self.sign = lru_cache(maxsize=None)(permutation_sign)  # at most the family's labelings
        self.swaps = (False,) + tuple(i3_swaps(lam, N, d, i) for i in range(1, N + 1)) if d else ()
        self.factors = (0,) + tuple(map(self.plain.power_key, range(1, N + 1), repeat(d // n))) if d else ()
        # What validate_in_family accepted: the row lengths of an image, by its
        # lengthened row, every row and every labeling of an image.
        self.lengths: dict[int, tuple[int, ...]] = {}
        self.rows: set[tuple[int, ...]] = set()
        self.taus: set[tuple[int, ...]] = set()

    def closed(self, image: Member) -> bool:
        """Whether :func:`validate_in_family` accepts ``image``.  An image whose
        rows are all rows of images accepted before, with the lengthened row and
        row lengths of one of them, whose labels are those of one of them, and
        each of whose rows starts at or above its label, is accepted without the
        per-entry walk; any other is validated in full.  The first test is the
        one that fails on members that rarely share rows, such as sampled ones."""
        rows, tau, i = image
        if (self.rows.issuperset(rows) and tuple(map(len, rows)) == self.lengths.get(i)
                and tau in self.taus and all(map(ge, map(_first, rows), tau))):
            return True
        try:
            validate_in_family(image, self.lam, self.N, self.d)
        except MembershipError:
            return False
        self.lengths[i] = tuple(map(len, rows))
        self.rows.update(rows)
        self.taus.add(tau)
        return True

    def fail(self, name: str, member: Member) -> bool:
        self.failures.append((name, member))
        return False


def _check_member(c: _FamilyCheck, m: Member, sign: int, image: Member) -> bool:
    """Check member ``m``, of label sign ``sign``, and its ``image`` under the
    map of ``c``; record the first failure, and return whether ``m`` is a fixed
    point that passed.  Every map is checked by these steps, in this order:

    1. closure: a moved image is in the family (:meth:`_FamilyCheck.closed`)
       and, for the fourth map, in its low family;
    2. involution: the map sends a moved image back to ``m`` (a map is a
       function, so a fixed point needs neither step);
    3. the rule: where the map's entry knows which members it fixes, ``m`` is
       fixed exactly when the rule names it fixed, else the entry's breach;
    4. a fixed point passes the entry's fixed-point checks, and a moved pair
       has opposite signs and equal weights, compared by ``joint_key``: a
       differing sign or plain weight is the entry's sign failure, and a
       differing shifted weight alone is ``shifted_weight``.
    """
    fixed = image == m
    if not fixed:
        if not c.closed(image) or c.low and not in_low_family(image, c.kl):
            return c.fail("closure", m)
        if c.apply(c, image) != m:
            return c.fail("involution", m)
    if c.rule is not None and fixed != c.rule(c, m):
        return c.fail(c.breach, m)
    if fixed:
        return c.check_fixed(c, m, sign)
    key, image_key = c.joint_key(m[0]), c.joint_key(image[0])
    if c.sign(image[1]) != -sign or key != image_key and (key ^ image_key) & c.plain_bits:
        return c.fail(c.sign_failure, m)
    if key != image_key:
        return c.fail("shifted_weight", m)
    return False


def _i1_fixed_point(c: _FamilyCheck, m: Member, sign: int) -> bool:
    """Its staircase entries are standard and its labels the identity."""
    if not staircase_entries_standard(m[0]) or m[1] != tuple(range(1, c.N + 1)):
        return c.fail("fixed_point_shape", m)
    return True


def _i2_fixed_point(c: _FamilyCheck, m: Member, sign: int) -> bool:
    """Its power-sum factor comes off with the sign kept and the weight split
    into the factor's and the rest's, and goes back on to give ``m``."""
    base, i = extract_power_sum_factor(m, c.d), m[2]
    if (base[1] != m[1] and c.sign(base[1]) != sign  # equal labels have one sign
            or c.factors[m[1][i - 1]] + c.key(base[0]) != c.key(m[0])):
        return c.fail("factor_weight_law", m)
    if insert_power_sum_factor(base, i, c.d) != m:
        return c.fail("factor_roundtrip", m)
    return True


def _i3_fixed_point(c: _FamilyCheck, m: Member, sign: int) -> bool:
    """It slides onto a border strip sigma / lam, landing on a fixed point of
    the first map with the sign times (-1) ** height and the same weight, and
    slides back to ``m``."""
    parts, height, landed = slide_to_border_strip(m)
    if list(parts) != sorted(parts, reverse=True):  # a tie left the rows unsorted
        return c.fail("strip_shape", m)
    sigma = Partition(parts)
    if not is_border_strip(sigma, c.lam, c.d):
        return c.fail("strip_shape", m)
    if not is_column_strict(landed[0]) or i1(landed) != landed:
        return c.fail("landing_not_fixed", m)
    sign_factor = -1 if height % 2 else 1
    if sign != sign_factor * c.sign(landed[1]) or c.key(landed[0]) != c.key(m[0]):
        return c.fail("slide_sign_or_weight", m)
    if slide_from_border_strip(landed, *strip_rows(sigma, c.lam)) != m:
        return c.fail("slide_roundtrip", m)
    return True


# Per map, what :func:`_check_member` and the walks read of it: the map, looked
# up here when it is applied; the rule naming the members it fixes (None for
# the third map, which has none known) and the failure that names a breach of
# it; the checks of a fixed point; the failure of a moved pair's sign or plain
# weight; the rule naming members it moves, read without applying it (see
# :func:`_walk_pairs`); whether it lengthens a row by k*n cells (k >= 1);
# whether it acts only on the low family (1 <= l < n); and the shift of its
# weight check, given l and n.
_Map = namedtuple("_Map", "apply rule breach check_fixed sign_failure moves lengthens low shift")
_MAPS = {
    "I1": _Map(lambda c, m: i1(m), lambda c, m: is_column_strict(m[0]), "fixed_iff_column_strict",
               _i1_fixed_point, "sign_or_weight", lambda c, m: not is_column_strict(m[0]),
               False, False, lambda l, n: l or int(n > 1)),
    "I2": _Map(lambda c, m: i2(m, c.d), lambda c, m: i2_is_fixed(m, c.d), "fixed_point_rule",
               _i2_fixed_point, "sign_or_weight", lambda c, m: not i2_is_fixed(m, c.d),
               True, False, lambda l, n: 0),
    "I3": _Map(lambda c, m: i3(m), None, None, _i3_fixed_point, "sign_or_weight",
               lambda c, m: c.swaps[m[2]], True, False, lambda l, n: l),
    "I4": _Map(lambda c, m: i4(m, c.d, c.kl), lambda c, m: False, "unexpected_fixed_point",
               None, "sign", lambda c, m: True, True, True, lambda l, n: l),
}


def _walk_each(c: _FamilyCheck, members, moved_sum: bool = True) -> tuple[int, int]:
    """Check every member on its own; returns the members checked and the fixed
    points.  With ``moved_sum`` it adds up the signed shifted weights of the
    members the map moves in ``c.reachable``, where pairs cancel."""
    apply = c.apply
    checked = fixed = 0
    for m in members:
        checked += 1
        sign, image = c.sign(m[1]), apply(c, m)
        if moved_sum and image != m:
            c.reachable[c.shifted_key(m[0])] += sign
        fixed += _check_member(c, m, sign, image)
    return checked, fixed


def _walk_pairs(c: _FamilyCheck, members) -> tuple[int, int] | None:
    """Check each orbit of the map once; returns what :func:`_walk_each`
    returns when every check passes, and None otherwise.

    The label sign directs each pair.  A positive member is checked with its
    image; a moved one, *forward*, also has the map's rule read on its image,
    the one check of the image's own turn that its partner's does not cover.
    A negative member that the map's ``moves`` rule names moved is *backward*
    and only counted, without applying the map.  Any other negative member
    is mapped: a fixed one is checked as a fixed point, and a moved one is
    counted as backward.  The map reverses the sign, so the forward members'
    images are negative, and the involution checks make them distinct; so
    when the two counts agree every backward member is such an image and its
    check is implied.  A map that fixes a member its rule names moved leaves
    that member without a forward partner, and the counts disagree.  The
    cancelled pairs leave ``c.reachable`` empty.
    """
    apply, moves, rule = c.apply, c.moves, c.rule
    checked = fixed = forward = backward = 0
    tau = sign = None
    for m in members:
        checked += 1
        if m[1] != tau:
            tau = m[1]
            sign = c.sign(tau)
        if sign < 0 and moves(c, m):
            backward += 1
            continue
        image = apply(c, m)
        if sign < 0 and image != m:
            backward += 1
        elif _check_member(c, m, sign, image):
            fixed += 1
        elif c.failures or rule is not None and rule(c, image):
            return None
        else:
            forward += 1
    return (checked, fixed) if forward == backward else None


def _low_family_only(members, kl: int):
    """``members``, raising MembershipError at the first outside the fourth
    map's low family, whose lengthened row stays at or below N - kl."""
    for m in members:
        if not in_low_family(m, kl):
            raise MembershipError("a member outside the low family reached the fourth map")
        yield m


def check_involution(
    which: str,
    lam: Partition,
    n: int,
    k: int,
    N: int,
    l: int = 0,
    mode: str = "exhaustive",
    samples: int = 1000,
    seed: int = 0,
    cap: int = DEFAULT_CAP,
) -> VerificationReport:
    """Exercise one pairing map over its family and report property failures.

    Exhaustive mode walks the whole family (subject to the cap); sampled mode
    draws the requested number of members (at least one) with the given seed
    and checks each on its own, keeping no sum.  Every member is checked by
    :func:`_check_member`, with the map's :data:`_MAPS` entry, which also
    names its family and the shift of its weight check.  The second to fourth
    maps need k >= 1, refused before any counting.  The fourth map also needs
    1 <= l < n; it draws from and walks only its low family, and raises
    MembershipError at a member outside it, in either mode, while the cap
    counts the whole augmented family.

    Exhaustive mode makes its stream, which counts the family and refuses
    above the cap, before it builds anything else, and walks each pair of the
    map once (:func:`_walk_pairs`).  If a check fails or the pair counts
    differ, it walks the family again checking every member on its own, so a
    failing report names the same first witness and number of failures either
    way.  The signed shifted weights of the members the map moves must then
    cancel in pairs, else ``unreachable_sum_mismatch``, and the members checked
    must number the family's count (the low family's for the fourth map), else
    ``member_count_mismatch``: a stream that lost a moved member fails both,
    and one that lost a fixed point the second.
    """
    which = which.upper()
    spec = _MAPS.get(which)
    if spec is None:
        raise PreconditionError(f"unknown pairing map {which!r}")
    if spec.low and not 1 <= l < n:
        raise PreconditionError(f"the fourth map needs 1 <= l < n, got l={l}, n={n}")
    if mode not in ("exhaustive", "samples"):
        raise PreconditionError(f"mode must be 'exhaustive' or 'samples', got {mode!r}")
    if mode == "samples" and samples < 1:
        raise PreconditionError(f"samples must be at least 1, got {samples}")
    if spec.lengthens and k < 1:
        raise PreconditionError(f"k must be positive, got {k}")
    start = time.perf_counter()
    ShiftParams(n, l)  # refuses l outside 0 <= l < n, whatever shift the map checks
    d, low_l = (k * n if spec.lengthens else 0), (l if spec.low else 0)
    family = lambda: _FamilyCheck(spec, lam, n, N, d, spec.shift(l, n))
    # The fourth map's streams and draws must keep to its low family.
    guard = (lambda stream: _low_family_only(stream, k * l)) if spec.low else (lambda stream: stream)
    if spec.lengthens:
        members = lambda: guard(enumerate_augmented_tableaux(lam, n, k, N, cap, low_l))
        size = lambda: count_augmented_tableaux(lam, n, k, N, low_l)
        draw = lambda rng: sample_augmented_tableau(lam, n, k, N, rng, low_l)
    else:
        members = lambda: enumerate_staircase_tableaux(lam, n, N, cap)
        size = lambda: count_staircase_tableaux(lam, N)
        draw = lambda rng: sample_staircase_tableau(lam, n, N, rng)

    if mode == "exhaustive":
        stream = members()  # counted, and refused above the cap, before the check is built
        c = family()
        counts = _walk_pairs(c, stream)
        if counts is None:  # walk again member by member, for the failures it reports
            c = family()
            counts = _walk_each(c, members())
        if any(c.reachable.values()):  # the moved members do not cancel
            c.failures.append(("unreachable_sum_mismatch", None))
        if counts[0] != size():  # the stream lost or repeated a member
            c.failures.append(("member_count_mismatch", None))
    else:
        c = family()
        rng = random.Random(seed)
        draws = guard(draw(rng) for _ in range(samples))
        counts = _walk_each(c, draws, moved_sum=False)
    total, fixed_count = counts

    failures = c.failures
    witness = None
    if failures:
        name, member = failures[0]
        witness = {
            "property": name,
            "member": (SignedTableau(lam, n, N, d, *member).to_document()
                       if member is not None else None),
        }
    params = {"which": which, "lambda": str(lam), "n": n, "k": k, "N": N, "mode": mode}
    if l:
        params["l"] = l
    if mode == "samples":
        params["samples"] = samples
        params["seed"] = seed
    return VerificationReport(
        check="involution-check",
        params=params,
        passed=not failures,
        witness=witness,
        details={"checked": total, "fixed": fixed_count, "moved": total - fixed_count,
                 "failures": len(failures)},
        wall_time_s=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# Check registry and grid runner
# ---------------------------------------------------------------------------


def integer(text: str) -> int:
    """Parse an integer option."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def truncation(text: str) -> int:
    """Parse a truncation ``N``: an integer, at least 0."""
    value = integer(text)
    if value < 0:
        raise ValueError(f"must be non-negative, got {value}")
    return value


def positive(text: str) -> int:
    """Parse an integer option that must be at least 1."""
    value = integer(text)
    if value < 1:
        raise ValueError(f"must be positive, got {value}")
    return value


class Param(NamedTuple):
    """One option of a check: the grid key ``key=`` and the flag ``--key``.
    ``parse`` raises ValueError on bad text; a ``default`` of None means required."""

    key: str
    parse: Callable[[str], object] = integer
    default: object = None
    choices: tuple | None = None


class CheckSpec(NamedTuple):
    """A check's subcommand ``name``, grid ``kind``, options, and runner on parsed options."""

    name: str
    kind: str
    help: str
    params: tuple[Param, ...]
    run: Callable[[dict], VerificationReport]


_LAMBDA = Param("lambda", Partition.from_text)
_N = Param("n")
_K = Param("k")
_TRUNCATION = Param("N", truncation)
_CAP = Param("cap", default=DEFAULT_CAP)

# Each ``run`` looks its verifier up by name when it is called, so a verifier
# replaced on this module (to trace or to corrupt it) is the one that runs.
CHECKS = (
    CheckSpec(
        "mn-verify", "mn", "check the power-sum product against the signed border-strip sum",
        (_LAMBDA, _N, _K, _TRUNCATION),
        lambda o: verify_murnaghan_nakayama(o["lambda"], o["n"], o["k"], o["N"]),
    ),
    CheckSpec(
        "thm2-verify", "thm2", "check the degree floor of the signed shifted border-strip sum",
        (_LAMBDA, _N, _K, _TRUNCATION, Param("l")),
        lambda o: verify_degree_bound(o["lambda"], o["n"], o["k"], o["N"], o["l"]),
    ),
    CheckSpec(
        "lemma-verify", "lemma", "check one of the three signed-family expansion identities",
        (Param("which", choices=(1, 2, 3)), _LAMBDA, _N, _TRUNCATION, Param("k", default=1), _CAP),
        lambda o: verify_expansion(o["which"], o["lambda"], o["n"], o["k"], o["N"], o["cap"]),
    ),
    CheckSpec(
        "involution-check", "involution", "exercise one pairing map over its family",
        (
            Param("which", str.upper, choices=tuple(_MAPS)), _LAMBDA, _N, _TRUNCATION,
            Param("k", default=1), Param("l", default=0),
            Param("mode", str, "exhaustive", ("exhaustive", "samples")),
            Param("samples", default=1000), Param("seed", default=0), _CAP,
        ),
        lambda o: check_involution(
            o["which"], o["lambda"], o["n"], o["k"], o["N"], l=o["l"], mode=o["mode"],
            samples=o["samples"], seed=o["seed"], cap=o["cap"],
        ),
    ),
    CheckSpec(
        "specialize-check", "specialize",
        "compare the color-forgetting specialization with the determinant oracle",
        (_LAMBDA, _N, _TRUNCATION),
        lambda o: check_specialization(o["lambda"], o["n"], o["N"]),
    ),
)
CHECKS_BY_KIND = {spec.kind: spec for spec in CHECKS}


class GridEntry(NamedTuple):
    kind: str
    options: dict
    line: int


def parse_grid_config(text: str) -> list[GridEntry]:
    """Parse the line-oriented grid configuration.

    Each non-blank, non-comment line is ``<kind> key=value ...``; kinds are
    mn, thm2, lemma, involution and specialize.
    """
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind not in CHECKS_BY_KIND:
            raise ConfigError(f"unknown check kind {kind!r}", lineno)
        options = {}
        for token in tokens[1:]:
            if "=" not in token:
                raise ConfigError(f"expected key=value, got {token!r}", lineno)
            key, _, value = token.partition("=")
            if key in options:
                raise ConfigError(f"duplicate key {key!r}", lineno)
            options[key] = value
        entries.append(GridEntry(kind, options, lineno))
    return entries


def _grid_value(entry: GridEntry, param: Param, inherited: dict):
    if param.key not in entry.options:
        value = inherited.get(param.key, param.default)
        if value is None:
            raise ConfigError(f"{entry.kind} requires {param.key}=", entry.line)
        return value
    try:
        value = param.parse(entry.options[param.key])
    except ValueError as exc:
        raise ConfigError(f"{param.key}: {exc}", entry.line)
    if param.choices is not None and value not in param.choices:
        choices = ", ".join(map(repr, param.choices))
        raise ConfigError(f"{param.key}: invalid choice: {value!r} (choose from {choices})", entry.line)
    return value


def execute_entry(entry: GridEntry, seed: int = 0, cap: int = DEFAULT_CAP) -> VerificationReport:
    """Run one grid line; ``seed`` and ``cap`` are the defaults of the lines that take them."""
    spec = CHECKS_BY_KIND[entry.kind]
    keys = {param.key for param in spec.params}
    for key in entry.options:
        if key not in keys:
            raise ConfigError(f"{entry.kind} does not accept {key}=", entry.line)
    inherited = {"seed": seed, "cap": cap}
    options = {param.key: _grid_value(entry, param, inherited) for param in spec.params}
    # The grid's spelling of the command line's exclusive --exhaustive | --samples M.
    if options.get("mode") == "exhaustive" and "samples" in entry.options:
        raise ConfigError("samples= needs mode=samples", entry.line)
    return spec.run(options)


def run_grid(entries: list[GridEntry], seed: int = 0, cap: int = DEFAULT_CAP) -> list[VerificationReport]:
    """Execute every entry in order; deterministic for a fixed seed."""
    return [execute_entry(entry, seed=seed, cap=cap) for entry in entries]


DEFAULT_GRID = """\
# Default verification grid: one quick instance of every check kind.
mn lambda=0 n=1 k=1 N=2
mn lambda=1 n=2 k=1 N=4
mn lambda=2,1 n=3 k=1 N=5
thm2 lambda=0 n=2 k=1 N=5 l=1
thm2 lambda=1 n=3 k=1 N=6 l=2
lemma which=1 lambda=1 n=2 N=3
lemma which=2 lambda=0 n=1 k=1 N=2
lemma which=3 lambda=1 n=2 k=1 N=3
involution which=I1 lambda=1 n=2 N=3 mode=exhaustive
involution which=I2 lambda=0 n=1 k=1 N=2 mode=exhaustive
involution which=I3 lambda=1 n=2 k=1 N=3 mode=exhaustive
involution which=I4 lambda=0 n=2 k=1 N=3 l=1 mode=exhaustive
specialize lambda=2,1 n=3 N=4
"""


def default_grid_config() -> str:
    return DEFAULT_GRID
