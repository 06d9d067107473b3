"""Mutation check: every seeded bug in src/ must be caught by its named tests.

    python3 tools/mutants.py              # run every mutant
    python3 tools/mutants.py NAME ...     # run the named mutants only

Each mutant is one textual replacement in one file of src/resolvendlab,
which must match exactly once.  For each mutant the script copies src/ into
a temporary directory under the working tree, applies the replacement there
and runs only the tests named for it, with the copy first on PYTHONPATH.
A mutant is killed when those tests fail.  Before any mutant, the named
tests must pass on an unmutated copy, or a kill would prove nothing.

Prints one line per mutant and exits 1 if any mutant survives or does not
apply.  This is not part of tier-1: it runs pytest once per mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/resolvendlab
    old: str
    new: str
    tests: tuple  # pytest node ids, relative to the repository root


_ROWS = "tests/test_cyclotomic.py::test_reduction_rows_match_long_division"
_REDUCE = "tests/test_cyclotomic.py::test_reduce_matches_descending_reference"
_ARITH = "tests/test_cyclotomic.py::test_arithmetic_matches_fraction_reference"
_FROM_TERMS = "tests/test_cyclotomic.py::test_from_terms_and_mul_root"
_ROOTS = "tests/test_cyclotomic.py::test_root_of_unity_basics"
_UNBALANCED = "tests/test_cyclotomic.py::test_product_matches_schoolbook_on_unbalanced_widths"
_PADIC_MUL = "tests/test_padic.py::test_mul_and_pow_match_schoolbook"
_PADIC_RING = "tests/test_padic.py::test_ring_axioms_random"
_PACKED_MUL = "tests/test_padic.py::test_packed_product_matches_schoolbook"
_PI_DIGITS = "tests/test_padic.py::test_pi_digits_match_binomial_reference"
_HAND_FOLD = "tests/test_padic.py::test_zeta_power_and_embedding_match_hand_fold"
_EMBED = "tests/test_padic.py::test_embed_cyclo"
_VALUATION = "tests/test_padic.py::test_pi_valuation_matches_per_digit_reference"
_UNPACK_GUARD = "tests/test_padic.py::test_unpack_rejects_a_value_outside_its_slots"
_ROUND_TRIP = "tests/test_padic.py::test_pack_unpack_round_trip"
_COHERENCE = "tests/test_gauss.py::test_backend_coherence"
_RING_POWER = "tests/test_gauss.py::test_ring_power_matches_schoolbook"
_SIGNED_BITS = "tests/test_gauss.py::test_signed_bits_brute_force"
_POWER_SUM = "tests/test_gauss.py::test_power_sum_matches_schoolbook"
_GAUSS_PADIC = "tests/test_gauss.py::test_gauss_padic_matches_definition"
_TRANSFORM = "tests/test_groupring.py::test_transform_of_group_element_is_character_value"
_INVERSE = "tests/test_groupring.py::test_inverse_transform_examples"
_ROUNDTRIP = "tests/test_groupring.py::test_transform_roundtrip"
_KEYS = "tests/test_groupring.py::test_containers_reject_the_other_key_domain"
_SCALAR_LCM = "tests/test_groupring.py::test_scalar_of_another_conductor_mul"
_POINTWISE_LCM = "tests/test_groupring.py::test_pointwise_mul_lives_over_the_lcm_conductor"
_CONVOLUTION = "tests/test_groupring.py::test_convolution_diagonalization"
_RING_PRODUCT = "tests/test_groupring.py::test_ring_product_matches_per_pair_reference"
_KERNEL = "tests/test_groupring.py::test_kernel_matches_character_table_route"
_RING_DIVISOR = (
    "tests/test_groupring.py::"
    "test_ring_product_of_divisor_conductor_values_matches_per_pair_reference"
)
_RESOLVENT_2N = "tests/test_groupring.py::test_resolvent_matches_transform_at_twice_the_exponent"
_MUL_TABLE = "tests/test_groupring.py::test_mul_table_matches_the_group_law"
_MEMO = "tests/test_groupring.py::test_transform_memo_belongs_to_its_element"
_NONUNITS = "tests/test_groupring.py::test_reduced_equal_rejects_nonunits"
_MUL_ROWS = "tests/test_cyclotomic.py::test_mul_rows_match_product"
_PHI_PRODUCT = "tests/test_cyclotomic.py::test_cyclotomic_polynomials_multiply_to_x_m_minus_1"
_TRANSPOSE_GROUP = (
    "tests/test_stickelberger.py::test_transpose_apply_rejects_a_character_of_another_group"
)
_TRANSPOSE_INT = "tests/test_stickelberger.py::test_transpose_apply_integral_exponents"
_TRANSPOSE_MUL = "tests/test_stickelberger.py::test_transpose_apply_multiplicative"
_UNION = "tests/test_cli.py::test_all_is_the_union_of_the_single_suites"
_CONFIG_FIRST = "tests/test_cli.py::test_every_config_is_checked_before_any_row"
_SHARE_BYTES = "tests/test_gauss.py::test_report_bytes_do_not_depend_on_the_share_count"
_SHARE_ERROR = "tests/test_gauss.py::test_an_error_in_any_share_comes_back_unchanged"
_ODD_PRIME = "tests/test_numutil.py::test_odd_prime_entry_points_reject"
_SCALARS = "tests/test_cyclotomic.py::test_field_scalars_have_one_owner"
_CONTAINER_CONDUCTOR = (
    "tests/test_groupring.py::test_every_value_lives_at_its_container_conductor"
)
_PAIRING_ROW = "tests/test_stickelberger.py::test_pairing_row_matches_pairing"
_MAP_SUM = "tests/test_stickelberger.py::test_stickelberger_map_matches_fraction_sum"
_MERGE = "tests/test_stickelberger.py::test_combinations_merge_and_cancel"
_CANONICAL = "tests/test_abelian.py::test_constructed_values_are_the_enumerated_ones"
_SUMMAND = "tests/test_wildsym.py::test_build_alpha_p7_summand"
_RESOLVENT = "tests/test_wildsym.py::test_resolvent_at"
_CONJUGATE = "tests/test_wildsym.py::test_conjugate_check"
_MONO_CANONICAL = "tests/test_wildsym.py::test_monomials_are_canonical"
_PRODUCT_TAGS = "tests/test_wildsym.py::test_product_contexts_tag_each_family"
_PAIR_ZERO = (
    "tests/test_groupring.py::"
    "test_unit_pair_check_sees_a_zero_at_a_self_inverse_character"
)
_MAP_CHECKED = (
    "tests/test_stickelberger.py::test_stickelberger_map_is_its_checked_combination"
)
_DET_LOOP = "tests/test_stickelberger.py::test_det_map_matches_per_character_loop"
_PERMUTE_UNIT = "tests/test_stickelberger.py::test_permute_powers_rejects_a_non_unit"
_TRUSTED = "tests/test_stickelberger.py::test_trusted_results_match_the_checked_constructor"
_WILD_TRUSTED = "tests/test_wildsym.py::test_actions_match_the_checked_constructor"

MUTANTS = (
    Mutant(
        "rows-index-off-by-one",
        "cyclotomic.py",
        "col = [0] + col[:-1]",
        "col = [0, 0] + col[:-2]",
        (_ROWS, _FROM_TERMS),
    ),
    Mutant(
        "rows-sign-flipped",
        "cyclotomic.py",
        "col[i] += top * t",
        "col[i] -= top * t",
        (_ROWS, _REDUCE),
    ),
    Mutant(
        "rows-one-skipped",
        "cyclotomic.py",
        "for _ in range(phi + 1, m):",
        "for _ in range(phi + 2, m):",
        (_ROWS, _ARITH),
    ),
    Mutant(
        "from-terms-wrong-row",
        "cyclotomic.py",
        "for i, t in rows[e - phi]:",
        "for i, t in rows[e - phi - 1]:",
        (_FROM_TERMS, _ROOTS),
    ),
    Mutant(
        "reduce-fold-dropped",
        "cyclotomic.py",
        "e %= m",
        "e = e",
        (_REDUCE, _ARITH),
    ),
    Mutant(
        "reduce-bucket-overwrites",
        "cyclotomic.py",
        "high[e] = high.get(e, 0) + c",
        "high[e] = c",
        (_REDUCE, _ARITH),
    ),
    Mutant(
        "product-operand-rotated",
        "cyclotomic.py",
        "sum(map(operator.mul, r, a.num))",
        "sum(map(operator.mul, r, a.num[1:] + a.num[:1]))",
        (_ARITH, _UNBALANCED),
    ),
    Mutant(
        "padic-make-unreduced",
        "padic.py",
        "x.coeffs = tuple([c % modulus for c in coeffs])",
        "x.coeffs = tuple(coeffs)",
        (_PADIC_MUL, _PADIC_RING),
    ),
    Mutant(
        "padic-fold-dropped",
        "padic.py",
        "z = (z & mask) + (z >> bits)",
        "z = z & mask",
        (_PACKED_MUL,),
    ),
    Mutant(
        "padic-top-kept",
        "padic.py",
        "[c - top for c in low]",
        "low",
        (_PACKED_MUL,),
    ),
    Mutant(
        "pi-valuation-level-off",
        "padic.py",
        "v = 0\n    while g % p == 0:",
        "v = 1\n    while g % p == 0:",
        (_VALUATION,),
    ),
    Mutant(
        "unpack-overflow-unchecked",
        "padic.py",
        "if x < 0 or x >> (w * length):",
        "if False:",
        (_UNPACK_GUARD,),
    ),
    Mutant(
        "unpack-long-slots-shifted",
        "padic.py",
        "for i in range(0, len(raw), nbytes)]",
        "for i in range(nbytes, len(raw) + nbytes, nbytes)]",
        (_ROUND_TRIP,),
    ),
    Mutant(
        "gauss-padic-top-dropped",
        "gauss.py",
        "top = c[-1]",
        "top = 0",
        (_COHERENCE, _GAUSS_PADIC),
    ),
    Mutant(
        "pi-digits-shift-at-B",
        "padic.py",
        "acc = (acc << w) + acc + c",
        "acc = (acc << w) + c",
        (_PI_DIGITS,),
    ),
    Mutant(
        "pi-digits-slot-short",
        "padic.py",
        "<< (self.p - 1)).bit_length() // 8 + 1",
        "<< (self.p - 1)).bit_length() // 8",
        (_PI_DIGITS,),
    ),
    Mutant(
        "embed-slot-sign-dropped",
        "padic.py",
        "omega[e % (p - 1)], -e)",
        "omega[e % (p - 1)], e)",
        (_HAND_FOLD, _EMBED),
    ),
    Mutant(
        "rows-first-skipped",
        "cyclotomic.py",
        "return tuple(rows)",
        "return tuple(rows[1:])",
        (_ROWS, _FROM_TERMS),
    ),
    Mutant(
        "transform-sign-flipped",
        "groupring.py",
        "w = n // d * gap",
        "w = -n // d * gap",
        (_TRANSFORM, _KERNEL),
    ),
    Mutant(
        "dft-rotation-reversed",
        "groupring.py",
        "(m - w * s * t) % (2 * m)",
        "(m + w * s * t) % (2 * m)",
        (_TRANSFORM, _KERNEL),
    ),
    Mutant(
        "dft-crt-multiplier-wrong",
        "groupring.py",
        "gap * pow(gap, -1, q)",
        "gap",
        (_TRANSFORM, _KERNEL),
    ),
    Mutant(
        "dft-rotation-wrap-unsigned",
        "groupring.py",
        "(lambda v: [-c for c in v])",
        "(lambda v: v)",
        (_TRANSFORM, _KERNEL),
    ),
    Mutant(
        "sums-step-dropped",
        "groupring.py",
        "+ step * e)",
        "+ e)",
        (_RESOLVENT_2N,),
    ),
    Mutant(
        "inverse-den-scale-dropped",
        "groupring.py",
        "_dft(phi, group.order)",
        "_dft(phi, 1)",
        (_INVERSE, _KERNEL),
    ),
    Mutant(
        "resolvent-sign-flipped",
        "groupring.py",
        "row = [-e for e in char_table(group)[chi.index]]",
        "row = char_table(group)[chi.index]",
        (_ROUNDTRIP,),
    ),
    Mutant(
        "vector-keyed-by-elements",
        "groupring.py",
        "_keys = staticmethod(dual_enumerate)",
        "_keys = staticmethod(FiniteAbelianGroup.elements)",
        (_KEYS, _INVERSE),
    ),
    Mutant(
        "container-conductor-dropped",
        "groupring.py",
        "lcm(self.conductor, conductor)",
        "self.conductor",
        (_POINTWISE_LCM, _SCALAR_LCM),
    ),
    Mutant(
        "ring-product-slot-inverted",
        "groupring.py",
        "st = row[k]",
        "st = row[-k]",
        (_CONVOLUTION,),
    ),
    Mutant(
        "mul-table-inverts-left",
        "abelian.py",
        "(a + b) % d * size + t",
        "(b - a) % d * size + t",
        (_MUL_TABLE, _CONVOLUTION),
    ),
    Mutant(
        "unit-check-reads-wrong-transform",
        "groupring.py",
        "not is_unit(r1) or not is_unit(r2)",
        "not is_unit(r1) or not is_unit(r1)",
        (_NONUNITS,),
    ),
    Mutant(
        "transform-memo-shared-by-shift",
        "groupring.py",
        "return self._build(1, dict(zip([elements[k] for k in row], self.values.values())))",
        "out = self._build(1, dict(zip([elements[k] for k in row], self.values.values())))\n"
        "            out._transform = transform(self)\n"
        "            return out",
        (_MEMO,),
    ),
    Mutant(
        "ring-lift-own-den",
        "groupring.py",
        "[c * (den // v.den) for c in v.num]",
        "list(v.num)",
        (_RING_PRODUCT, _KERNEL),
    ),
    Mutant(
        "ring-lift-unraised",
        "groupring.py",
        "(v.raise_conductor(n) for v in values)",
        "iter(values)",
        (_RING_DIVISOR,),
    ),
    Mutant(
        "ring-scale-one-side",
        "groupring.py",
        "den = da * db",
        "den = da",
        (_RING_PRODUCT,),
    ),
    Mutant(
        "ring-matrix-transposed",
        "cyclotomic.py",
        "return tuple(zip(*cols))",
        "return tuple(cols)",
        (_MUL_ROWS,),
    ),
    Mutant(
        "phi-mobius-parity-swapped",
        "cyclotomic.py",
        "if mu == 1]\n    over = [m // e for e, mu in mobius if mu == -1]",
        "if mu == -1]\n    over = [m // e for e, mu in mobius if mu == 1]",
        (_PHI_PRODUCT,),
    ),
    Mutant(
        "transpose-group-unchecked",
        "stickelberger.py",
        "if psi.group is not g.group:",
        "if False:",
        (_TRANSPOSE_GROUP,),
    ),
    Mutant(
        "transpose-integer-power-dropped",
        "stickelberger.py",
        "v ** int(q)",
        "v",
        (_TRANSPOSE_INT, _TRANSPOSE_MUL),
    ),
    Mutant(
        "runner-one-suite-stamp",
        "suites.py",
        "ReportRecord(name, *row)",
        "ReportRecord(names[0], *row)",
        (_UNION,),
    ),
    Mutant(
        "runner-lazy-streams",
        "suites.py",
        "streams = [(name, SUITES[name](config)) for name in names]",
        "streams = ((name, SUITES[name](config)) for name in names)",
        (_CONFIG_FIRST,),
    ),
    Mutant(
        "gauss-share-dropped",
        "suites.py",
        "for _, pipe in children:",
        "for _, pipe in children[:-1]:",
        (_SHARE_BYTES,),
    ),
    Mutant(
        "gauss-child-error-swallowed",
        "suites.py",
        "raise error",
        "rows = ()",
        (_SHARE_ERROR,),
    ),
    Mutant(
        "odd-prime-admits-two",
        "numutil.py",
        "if not is_odd_prime(p):",
        "if not is_prime(p):",
        (_ODD_PRIME,),
    ),
    Mutant(
        "as-cyclo-divisibility-flipped",
        "cyclotomic.py",
        "if conductor % value.conductor:",
        "if value.conductor % conductor:",
        (_SCALARS,),
    ),
    Mutant(
        "as-cyclo-keeps-own-conductor",
        "cyclotomic.py",
        "return value.raise_conductor(conductor)",
        "return value",
        (_CONTAINER_CONDUCTOR,),
    ),
    Mutant(
        "pairing-row-wrong-character",
        "stickelberger.py",
        "int(pairing(chi, s) *",
        "int(pairing(chi.inverse(), s) *",
        (_PAIRING_ROW, _MAP_SUM),
    ),
    Mutant(
        "pairing-row-order-scale",
        "stickelberger.py",
        "pairing(chi, s) * group.exponent",
        "pairing(chi, s) * group.order",
        (_PAIRING_ROW, _MAP_SUM),
    ),
    Mutant(
        "combination-merge-overwrites",
        "stickelberger.py",
        "clean[k] = clean[k] + c if k in clean else c",
        "clean[k] = c",
        (_MERGE,),
    ),
    Mutant(
        "combination-keeps-zeros",
        "stickelberger.py",
        "self.coeffs = {k: c for k, c in clean.items() if c}",
        "self.coeffs = clean",
        (_MERGE,),
    ),
    Mutant(
        "map-keeps-zero-totals",
        "stickelberger.py",
        "if t:\n            out[s] = _fraction(t, m)",
        "if True:\n            out[s] = _fraction(t, m)",
        (_MAP_CHECKED,),
    ),
    Mutant(
        "map-column-shift",
        "stickelberger.py",
        "zip(group.elements(), columns)",
        "zip(group.elements()[1:] + group.elements()[:1], columns)",
        (_MAP_SUM,),
    ),
    Mutant(
        "det-map-column-shift",
        "stickelberger.py",
        "sum(map(operator.mul, ns, col)) for col in columns]",
        "sum(map(operator.mul, ns[1:] + ns[:1], col)) for col in columns]",
        (_DET_LOOP,),
    ),
    Mutant(
        "permute-powers-unchecked",
        "stickelberger.py",
        "_check_unit(operator.index(e), self.group)",
        "operator.index(e)",
        (_PERMUTE_UNIT,),
    ),
    Mutant(
        "permute-powers-unpermuted",
        "stickelberger.py",
        "{s**e: q for s, q in self.coeffs.items()}",
        "{s: q for s, q in self.coeffs.items()}",
        (_TRUSTED,),
    ),
    Mutant(
        "wild-omega-unpermuted",
        "wildsym.py",
        "out[omega_monomial(j, mono, p)] = galois_map(j, coeff)",
        "out[mono] = galois_map(j, coeff)",
        (_WILD_TRUSTED,),
    ),
    Mutant(
        "ring-width-byte-short",
        "gauss.py",
        "return 8 * (w - 1) + max(",
        "return 8 * (w - 2) + max(",
        (_SIGNED_BITS, _RING_POWER),
    ),
    Mutant(
        "ring-row-sign-flipped",
        "gauss.py",
        "d += r * high[q - phi]",
        "d -= r * high[q - phi]",
        (_RING_POWER, _POWER_SUM),
    ),
    Mutant(
        "ring-sign-fill-skipped",
        "gauss.py",
        "out[i::w] = sign",
        "out[i::w] = bytes(L)",
        (_RING_POWER,),
    ),
    Mutant(
        "coord-digit-unreduced",
        "abelian.py",
        "index = index * d + operator.index(c) % d",
        "index = index * d + operator.index(c)",
        (_CANONICAL,),
    ),
    Mutant(
        "coord-radix-reversed",
        "abelian.py",
        "for c, d in zip(coords, factors):",
        "for c, d in zip(coords[::-1], factors[::-1]):",
        (_CANONICAL,),
    ),
    Mutant(
        "wild-summand-uninverted",
        "wildsym.py",
        "c_of(u * k, p)",
        "c_of(i * k, p)",
        (_SUMMAND,),
    ),
    Mutant(
        "wild-orbit-index-flipped",
        "wildsym.py",
        "orbit_sums[(w - k) % p]",
        "orbit_sums[(w + k) % p]",
        (_RESOLVENT,),
    ),
    Mutant(
        "wild-conjugate-uses-d-inv",
        "wildsym.py",
        "operator.index(k) * ctx.d",
        "operator.index(k) * ctx.d_inv",
        (_CONJUGATE,),
    ),
    Mutant(
        "wild-intern-raw-exponents",
        "wildsym.py",
        "return _MONOMIALS.setdefault(canon, mono)",
        "return _MONOMIALS.setdefault(tuple(items), mono)",
        (_MONO_CANONICAL,),
    ),
    Mutant(
        "wild-product-tag-dropped",
        "wildsym.py",
        "WildContext(p, n, tag=idx)",
        "WildContext(p, n)",
        (_PRODUCT_TAGS,),
    ),
    Mutant(
        "pair-check-skips-self-inverse",
        "groupring.py",
        "if inv.index < chi.index:",
        "if inv.index <= chi.index:",
        (_PAIR_ZERO,),
    ),
)


def _copy_src(into):
    src = os.path.join(into, "src")
    shutil.copytree(
        os.path.join(ROOT, "src"), src, ignore=shutil.ignore_patterns("__pycache__")
    )
    return src


def _pytest(src, tests):
    """pytest's exit code on tests: 0 when all pass, 4 when one is not found."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True).returncode


def _apply(src, mutant):
    path = os.path.join(src, "resolvendlab", mutant.file)
    with open(path) as fh:
        text = fh.read()
    if text.count(mutant.old) != 1:
        return False
    with open(path, "w") as fh:
        fh.write(text.replace(mutant.old, mutant.new))
    return True


def main(names):
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print("unknown mutants: %s" % ", ".join(sorted(unknown)), file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".mutants-") as tmp:
        src = _copy_src(os.path.join(tmp, "clean"))
        tests = sorted({t for m in chosen for t in m.tests})
        if _pytest(src, tests):
            print("named tests that fail without a mutant:", file=sys.stderr)
            for test in tests:
                code = _pytest(src, [test])
                if code:
                    why = "not found" if code == 4 else "fails"
                    print("  %s (%s)" % (test, why), file=sys.stderr)
            return 2
        bad = 0
        for i, mutant in enumerate(chosen):
            src = _copy_src(os.path.join(tmp, str(i)))
            if not _apply(src, mutant):
                verdict = "does not apply"
            elif not _pytest(src, mutant.tests):
                verdict = "SURVIVED"
            else:
                verdict = "killed"
            bad += verdict != "killed"
            print("%-30s %s" % (mutant.name, verdict), flush=True)
    print("%d of %d mutants killed" % (len(chosen) - bad, len(chosen)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
