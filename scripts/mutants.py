#!/usr/bin/env python3
"""Mutation battery: small faults planted in the package, each of which
named tests must catch.

Usage: python3 scripts/mutants.py [name ...]

Each entry of MUTANTS swaps one exact snippet of a module of
src/ascltlab for a replacement.  The script copies src/, tests/ and
pyproject.toml to a temporary directory, runs the named tests of all
chosen mutants there once unmutated (they must pass), then applies one
mutant at a time and runs only its tests (pytest -x -q).  A mutant whose
tests fail is killed; one whose tests pass survived, and the script then
exits 1 (2 if the unmutated tests fail).  With names, only those mutants
run.  A mutant marked equivalent, with the reason no test can tell it
from the code, is reported and not run, and never counts as a survivor.
The tier-1 suite checks only that every snippet occurs exactly once in
its module, and that every equivalent mutant gives its reason, so a
refactor that moves mutated code must update its entry here.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    module: str  # file name under src/ascltlab
    snippet: str  # occurs exactly once in the module
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root
    equivalent: str = ""  # why no test can kill it; such a mutant is not run


_SOURCES = "tests/test_sources.py::"
_EMPIRICAL = "tests/test_empirical.py::"
_EXPERIMENTS = "tests/test_experiments.py::"
_TRANSFORM = "tests/test_transform.py::"
_SPECTRA = "tests/test_spectra.py::"
_CLI = "tests/test_cli.py::"
_HASH = "_mix64(np.add(keys[:, None], wg, out=t), z)"  # rademacher sign words
_WORDS = _HASH + ".view(np.uint8)"
MUTANTS = (
    Mutant("byte-signs-bit-order", "sources.py", 'bitorder="little"', 'bitorder="big"',
           (_SOURCES + "test_byte_sign_table_maps_every_byte_bit_by_bit",
            _SOURCES + "test_sample_rows_match_scalar_reference")),
    Mutant("sign-tail-byte", "sources.py", "BYTE_SIGNS[words[:, q], :s]",
           "BYTE_SIGNS[words[:, q - 1], :s]",
           (_SOURCES + "test_prefix_in_blocks_matches_one_block_draw",)),
    # the sign words as hashed, with bits forced or paired.  The KS laws and
    # char-decay's are unchanged under x -> -x, so they cannot tell one fixed
    # sign per byte; nor, as run, can bivariate's, which does fail bit 0 set
    Mutant("sign-word-bit-0-set", "sources.py", _WORDS, f"({_HASH} | np.uint64(1)).view(np.uint8)",
           (_SOURCES + "test_rademacher_pair_frequencies_and_bit_balance",
            _EXPERIMENTS + "test_ldp_rademacher_hits_match_the_exact_law",
            _EXPERIMENTS + "test_clt_fluctuation_rademacher_matches_the_exact_law",
            _EXPERIMENTS + "test_bivariate_deviation_follows_the_exact_law")),
    Mutant("sign-word-bit-63-set", "sources.py", _WORDS,
           f"({_HASH} | np.uint64(1 << 63)).view(np.uint8)",
           (_SOURCES + "test_rademacher_pair_frequencies_and_bit_balance",)),
    Mutant("sign-one-fixed-per-byte", "sources.py", _WORDS, _WORDS + " & np.uint8(0xEF)",
           (_SOURCES + "test_rademacher_pair_frequencies_and_bit_balance",
            _EXPERIMENTS + "test_ldp_rademacher_hits_match_the_exact_law",
            _EXPERIMENTS + "test_clt_fluctuation_rademacher_matches_the_exact_law")),
    Mutant("sign-two-fixed-per-byte", "sources.py", _WORDS, _WORDS + " & np.uint8(0xE7)",
           (_SOURCES + "test_rademacher_pair_frequencies_and_bit_balance",
            _EXPERIMENTS + "test_asclt_and_periodogram_ks_follow_the_exact_law",
            _SPECTRA + "test_symmetric_ks_follows_the_exact_law")),
    Mutant("sign-pairs-equal", "sources.py", _WORDS, f"({_WORDS} & np.uint8(0x55)) * np.uint8(3)",
           (_SOURCES + "test_rademacher_pair_frequencies_and_bit_balance",
            _EXPERIMENTS + "test_asclt_and_periodogram_ks_follow_the_exact_law",
            _SPECTRA + "test_symmetric_ks_follows_the_exact_law")),
    Mutant("sign-take-columns", "sources.py", "x[:k.size, 8 * a + 1 : 8 * e + 1]",
           "x[:k.size, 8 * a : 8 * e]",
           (_SOURCES + "test_sample_rows_match_scalar_reference",)),
    Mutant("sign-take-bytes", "sources.py", "words[:, a:e]", "words[:, : e - a]",
           (_SOURCES + "test_prefix_in_blocks_matches_one_block_draw",)),
    Mutant("chunk-key-advance", "sources.py", "k += jg[-1]", "k += jg[0]",
           (_SOURCES + "test_prefix_in_blocks_matches_one_block_draw",)),
    Mutant("stream-key-offset", "sources.py", "np.arange(lo, hi, dtype=np.uint64)",
           "np.arange(lo + 1, hi + 1, dtype=np.uint64)",
           (_SOURCES + "test_sample_rows_match_scalar_reference",)),
    Mutant("finite-last-slice", "__init__.py", "range(0, len(v), step)",
           "range(0, len(v) - step, step)",
           ("tests/test_finite.py::test_finite_refuses_a_non_finite_value_at_any_slot",)),
    Mutant("wrap-slot", "transform.py", "x[..., 0] = x[..., n]", "x[..., 0] = x[..., n - 1]",
           (_TRANSFORM + "test_wrap_slot_matches_the_rotated_copy_bit_for_bit",)),
    # the one path of asclt, bivariate, the periodogram and the reverse
    # spectrum: held past its last transform, a point's sums held through
    # the next one, and every stretch read from X_1
    Mutant("along-path-holds-path", "transform.py", "del path  # the last transform",
           "pass  # the last transform",
           (_EXPERIMENTS + "test_one_path_harness_peaks_under_22n_bytes[asclt]",
            _EXPERIMENTS + "test_one_path_harness_peaks_under_22n_bytes[bivariate]",
            _SPECTRA + "test_periodogram_peaks_at_its_path_and_rfft_output",
            _SPECTRA + "test_reverse_circulant_memory_bounded")),
    Mutant("along-path-holds-sums", "transform.py", "del s, t  # a point's sums",
           "pass  # a point's sums",
           (_EXPERIMENTS + "test_one_path_harness_peaks_under_22n_bytes[bivariate-two-points]",)),
    Mutant("along-path-stretch-from-start", "transform.py", "        done = n\n", "",
           (_EXPERIMENTS + "test_fixed_path_is_sampled_once[asclt_trajectory]",
            _TRANSFORM + "test_along_path_reads_each_stretch_before_its_point")),
    Mutant("mean-weights-unrotated", "transform.py", "np.roll(d, -1) *", "d *",
           (_TRANSFORM + "test_mean_partial_sum_matches_reference",)),
    Mutant("mean-kernel-cap", "transform.py", "<= _BYTE_TABLE_BYTES", "< _BYTE_TABLE_BYTES",
           (_TRANSFORM + "test_mean_kernel_packs_rademacher_while_the_byte_table_fits",)),
    Mutant("byte-table-shifted", "transform.py", "cw[: c.size] = c", "cw[: c.size - 1] = c[1:]",
           (_TRANSFORM + "test_byte_table_means_match_the_float_signs",
            _EXPERIMENTS + "test_ldp_rademacher_hits_match_the_exact_law")),
    Mutant("log-scale-exponent", "weights.py", "math.log1p(r) ** (1.0 + delta)",
           "math.log1p(r) ** delta",
           (_CLI + "test_both_check_weights_kinds_share_their_nine_columns",
            "tests/test_weights.py::test_check_conditions_trig_n8")),
    Mutant("column-sums-divisor-order", "weights.py", "for d in sorted({*low, *(n // d for d in low)}):",
           "for d in sorted({*low, *(n // d for d in low)}, reverse=True):",
           ("tests/test_weights.py::test_trig_column_sums_match_fsum",)),
    Mutant("ozaki-beta-8", "accum.py", "_split_rows(a, beta)", "_split_rows(a, beta - 8)",
           ("tests/test_accum.py::test_random_matches_exact",
            "tests/test_accum.py::test_cancellation_that_plain_blas_loses")),
    Mutant("grid-below-ties", "experiments.py", "np.greater(v, x, out=hit)",
           "np.greater_equal(v, x, out=hit)",
           (_EXPERIMENTS + "test_grid_cells_are_the_searchsorted_counts",)),
    Mutant("bivariate-s-on-both-axes", "experiments.py",
           "cells += _grid_below(t[lo : lo + BLOCK])", "cells += _grid_below(s[lo : lo + BLOCK])",
           (_EXPERIMENTS + "test_bivariate_deviation_follows_the_exact_law",)),
    Mutant("char-decay-phase-reads-t", "experiments.py", "s * ss + t * tt", "s * tt + t * tt",
           (_EXPERIMENTS + "test_char_decay_rademacher_matches_the_exact_law",)),
    Mutant("zero-rate-signed", "experiments.py", "/ r + 0.0 if", "/ r if",
           (_CLI + "test_a_zero_rate_is_written_without_a_sign",)),
    Mutant("rate-lo-from-p-lo", "experiments.py", '"rate_lo": _rate(p_hi, r)',
           '"rate_lo": _rate(p_lo, r)',
           (_CLI + "test_a_zero_rate_is_written_without_a_sign",)),
    # two runs of replicas need two cores: on one, the runs are one and it survives
    Mutant("replica-part-order", "experiments.py", "for part in parts for",
           "for part in parts[::-1] for",
           (_EXPERIMENTS + "test_replica_map_follows_replica_streams",)),
    Mutant("symmetric-holds-input", "spectra.py", "    del c  # freed before the KS\n", "",
           (_SPECTRA + "test_symmetric_circulant_memory_bounded",)),
    Mutant("irfft-input-late", "spectra.py", "sample_prefix(spec, n // 2 + 1)",
           "sample_prefix(spec, n // 2 + 2)[1:]",
           (_SPECTRA + "test_symmetric_spectrum_near_complex_dft",)),
    Mutant("symmetric-mirror-late", "spectra.py", "= vals[1 : (n + 1) // 2]",
           "= vals[2 : (n + 1) // 2 + 1]",
           (_SPECTRA + "test_symmetric_pairs_bit_equal",
            _SPECTRA + "test_symmetric_ks_follows_the_exact_law")),
    Mutant("reverse-unreversed", "spectra.py", "np.negative(m[::-1],", "np.negative(m,",
           (_SPECTRA + "test_reverse_circulant_symmetry_and_exceptional",)),
    Mutant("artifacts-left-on-failure", "cli.py", "            os.remove(path)", "            pass",
           (_CLI + "test_a_run_that_fails_while_writing_leaves_no_artifact",)),
    Mutant("run-handler-narrowed", "cli.py", "    except Exception as exc:",
           "    except (OSError, ValueError) as exc:",
           (_CLI + "test_a_run_that_fails_while_writing_leaves_no_artifact[RuntimeError]",)),
    Mutant("reverse-unchecked", "spectra.py", '    finite(m[-1:], "eigenvalues")\n', "",
           (_SPECTRA + "test_reverse_circulant_refuses_an_overflowing_eigenvalue",)),
    Mutant("ks-unsorted", "empirical.py", "    v.sort()\n", "",
           (_EMPIRICAL + "test_blocked_ks_matches_the_one_pass_reference",
            "tests/test_golden.py::test_single_path_ops_at_full_size_keep_their_bytes[periodogram]")),
    Mutant("ks-top-unchecked", "empirical.py", "finite(v[[0, -1]]", "finite(v[[0]]",
           (_EMPIRICAL + "test_measure_validation",)),
    Mutant("corner-gap-lower-step", "empirical.py", "np.max(f - g[:-1])", "np.max(f - g[1:])",
           (_EMPIRICAL + "test_blocked_ks_matches_the_one_pass_reference",)),
    Mutant("ks-tau-zero", "empirical.py", "TAU = 2.0**-40", "TAU = 0.0",
           (_EMPIRICAL + "test_ks_slack_covers_a_dip_of_the_cdf_inside_its_envelope",)),
    Mutant("ks-keep-strict", "empirical.py", "np.greater_equal(bounds, best - TAU",
           "np.greater(bounds, best - TAU", (),
           equivalent="the span that holds E has B >= E > E - TAU, and a span whose B is "
           "exactly E - TAU holds no gap above E, within the 2^-48 envelope TAU covers"),
)


def _pytest(cwd: Path, tests) -> bool:
    """Whether the tests pass in the copy at cwd."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # no stale bytecode of a mutant
    proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *tests], cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    return proc.returncode == 0


def main() -> int:
    chosen = [m for m in MUTANTS if not sys.argv[1:] or m.name in sys.argv[1:]]
    unknown = set(sys.argv[1:]) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tmp / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        tests = sorted({t for m in chosen for t in m.tests})  # none if all are equivalent
        if tests and not _pytest(tmp, tests):
            print("the named tests fail unmutated", file=sys.stderr)
            return 2
        survivors, equivalent = [], 0
        for m in chosen:
            if m.equivalent:
                print(f"{'equiv':8}  {'':7}  {m.name}: {m.equivalent}")
                equivalent += 1
                continue
            path = tmp / "src" / "ascltlab" / m.module
            original = path.read_text(encoding="utf-8")
            assert original.count(m.snippet) == 1, m.name
            path.write_text(original.replace(m.snippet, m.replacement), encoding="utf-8")
            start = time.perf_counter()
            killed = not _pytest(tmp, m.tests)
            path.write_text(original, encoding="utf-8")
            print(f"{'killed' if killed else 'SURVIVED':8}  {time.perf_counter() - start:5.1f} s  "
                  f"{m.name}")
            if not killed:
                survivors.append(m.name)
    print(f"{len(chosen) - equivalent - len(survivors)} of {len(chosen) - equivalent} mutants "
          f"killed, {equivalent} equivalent")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
