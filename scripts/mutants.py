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
run.  The tier-1 suite checks only that every snippet occurs exactly once
in its module, so a refactor that moves mutated code must update its
entry here.
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


_SOURCES = "tests/test_sources.py::"
MUTANTS = (
    Mutant("byte-signs-bit-order", "sources.py", 'bitorder="little"', 'bitorder="big"',
           (_SOURCES + "test_byte_sign_table_maps_every_byte_bit_by_bit",
            _SOURCES + "test_sample_rows_match_scalar_reference")),
    Mutant("sign-tail-byte", "sources.py", "BYTE_SIGNS[words[:, q], :s]",
           "BYTE_SIGNS[words[:, q - 1], :s]",
           (_SOURCES + "test_prefix_in_blocks_matches_one_block_draw",)),
    Mutant("sign-take-columns", "sources.py", "x[:k.size, 8 * a + 1 : 8 * e + 1]",
           "x[:k.size, 8 * a : 8 * e]",
           (_SOURCES + "test_sample_rows_match_scalar_reference",)),
    Mutant("sign-take-bytes", "sources.py", "words[:, a:e]", "words[:, : e - a]",
           (_SOURCES + "test_prefix_in_blocks_matches_one_block_draw",)),
    Mutant("chunk-key-advance", "sources.py", "k += jg[-1]", "k += jg[0]",
           (_SOURCES + "test_prefix_in_blocks_matches_one_block_draw",)),
    Mutant("grid-below-ties", "experiments.py", "np.greater(v, x, out=hit)",
           "np.greater_equal(v, x, out=hit)",
           ("tests/test_experiments.py::test_grid_cells_are_the_searchsorted_counts",)),
    Mutant("periodogram-unsorted", "spectra.py", "    p.sort()\n", "",
           ("tests/test_golden.py::test_single_path_ops_at_full_size_keep_their_bytes[periodogram]",)),
    Mutant("periodogram-holds-path", "spectra.py", "    del path  # a path", "    # a path",
           ("tests/test_spectra.py::test_periodogram_peaks_at_its_path_and_rfft_output",)),
    Mutant("corner-gap-lower-step", "empirical.py", "np.max(f - g[:-1])", "np.max(f - g[1:])",
           ("tests/test_empirical.py::test_blocked_ks_matches_the_one_pass_reference",)),
    # two runs of replicas need two cores: on one, the runs are one and it survives
    Mutant("replica-part-order", "experiments.py", "for part in parts for",
           "for part in parts[::-1] for",
           ("tests/test_experiments.py::test_replica_map_follows_replica_streams",)),
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
        if not _pytest(tmp, sorted({t for m in chosen for t in m.tests})):
            print("the named tests fail unmutated", file=sys.stderr)
            return 2
        survivors = []
        for m in chosen:
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
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
