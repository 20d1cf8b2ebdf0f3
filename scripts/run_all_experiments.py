#!/usr/bin/env python3
"""Run the full experiment battery through the CLI and collect artifacts.

Usage: python3 scripts/run_all_experiments.py [out_dir] [--quick]

--quick shrinks replica counts so the whole battery finishes in well
under a minute; the default settings mirror the acceptance-scale runs.
Each subcommand's wall time goes to stderr as "<seconds> s  ascltlab
<argv>"; stdout holds only the commands and their summary lines.
"""

import sys
import time

from ascltlab.cli import run as cli_run


def main() -> int:
    args = [a for a in sys.argv[1:] if a != "--quick"]
    quick = "--quick" in sys.argv[1:]
    out = args[0] if args else "results"
    reps_char = "100" if quick else "500"
    reps_fluct = "200" if quick else "2000"
    reps_ldp = "2000" if quick else "100000"
    battery = [
        ["check-weights", "--weights", "trig", "--n", "1024", "--r", "511", "--delta", "1"],
        ["asclt", "--family", "rademacher", "--seed", "7",
         "--schedule", "1024:511,4096:2047,16384:8191", "--weights", "trig"],
        ["asclt", "--family", "normal", "--seed", "7",
         "--schedule", "1024:511,4096:2047,16384:8191", "--weights", "trig"],
        ["bivariate", "--family", "rademacher", "--seed", "7", "--schedule", "16384:8191"],
        ["char-decay", "--family", "rademacher", "--seed", "3",
         "--schedule", "128:63,512:255,2048:1023", "--s", "1", "--t", "0",
         "--replicas", reps_char],
        ["clt-fluct", "--family", "rademacher", "--seed", "3", "--n", "4096",
         "--r", "32", "--x", "0", "--replicas", reps_fluct],
        ["ldp", "--family", "rademacher", "--seed", "5", "--n", "4096",
         "--r", "32", "--a", "0.5", "--replicas", reps_ldp],
        ["periodogram", "--family", "rademacher", "--seed", "2", "--n", "16384"],
        ["spectrum", "--ensemble", "symmetric", "--family", "rademacher",
         "--seed", "3", "--n", "4097"],
        ["spectrum", "--ensemble", "reverse", "--family", "rademacher",
         "--seed", "3", "--n", "4097"],
    ]
    for argv in battery:
        print("== ascltlab " + " ".join(argv))
        t0 = time.perf_counter()
        code = cli_run(argv + ["--out-dir", out])
        print(f"{time.perf_counter() - t0:.2f} s  ascltlab " + " ".join(argv), file=sys.stderr)
        if code != 0:
            print(f"FAILED with exit code {code}", file=sys.stderr)
            return code
    print(f"all experiments done, artifacts in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
