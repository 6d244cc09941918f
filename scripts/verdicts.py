"""Print the verifier's verdict for the first candidates of every bundled
program, one JSON line per (program, candidate, fast) triple.

Each line holds the status, the instance and VC counts and the
counterexample's JSON form, so two checkouts can be compared with diff:

    PYTHONPATH=src python3 scripts/verdicts.py [--first N] [--rel-bound N] [NAME ...]

With no NAME every bundled program is checked. --rel-bound sets the largest
relation size the verifier enumerates (default 3), as `qilc synth
--rel-bound` does; the int and text domains stay the defaults.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from qilc import benchmarks_dir, frontend, synth, verify


def verdict_lines(names=(), first=60, bounds=verify.Bounds(), fasts=(True, False)):
    """The JSON lines main prints, in order; fasts picks the checkers."""
    for path in sorted(benchmarks_dir().glob("*.qil")):
        if names and path.stem not in names:
            continue
        tp = frontend.typecheck(frontend.parse(path.read_text(encoding="utf-8")))
        cands = synth.enumerate_candidates(tp, synth.extract_template(tp), 24)
        for n, cand in enumerate(itertools.islice(cands, first)):
            inv = synth.derive_invariants(tp, cand)
            for fast in fasts:
                res = verify.validate(tp, cand, inv, bounds, fast=fast)
                cex = res.counterexample
                line = {
                    "program": path.stem,
                    "candidate": n,
                    "fast": fast,
                    "status": res.status,
                    "instances": res.instances,
                    "vcs": res.vcs,
                    "counterexample": None if cex is None else cex.to_json(),
                }
                yield json.dumps(line, sort_keys=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--first", type=int, default=60, metavar="N")
    ap.add_argument(
        "--rel-bound", type=int, default=verify.Bounds().rel_size, metavar="N"
    )
    ap.add_argument("names", nargs="*", metavar="NAME")
    args = ap.parse_args(argv)
    bounds = verify.Bounds(rel_size=args.rel_bound)
    for line in verdict_lines(args.names, args.first, bounds):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
