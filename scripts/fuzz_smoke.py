#!/usr/bin/env python3
"""CI fuzz gate: random workloads through every path, validated end to end.

Runs the seeded fuzz harness (:mod:`repro.verify.fuzz`): each seed's
random workload is pushed through the batch path (the product planner,
plan cache and warm hint included), the chaos-degraded path, and the
journal kill/replay service path, and every result is checked by the independent
schedule validator (capacity, precedence, conservation, windows, metric
recomputation).

The seed corpus (``--seed-corpus``, JSON ``{"seeds": [...]}``) always
runs first — it pins previously interesting seeds — then fresh seeds are
drawn until the ``--budget`` is spent.  Failing cases are shrunk and
persisted under ``--out-dir`` as self-contained JSON repros (CI uploads
them as artifacts).

Run:  PYTHONPATH=src python scripts/fuzz_smoke.py --budget 60s \\
          --seed-corpus tests/golden/seeds.json
Exits 1 with a diagnostic per failure; 0 when every case validates clean.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.verify.fuzz import FUZZ_PATHS, run_fuzz  # noqa: E402


def parse_budget(text: str) -> float:
    """``"60s"``, ``"2m"``, ``"90"`` -> wall seconds."""
    match = re.fullmatch(r"\s*(\d+(?:\.\d+)?)\s*([smh]?)\s*", text)
    if not match:
        raise argparse.ArgumentTypeError(
            f"bad budget {text!r}; expected e.g. 60s, 2m, 90"
        )
    value = float(match.group(1))
    return value * {"": 1.0, "s": 1.0, "m": 60.0, "h": 3600.0}[match.group(2)]


def load_seed_corpus(path: str | None) -> list[int]:
    if path is None:
        return []
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    seeds = data["seeds"] if isinstance(data, dict) else data
    return [int(seed) for seed in seeds]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--budget",
        type=parse_budget,
        default=parse_budget("60s"),
        help="wall-clock budget, e.g. 60s / 2m (default 60s)",
    )
    parser.add_argument(
        "--seed-corpus",
        default=None,
        help="JSON file of seeds to always run first",
    )
    parser.add_argument(
        "--out-dir",
        default="fuzz-failures",
        help="directory for shrunk failure repros (default fuzz-failures)",
    )
    parser.add_argument(
        "--paths",
        nargs="+",
        default=list(FUZZ_PATHS),
        choices=list(FUZZ_PATHS),
        help="production paths to exercise",
    )
    parser.add_argument(
        "--start-seed",
        type=int,
        default=1000,
        help="first fresh seed after the corpus (default 1000)",
    )
    parser.add_argument(
        "--max-seeds",
        type=int,
        default=None,
        help="optional hard cap on seeds (besides the budget)",
    )
    args = parser.parse_args(argv)

    corpus = load_seed_corpus(args.seed_corpus)
    print(
        f"fuzz-smoke: budget {args.budget:.0f}s, corpus {len(corpus)} seeds, "
        f"paths {'/'.join(args.paths)}"
    )
    result = run_fuzz(
        budget_s=args.budget,
        max_seeds=args.max_seeds,
        corpus_seeds=corpus,
        start_seed=args.start_seed,
        paths=args.paths,
        out_dir=args.out_dir,
        log=print,
    )
    print(result.summary())
    if result.failures:
        for failure in result.failures:
            print(f"FAIL {failure.describe()}", file=sys.stderr)
            for violation in failure.violations[:10]:
                print(f"  {violation}", file=sys.stderr)
        print(f"repros written to {args.out_dir}/", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
