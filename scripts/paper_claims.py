#!/usr/bin/env python3
"""Run every paper claim, record it, and check the record.

Each claim of ``benchmarks/claims.py`` (FIG1/4/5/6/7 and EXT-1..12) runs
once.  Its rows, its timing columns and a verdict go to PAPER_CLAIMS.json,
and EXPERIMENTS.md's measured blocks (the lines between
``<!-- claim:NAME -->`` and ``<!-- /claim -->``) are rendered from that
record; the prose around them is left alone:

    PYTHONPATH=src python scripts/paper_claims.py          # run, write both
    PYTHONPATH=src python scripts/paper_claims.py --check  # run, write nothing

``--check`` exits 1 when a claim's check fails, when a deterministic row
drifts from PAPER_CLAIMS.json (counts, flags and labels exactly, floats to
a relative 1e-6 with a 1e-9 absolute floor; a timing is held only to its
claim's budget), or when EXPERIMENTS.md differs from what PAPER_CLAIMS.json
renders.  Without it the script writes both files and exits 1 when a check
fails.  The whole set takes about two minutes on a 2-vCPU VM.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.claims import CLAIMS, Claim  # noqa: E402

RECORD = ROOT / "PAPER_CLAIMS.json"
EXPERIMENTS = ROOT / "EXPERIMENTS.md"
BLOCK = re.compile(r"(<!-- claim:(?P<name>[\w-]+) -->\n).*?(<!-- /claim -->)", re.S)


def _plain(value):
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"{type(value).__name__} is not plain data")


def run_claim(claim: Claim) -> dict:
    """The claim's record: verdict, timing columns and rows as plain JSON."""
    rows = json.loads(json.dumps(claim.run(), default=_plain, allow_nan=False))
    try:
        claim.check(rows)
    except AssertionError as error:
        print(f"{claim.name}: {error}", file=sys.stderr)
        verdict = "fail"
    else:
        verdict = "pass"
    return {"verdict": verdict, "timings": list(claim.timings), "rows": rows}


def drift(name: str, fresh: dict, recorded: dict) -> list[str]:
    """Where *fresh*'s deterministic rows differ from *recorded*'s."""
    new_rows, old_rows = fresh["rows"], recorded["rows"]
    if len(new_rows) != len(old_rows):
        return [f"{name}: {len(new_rows)} rows, recorded {len(old_rows)}"]
    problems = []
    for index, (new, old) in enumerate(zip(new_rows, old_rows)):
        if new.keys() != old.keys():
            problems.append(f"{name} row {index}: columns {list(new)}, recorded {list(old)}")
            continue
        for column, value in new.items():
            if column in fresh["timings"]:
                continue
            before = old[column]
            if isinstance(value, float) and isinstance(before, float):
                same = math.isclose(value, before, rel_tol=1e-6, abs_tol=1e-9)
            else:
                same = value == before
            if not same:
                problems.append(f"{name} row {index} {column}: {value!r}, recorded {before!r}")
    return problems


def _cell(value) -> str:
    if value is None:
        return "—"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render(entry: dict) -> str:
    """One claim's measured block: its verdict and its rows as a table."""
    rows = entry["rows"]
    columns = list(rows[0])
    lines = [f"Check: **{entry['verdict']}**."]
    if entry["timings"]:
        timed = ", ".join(f"`{column}`" for column in entry["timings"])
        lines.append(f"Wall-clock columns, held to the budget only: {timed}.")
    lines += [
        "",
        "| " + " | ".join(columns) + " |",
        "|" + "---|" * len(columns),
        *("| " + " | ".join(_cell(row[c]) for c in columns) + " |" for row in rows),
    ]
    return "\n".join(lines) + "\n"


def splice(text: str, record: dict) -> tuple[str, list[str]]:
    """*text* with every measured block re-rendered from *record*, and the
    claims that have no block or no record."""
    named = [match["name"] for match in BLOCK.finditer(text)]
    problems = [f"EXPERIMENTS.md: no block for {name}" for name in record if name not in named]
    problems += [f"EXPERIMENTS.md: block for unknown claim {name}" for name in named
                 if name not in record]
    if problems:
        return text, problems
    return BLOCK.sub(lambda m: m[1] + render(record[m["name"]]) + m[3], text), []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="re-run and diff against PAPER_CLAIMS.json and EXPERIMENTS.md; write nothing",
    )
    args = parser.parse_args(argv)
    if not __debug__:
        parser.error("the claim checks are assert statements: run without -O")

    record = {}
    for name, claim in CLAIMS.items():
        start = time.perf_counter()
        record[name] = run_claim(claim)
        elapsed = time.perf_counter() - start
        print(f"{name:<14} {record[name]['verdict']:<5} {elapsed:6.1f} s", flush=True)
    problems = [f"{name}: check failed" for name, entry in record.items()
                if entry["verdict"] != "pass"]

    text = EXPERIMENTS.read_text()
    if args.check:
        recorded = json.loads(RECORD.read_text())
        problems += [f"PAPER_CLAIMS.json: no record of {name}" for name in record
                     if name not in recorded]
        problems += [f"PAPER_CLAIMS.json: record of unknown claim {name}" for name in recorded
                     if name not in record]
        for name in (name for name in record if name in recorded):
            problems += drift(name, record[name], recorded[name])
        rendered, missing = splice(text, recorded)
        problems += missing
        if rendered != text:
            problems.append("EXPERIMENTS.md: measured blocks differ from PAPER_CLAIMS.json")
    else:
        rendered, missing = splice(text, record)
        problems += missing
        RECORD.write_text(json.dumps(record, indent=1) + "\n")
        EXPERIMENTS.write_text(rendered)
        print(f"wrote {RECORD.name} and {EXPERIMENTS.name}")

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
