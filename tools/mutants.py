"""Mutation gate for the verifier path.

Each mutant in mutants.json replaces one exact piece of text in one source
file.  For every mutant the tool copies src/, tests/ and pyproject.toml to
a temporary directory, applies the mutant there (never in the working
tree), runs the verifier-path test files with -x, and records the first
failing test; a run past TIMEOUT_S also kills the mutant.  A mutant no
test kills must carry an "equivalent" reason in mutants.json; any other
survivor fails the gate.

    python tools/mutants.py                  # every mutant
    python tools/mutants.py --only verifier_memo_key_without_length  # a few, by id

The result goes to tools/mutants_result.json (--out to change it).  Exit
status: 0 when every mutant is killed or explained, 1 otherwise, 2 when
the unmutated tree already fails its tests.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COPIED = ("src", "tests", "pyproject.toml")
# a mutant can make the sans-io test pumps loop; a run past this counts as killed
TIMEOUT_S = 60.0


def copy_tree(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        else:
            shutil.copy2(src, dest / name)


def apply(dest: Path, mutant: dict) -> None:
    path = dest / mutant["file"]
    text = path.read_text()
    hits = text.count(mutant["find"])
    if hits != 1:
        raise ValueError(f"mutant {mutant['id']}: 'find' occurs {hits} times in {mutant['file']}")
    path.write_text(text.replace(mutant["find"], mutant["replace"]))


def run_tests(dest: Path, spec: dict) -> tuple[bool, float, str]:
    """(passed, seconds, what failed or the summary line) of the gate's tests in `dest`."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "-o", "addopts=", *spec["tests"]]
    for test_id in spec.get("deselect", ()):
        cmd += ["--deselect", test_id]
    env = {**os.environ, "PYTHONPATH": str(dest / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=dest, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - start, f"timed out after {TIMEOUT_S:.0f} s"
    lines = (proc.stdout + proc.stderr).strip().splitlines()
    failed = [line.split(" - ")[0] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return (proc.returncode == 0, time.perf_counter() - start,
            failed[0] if failed else lines[-1] if lines else "")


def trial(spec: dict, mutant) -> tuple[bool, float, str]:
    with tempfile.TemporaryDirectory(prefix="fedzkp-mutant-") as tmp:
        dest = Path(tmp)
        copy_tree(dest)
        if mutant is not None:
            apply(dest, mutant)
        return run_tests(dest, spec)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=HERE / "mutants_result.json")
    parser.add_argument("--only", nargs="*", help="mutant ids to run (default: all)")
    args = parser.parse_args(argv)

    spec = json.loads((HERE / "mutants.json").read_text())
    mutants = spec["mutants"]
    ids = [m["id"] for m in mutants]
    if len(set(ids)) != len(ids):
        raise SystemExit("mutant ids must be unique")
    if args.only:
        unknown = set(args.only) - set(ids)
        if unknown:
            raise SystemExit(f"unknown mutant ids: {', '.join(sorted(unknown))}")
        mutants = [m for m in mutants if m["id"] in args.only]

    passed, baseline, tail = trial(spec, None)
    print(f"baseline: {'pass' if passed else 'FAIL'} in {baseline:.1f} s ({tail})", flush=True)
    if not passed:
        return 2

    results = []
    for m in mutants:
        survived, seconds, tail = trial(spec, m)
        if not survived:
            status = "killed"
        elif m.get("equivalent"):
            status = "equivalent"
        else:
            status = "survived"
        results.append({"id": m["id"], "file": m["file"], "status": status,
                        "seconds": round(seconds, 1), "outcome": tail,
                        **({"reason": m["equivalent"]} if status == "equivalent" else {})})
        print(f"{status:10s} {seconds:6.1f} s  {m['id']}", flush=True)

    counts = {s: sum(r["status"] == s for r in results)
              for s in ("killed", "equivalent", "survived")}
    report = {"python": platform.python_version(), "tests": spec["tests"],
              "deselect": spec.get("deselect", []), "baseline_seconds": round(baseline, 1),
              "counts": counts, "mutants": results}
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"{counts['killed']} killed, {counts['equivalent']} equivalent, "
          f"{counts['survived']} survived; wrote {args.out}")
    return 1 if counts["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
