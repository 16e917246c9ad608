"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 perfbench/smoke.py

Checks that BENCHMARK.json gives every metric a unit and a direction, that
every workload emits every end-to-end metric (timed run) and every
per-layer metric (traced run) with its unit, that a seed repeats its
output digest, and that the benchmark fails without printing a result in a
directory holding only BENCHMARK.json and the benchmark's files. Takes
under a minute; it is not part of the pytest suite.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload, trace, cwd=ROOT, seed=3):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "1", "--trace", str(trace)]
    if cwd == ROOT:
        cmd += ["--sizes", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_two(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def check_spec(problems):
    for section in ("end_to_end", "per_layer"):
        for m in SPEC[section]:
            if not m.get("unit") or m.get("better") not in ("higher", "lower"):
                problems.append(f"{section} {m['name']}: needs a unit and a direction")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    if bounds.get("setup_s") != max(bounds.values()):
        problems.append("setup_s must carry the largest bound")


def check_workload(name, problems):
    digests = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer"), (0, "end_to_end")):
        proc = run(name, trace)
        if proc.returncode != 0:
            problems.append(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return
        record, result = last_two(proc)
        digests.append(record["output_digest"])
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            problems.append(f"{name}: result keys {sorted(result)}")
        if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
            problems.append(f"{name} trace={trace}: {result} {record['error']}")
        for m in SPEC[section]:
            got = result["metrics"].get(m["name"])
            if got is None:
                problems.append(f"{name} trace={trace}: no {m['name']}")
            elif got["unit"] != m["unit"] or not math.isfinite(got["value"]):
                problems.append(f"{name} trace={trace}: bad {m['name']}: {got}")
            elif section == "end_to_end" and got["value"] <= 0:
                problems.append(f"{name}: {m['name']} is {got['value']}, must be > 0")
    if len({tuple(d) for d in digests}) != 1 or len(digests[0]) != 1:
        problems.append(f"{name}: output digests differ across runs of one seed: {digests}")


def check_bare_directory(problems):
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare)
        if not any(scratch.iterdir()):
            scratch.rmdir()


def main() -> int:
    problems = []
    check_spec(problems)
    for w in SPEC["workloads"]:
        check_workload(w["name"], problems)
    check_bare_directory(problems)
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
