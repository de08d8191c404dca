"""Quick self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Runs every workload of workloads.py and the traced run, and checks that every
metric named in BENCHMARK.json is emitted with its unit, that the result line
has exactly its four keys, that the benchmark seed decides the generated
inputs, that layer_map.json covers the per-layer metrics, and that a directory
holding only BENCHMARK.json and perfbench/ makes the benchmark fail without a
result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads as wl_mod

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _result(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.main(argv, tiny=True)
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def _check_metrics(label: str, result: dict, wanted: list[dict]) -> list[str]:
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')}")
    got = result.get("metrics", {})
    for metric in wanted:
        entry = got.get(metric["name"])
        if entry is None:
            problems.append(f"{label}: {metric['name']} missing")
        elif entry.get("unit") != metric["unit"] or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{label}: {metric['name']} emitted as {entry}")
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def _check_seeds() -> list[str]:
    problems = []
    for wl in wl_mod.make_workloads(tiny=True).values():
        first = (wl.argv(wl_mod.master_seed(wl, 1)), wl_mod.check_trials(wl, 1, 4))
        if first != (wl.argv(wl_mod.master_seed(wl, 1)), wl_mod.check_trials(wl, 1, 4)):
            problems.append(f"{wl.name}: the same seed generated different inputs")
        if wl.argv(wl_mod.master_seed(wl, 1)) == wl.argv(wl_mod.master_seed(wl, 2)):
            problems.append(f"{wl.name}: seeds 1 and 2 generated the same CLI flags")
    return problems


def _check_bare_directory() -> list[str]:
    wl_mod.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=wl_mod.OUT) as tmp:
        bare = Path(tmp)
        shutil.copy(wl_mod.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(wl_mod.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "mdp-anderson", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170, check=False)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    bench = json.loads((wl_mod.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = _check_seeds() + _check_bare_directory()
    mapped = {m for entry in json.loads((wl_mod.HERE / "layer_map.json").read_text())["map"]
              for m in entry["metrics"]}
    if mapped != {m["name"] for m in bench["per_layer"]}:
        problems.append(f"layer_map.json and BENCHMARK.json per_layer differ: "
                        f"{sorted(mapped ^ {m['name'] for m in bench['per_layer']})}")
    listed = {wl["name"] for wl in bench["workloads"]}
    if listed != set(wl_mod.make_workloads()):
        problems.append(f"BENCHMARK.json workloads {sorted(listed)} differ from workloads.py")
    for name in wl_mod.make_workloads(tiny=True):
        argv = ["--workload", name, "--seed", "3", "--seconds", "0"]
        problems += _check_metrics(name, _result(argv + ["--trace", "0"]), bench["end_to_end"])
    problems += _check_metrics("traced run", _result(
        ["--workload", bench["workloads"][0]["name"], "--seed", "3", "--seconds", "0",
         "--trace", "1"]), bench["per_layer"])
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
