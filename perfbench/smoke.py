"""Smoke test for the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload run.py knows, including ``sweep-m3``, which BENCHMARK.json
does not list, once at its smallest size (``--smoke``) with all checks on,
untraced and traced, and checks that:

* each run exits 0 and its last line is a result with exactly the keys
  correct / attempted / failed / metrics, correct and with no failures;
* the metrics are exactly the ``end_to_end`` (untraced) or ``per_layer``
  (traced) names of BENCHMARK.json, with the declared units;
* exact counts (``*.calls``, ``solver.assignments_explored``,
  ``serde.bytes_written``) repeat across two traced runs with one seed;
* run.py exits non-zero without a result where penlq is absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
EXACT = ("solver.assignments_explored", "serde.bytes_written")


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess, spec: list[dict], label: str) -> dict:
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    detail = json.loads(proc.stdout.strip().splitlines()[-2])["detail"]
    assert result["correct"] is True and result["failed"] == 0, f"{label}: {detail['failures']}"
    assert result["attempted"] >= 1, label
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, f"{label}: metrics {sorted(got)} != {sorted(want)}"
    return result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in WORKLOADS:
        result_of(run(w, 0), bench["end_to_end"], f"{w} untraced")
        first = result_of(run(w, 1), bench["per_layer"], f"{w} traced")["metrics"]
        second = result_of(run(w, 1), bench["per_layer"], f"{w} traced again")["metrics"]
        for name in first:
            if name.endswith(".calls") or name in EXACT:
                assert first[name]["value"] == second[name]["value"], f"{w}: {name} differs"
        print(f"ok  {w}")

    (HERE / "out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=HERE / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run("sweep-m2", 0, cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), "bare directory must fail"
    finally:
        shutil.rmtree(bare)
    print("ok  fails without penlq")
    return 0


if __name__ == "__main__":
    sys.exit(main())
