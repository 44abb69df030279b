"""End-to-end properties of the benchmark command itself."""

import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _run(cwd, seed, workload="protein-cold"):
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _fingerprint(stdout):
    line = next(l for l in stdout.splitlines() if l.startswith("fingerprint: "))
    return json.loads(line[len("fingerprint: "):])


def test_same_seed_same_fingerprint_other_seed_differs():
    first, second, other = _run(ROOT, 3), _run(ROOT, 3), _run(ROOT, 4)
    for done in (first, second, other):
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
    assert _fingerprint(first.stdout) == _fingerprint(second.stdout)
    assert _fingerprint(first.stdout) != _fingerprint(other.stdout)


def test_fails_without_a_library_to_measure(tmp_path):
    shutil.copytree(BENCH, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    done = _run(tmp_path, 1)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
