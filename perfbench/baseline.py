"""Machine record and the re-anchor measurements of ROADMAP item 1.

    python3 perfbench/baseline.py [--out perfbench/out/baseline.json]

Run from the root of a source checkout.  It records nproc, the CPU
model, Python and numpy versions and the load average at start, then
measures, each in a fresh process:
  - the bundled corpus end to end (`run_corpus`, median of 3) and the
    per-layer timings the reports carry, summed over the 20 programs;
  - a definition chain of each length in ROADMAP's table, 5/10/20/40
    (one compile each);
  - `import skic` (median of 5) and numpy's share of it (-X importtime),
    with the same probes as run.py's set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import Runner  # noqa: E402

_CORPUS = """
import json, statistics, sys, time
sys.path.insert(0, "src")
from skic import cli_pipeline
walls = []
for _ in range(3):
    t = time.perf_counter()
    report = cli_pipeline.run_corpus("corpus")
    walls.append(time.perf_counter() - t)
layers = {}
for r in report.reports:
    for k, v in r.timings.items():
        layers[k] = layers.get(k, 0.0) + v
print(json.dumps({"corpus_s": statistics.median(walls), "corpus_runs_s": walls, "layers_last_run_s": layers,
                  "equal": sum(r.equivalence == "equal" for r in report.reports), "errors": len(report.errors)}))
"""

# the chain lengths of ROADMAP's re-anchor table
CHAIN_LENGTHS = (5, 10, 20, 40)

# f0 := \\x. #add x 1;  fi := \\x. #add (f(i-1) x) 1;  main: f(n-1) 0
_CHAIN = """
import json, sys, time
sys.path.insert(0, "src")
from skic import cli_pipeline
n = int(sys.argv[1])
lines = ["f0 := \\\\x. #add x 1;"] + [f"f{i} := \\\\x. #add (f{i - 1} x) 1;" for i in range(1, n)]
source = "\\n".join(lines) + f"\\nf{n - 1} 0\\n"
t = time.perf_counter()
result = cli_pipeline.run_pipeline(source)
print(json.dumps({"n": n, "compile_s": time.perf_counter() - t, "equivalence": result.report.equivalence}))
"""


def _python(args: list[str], timeout: float = 900) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable] + args, capture_output=True, text=True, timeout=timeout, check=True)


def machine() -> dict:
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    numpy_version = _python(["-c", "import numpy; print(numpy.__version__)"]).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "load_average_at_start": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="perfbench/out/baseline.json")
    args = parser.parse_args(argv)
    if not Path("src/skic/__init__.py").is_file():
        print("baseline.py: run from the root of a skic checkout", file=sys.stderr)
        return 2
    doc = {"machine": machine()}
    runner = Runner(Path.cwd())
    imports = runner.import_times()
    skic_s, numpy_s = runner.importtime_breakdown()
    doc["import"] = {"skic_s": statistics.median(imports), "runs_s": imports,
                     "importtime_skic_s": skic_s, "importtime_numpy_s": numpy_s}
    doc["corpus"] = json.loads(_python(["-c", _CORPUS]).stdout)
    doc["def_chain"] = [json.loads(_python(["-c", _CHAIN, str(n)]).stdout) for n in CHAIN_LENGTHS]
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
