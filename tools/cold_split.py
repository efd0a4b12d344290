"""Split the wall time of cold ``cholcorr`` processes into four stages.

For each subcommand the script spawns fresh interpreters that run one
command the way the console script does (``cholcorr.cli.main()``, with
the arguments in ``sys.argv``) and prints the median, in milliseconds, of:

- start: from the spawn to the first line of the program, which is the
  interpreter's own start-up;
- import: ``import cholcorr.cli``, numpy included;
- command: ``main()``, from argument parsing to its return;
- exit: from ``main`` returning until the parent sees the process end,
  which is mostly the interpreter's teardown.

The inputs are seeded numpy arrays written to a temporary directory: an
n = 64 correlation matrix for ``decompose --check``, an n = 25 one for
``verify`` and a 2000 x 10 normal block for ``test``; ``generate --n 25
--count 20`` writes into that directory and ``ar1`` samples to stdout.
Spawns import cholcorr from the checkout's ``src`` (or ``--src``), with
BLAS pinned to one thread and bytecode caching on. One discarded spawn
per subcommand first fills the page cache and writes the bytecode.

Run from anywhere:

    python3 tools/cold_split.py [--reps N] [--src DIR] [COMMAND ...]
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
MARKER = "cold-split "
STAGES = ("start", "import", "command", "exit")

# Stamps the three moments between the stages on stderr's last line.
BOOTSTRAP = (
    "import sys, time\n"
    "t0 = time.monotonic()\n"
    "import cholcorr.cli\n"
    "t1 = time.monotonic()\n"
    "code = cholcorr.cli.main()\n"
    f"sys.stderr.write('{MARKER}%r %r %r\\n' % (t0, t1, time.monotonic()))\n"
    "sys.exit(code)\n"
)


def correlation(rng: np.random.Generator, n: int) -> np.ndarray:
    """Normalised A A^T with A an n x 2n standard normal matrix: well
    conditioned, and it passes ``verify``'s order conditions."""
    a = rng.standard_normal((n, 2 * n))
    s = a @ a.T
    d = 1.0 / np.sqrt(np.diag(s))
    c = s * np.outer(d, d)
    c = 0.5 * (c + c.T)
    np.fill_diagonal(c, 1.0)
    return c


def commands(work: Path) -> dict[str, list[str]]:
    """The argv of each subcommand, on inputs written under ``work``."""
    rng = np.random.default_rng(2014)
    paths = {"corr64": work / "corr64.csv", "corr25": work / "corr25.csv",
             "sample": work / "sample.csv"}
    np.savetxt(paths["corr64"], correlation(rng, 64), fmt="%.17g", delimiter=",")
    np.savetxt(paths["corr25"], correlation(rng, 25), fmt="%.17g", delimiter=",")
    np.savetxt(paths["sample"], rng.standard_normal((2000, 10)), fmt="%.17g", delimiter=",")
    return {
        "decompose": ["decompose", str(paths["corr64"]), "--check"],
        "generate": ["generate", "--n", "25", "--count", "20", "--out", str(work / "generated")],
        "verify": ["verify", str(paths["corr25"])],
        "test": ["test", str(paths["sample"])],
        "ar1": ["ar1", "--n", "25", "--rho", "0.5", "--emit", "samples", "--count", "200"],
    }


def spawn_env(src: Path) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv: list[str], env: dict, cwd: Path) -> tuple[float, ...]:
    """Seconds spent in each of ``STAGES`` by one fresh interpreter."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", BOOTSTRAP, *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    end = time.monotonic()
    last = proc.stderr.rstrip("\n").rpartition("\n")[2]
    if proc.returncode != 0 or not last.startswith(MARKER):
        raise SystemExit(f"{argv[0]}: exit {proc.returncode}: {proc.stderr[-300:]}")
    t0, t1, t2 = map(float, last[len(MARKER):].split())
    return t0 - start, t1 - t0, t2 - t1, end - t2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("commands", nargs="*", metavar="COMMAND",
                        help="subcommands to time (default: all)")
    parser.add_argument("--reps", type=int, default=15, help="timed spawns per subcommand")
    parser.add_argument("--src", type=Path, default=SRC,
                        help="directory holding the cholcorr package (default: the checkout's src)")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    if not (args.src / "cholcorr" / "cli.py").is_file():
        parser.error(f"no cholcorr package under {args.src}")
    env = spawn_env(args.src.resolve())
    with tempfile.TemporaryDirectory(prefix="cold-split-") as tmp:
        work = Path(tmp)
        runs = commands(work)
        unknown = sorted(set(args.commands) - set(runs))
        if unknown:
            parser.error(f"unknown subcommands {unknown}; choose from {sorted(runs)}")
        print(f"{'command':<12}" + "".join(f"{stage + '_ms':>12}" for stage in STAGES))
        for name in args.commands or list(runs):
            spawn(runs[name], env, work)  # discarded: page cache and bytecode
            times = [spawn(runs[name], env, work) for _ in range(args.reps)]
            medians = [1e3 * statistics.median(column) for column in zip(*times)]
            print(f"{name:<12}" + "".join(f"{m:>12.1f}" for m in medians), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
