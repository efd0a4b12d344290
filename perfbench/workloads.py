"""The benchmark's three workloads: seeded inputs, the CLI commands of one
op, and the check that decides whether an op's outputs are correct.

Every input is built here with numpy from the run's seed; nothing comes
from cholcorr's own generator. Within a workload every op has the same
shape (same commands, same sizes), so per-op latency stays unimodal.
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

POOL = 8  # inputs per pool; ops cycle through them in order


@dataclass(frozen=True)
class Step:
    """One CLI command of an op and the exit code it must return."""

    argv: list[str]
    code: int


@dataclass(frozen=True)
class Outcome:
    """Exit code and captured streams of one CLI command."""

    code: int
    out: str
    err: str


def random_correlation(rng: np.random.Generator, n: int) -> np.ndarray:
    """Normalised A A^T with A an n x 2n standard normal matrix
    (well conditioned: eigenvalues near (1 +- 1/sqrt 2)^2)."""
    a = rng.standard_normal((n, 2 * n))
    s = a @ a.T
    d = 1.0 / np.sqrt(np.diag(s))
    c = s * np.outer(d, d)
    c = 0.5 * (c + c.T)
    np.fill_diagonal(c, 1.0)
    return c


def write_csv(path: Path, a: np.ndarray) -> None:
    """Headerless CSV with 17 significant digits, so parsing is lossless."""
    np.savetxt(path, a, fmt="%.17g", delimiter=",")


def read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def _exit_codes_match(steps: list[Step], outcomes: list[Outcome]) -> str | None:
    for step, got in zip(steps, outcomes):
        if got.code != step.code:
            tail = got.err.strip().splitlines()[-1:] or [""]
            return f"{step.argv[0]}: exit {got.code}, expected {step.code} ({tail[0]})"
    return None


CHECK_LINE = re.compile(r"check: reconstruction-error=(\S+) cross-method-discrepancy=(\S+)")


class Factor:
    """``decompose --check`` on a correlation input, then on the same input
    scaled to a covariance; n = 64, cycling through 8 seeded pairs of which
    one (the last) is indefinite and must be rejected with exit code 3."""

    name = "factor"
    n = 64
    tol = 1e-9  # passed as --tol, so the CLI and this check use one number
    # Largest cross-method discrepancy (relative to the diagonal) taken as
    # rounding: chol_detratio square-roots differences of minor ratios, so
    # an entry near 0 carries an error of order sqrt(eps) ~ 1.5e-8.
    max_cross = 1e-6

    def __init__(self, work: Path, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.inputs = []
        for p in range(POOL):
            definite = p != POOL - 1
            if definite:
                corr = random_correlation(rng, self.n)
            else:
                corr = np.full((self.n, self.n), -1.5 / (self.n - 1))
                np.fill_diagonal(corr, 1.0)
            sigmas = np.exp(rng.uniform(np.log(0.1), np.log(10.0), self.n))
            cov = corr * np.outer(sigmas, sigmas)
            corr_path, cov_path = work / f"corr_{p}.csv", work / f"cov_{p}.csv"
            write_csv(corr_path, corr)
            write_csv(cov_path, cov)
            self.inputs.append((corr_path, cov_path, corr, cov, definite))
        self.outs = (work / "factor.csv", work / "factor_cov.csv")
        self.check_exits = 0  # commands whose --check exited 1, see check()

    def steps(self, k: int) -> list[Step]:
        corr_path, cov_path, _, _, definite = self.inputs[k % POOL]
        code = 0 if definite else 3  # definite input may also exit 1, see check()
        common = ["--check", "--tol", repr(self.tol)]
        return [
            Step(["decompose", str(corr_path), *common, "--out", str(self.outs[0])], code),
            Step(["decompose", str(cov_path), "--covariance", *common,
                  "--out", str(self.outs[1])], code),
        ]

    def reset(self) -> None:
        for out in self.outs:
            out.unlink(missing_ok=True)

    def check(self, k: int, outcomes: list[Outcome]) -> str | None:
        _, _, corr, cov, definite = self.inputs[k % POOL]
        if not definite:
            bad = _exit_codes_match(self.steps(k), outcomes)
            if bad:
                return bad
            if any(out.exists() for out in self.outs):
                return "indefinite input produced a factor file"
            if not all(o.err.startswith("error:") for o in outcomes):
                return "indefinite input: no error message on stderr"
            return None
        for out, target, got in zip(self.outs, (corr, cov), outcomes):
            match = CHECK_LINE.search(got.err)
            if not match:
                return f"{out.name}: exit {got.code}, no --check line on stderr"
            scale = float(np.max(np.diag(target)))
            recon, cross = float(match[1]), float(match[2])
            # --check exits 1 when its numbers exceed --tol. That happens on
            # definite input when a factor entry is near 0 (|l| ~ 3e-8, about
            # one run in ten) and chol_detratio loses digits to cancellation:
            # the CLI then reports correctly, so such commands are counted,
            # not failed, as long as the discrepancy stays at rounding level.
            want = 1 if recon > self.tol * scale or cross > self.tol * scale else 0
            if got.code != want:
                return f"{out.name}: exit {got.code}, expected {want} from {match[0]}"
            if cross > self.max_cross * scale:
                return f"{out.name}: routes disagree beyond rounding: {match[0]}"
            self.check_exits += want
            lower = read_csv(out)
            if lower.shape != target.shape or np.any(np.triu(lower, 1) != 0.0):
                return f"{out.name}: not a lower-triangular {target.shape} factor"
            err = float(np.max(np.abs(lower @ lower.T - target)))
            if not err <= self.tol * scale:
                return f"{out.name}: reconstruction error {err:.3e}"
        return None


class Generate:
    """``generate --n 25 --count 20 --seed s+k``: write-heavy, no factor
    route and no verifier."""

    name = "generate"
    n = 25
    count = 20
    golden_file = Path(__file__).with_name("generate_golden.sha256")

    def __init__(self, work: Path, seed: int):
        self.seed = seed
        self.out = work / "generate"

    def argv(self, out: Path, seed: int | None) -> list[str]:
        argv = ["generate", "--n", str(self.n), "--count", str(self.count), "--out", str(out)]
        return argv if seed is None else argv + ["--seed", str(seed)]

    def steps(self, k: int) -> list[Step]:
        return [Step(self.argv(self.out, self.seed + k), 0)]

    def reset(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def names(self) -> list[str]:
        return [f"corr_{k:04d}.csv" for k in range(self.count)]

    def check(self, k: int, outcomes: list[Outcome]) -> str | None:
        bad = _exit_codes_match(self.steps(k), outcomes)
        if bad:
            return bad
        names = self.names()
        if sorted(p.name for p in self.out.glob("corr_*.csv")) != names:
            return "wrong set of output files"
        manifest = json.loads((self.out / "manifest.json").read_text())
        if manifest.get("outputs") != names:
            return "manifest does not list the outputs"
        for name in names:
            r = read_csv(self.out / name)
            if r.shape != (self.n, self.n) or np.any(r != r.T) or np.any(np.diag(r) != 1.0):
                return f"{name}: not a symmetric unit-diagonal {self.n} x {self.n} matrix"
            try:
                np.linalg.cholesky(r)
            except np.linalg.LinAlgError:
                return f"{name}: not positive-definite"
        return None

    def golden_digest(self, out: Path) -> str:
        """sha256 over the names and bytes of the matrix files in ``out``."""
        h = hashlib.sha256()
        for name in self.names():
            h.update(name.encode() + b"\0")
            h.update((out / name).read_bytes())
        return h.hexdigest()

    def golden_step(self, work: Path) -> Step:
        """The default-seed command whose output bytes are pinned."""
        return Step(self.argv(work / "golden", None), 0)

    def golden_check(self, work: Path, outcome: Outcome) -> str | None:
        if outcome.code != 0:
            return f"default-seed generate: exit {outcome.code}"
        want = self.golden_file.read_text().split()[0]
        try:
            got = self.golden_digest(work / "golden")
        except OSError as exc:
            return f"default-seed generate: {exc}"
        return None if got == want else f"default-seed generate output changed: sha256 {got}"


class VerifyTest:
    """``verify`` on an n = 25 correlation matrix, then ``test --out`` on a
    2000 x 10 sample block whose last column depends on one planted column;
    cycles through 8 seeded pairs."""

    name = "verify_test"
    n = 25
    samples = 2000
    p = 10
    verifiers = ("product_sums", "recursion", "ratio_differences", "general_recursion")

    def __init__(self, work: Path, seed: int):
        rng = np.random.default_rng([seed, 3])
        self.inputs = []
        for q in range(POOL):
            v_path, x_path = work / f"verify_{q}.csv", work / f"sample_{q}.csv"
            write_csv(v_path, random_correlation(rng, self.n))
            x = rng.standard_normal((self.samples, self.p))
            planted = int(rng.integers(1, self.p))  # 1-based column 1..p-1
            x[:, -1] += 0.3 * x[:, planted - 1]
            write_csv(x_path, x)
            self.inputs.append((v_path, x_path, planted))
        self.out = work / "test.json"

    def steps(self, k: int) -> list[Step]:
        v_path, x_path, _ = self.inputs[k % POOL]
        return [Step(["verify", str(v_path)], 0),
                Step(["test", str(x_path), "--out", str(self.out)], 0)]

    def reset(self) -> None:
        self.out.unlink(missing_ok=True)

    def check(self, k: int, outcomes: list[Outcome]) -> str | None:
        bad = _exit_codes_match(self.steps(k), outcomes)
        if bad:
            return bad
        lines = outcomes[0].out.splitlines()
        for want in ("det-order: ok", "ratio-order: ok"):
            if want not in lines:
                return f"verify: missing {want!r}"
        for name in self.verifiers:
            if not any(line.startswith(f"{name}: residual=") for line in lines):
                return f"verify: no residual line for {name}"
        report = json.loads(self.out.read_text())
        stages = report["per_k"]
        if [s["k"] for s in stages] != list(range(1, self.p)):
            return f"test: expected stages 1..{self.p - 1}"
        planted = self.inputs[k % POOL][2]
        if not stages[planted - 1]["reject"]:
            return f"test: planted dependence on column {planted} not rejected"
        return None


WORKLOADS = {w.name: w for w in (Factor, Generate, VerifyTest)}
