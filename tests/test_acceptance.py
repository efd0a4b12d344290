"""Acceptance suite: one test per release gate, each printing a PASS line
with the measured margin (run with ``pytest tests/test_acceptance.py -v -s``).

Every expected value and tolerance is pinned here; nothing is calibrated
at runtime.
"""

import json
import time

import numpy as np

from cholcorr.ar1_sampling import Ar1Spec, ar1_cholesky, ar1_matrix, sample_mvn
from cholcorr.cli import main
from cholcorr.dependence_test import SampleMatrix, sequential_test
from cholcorr.errors import NotPositiveDefinite
from cholcorr.identities import check_order_conditions, verify
from cholcorr.matrix_core import (
    CorrelationMatrix,
    _reference_factor,
    leading_minor_determinants,
    reference_cholesky,
)
from cholcorr.parametrizations import chol_detratio, chol_semipartial, extract_signs
from cholcorr.randcorr import GeneratorConfig, generate, stream


def test_criterion_1_oracle_equivalence_under_time_budget():
    """1,000 generated matrices, n cycling 2..25: both closed-form factors
    match the reference factor entrywise within 1e-9, in under 10 s."""
    started = time.perf_counter()
    worst = 0.0
    for idx in range(1000):
        n = 2 + idx % 24
        _, r = generate(GeneratorConfig(n=n, seed=idx))
        ref = reference_cholesky(r).entries
        semi = chol_semipartial(r)
        det = chol_detratio(r, extract_signs(semi))
        worst = max(
            worst,
            float(np.max(np.abs(semi.entries - ref))),
            float(np.max(np.abs(det.entries - ref))),
        )
    elapsed = time.perf_counter() - started
    assert worst <= 1e-9
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 oracle equivalence: PASS (max diff {worst:.3e}, {elapsed:.2f}s)")


def test_criterion_2_identity_suite():
    """All four identity verifiers stay below 1e-9 on 200 random matrices
    with n <= 15 and return exactly zero on identity inputs."""
    for n in (2, 5, 9):
        for report in verify(CorrelationMatrix(np.eye(n))):
            assert report.max_residual == 0.0
    worst = 0.0
    for idx in range(200):
        n = 3 + idx % 13
        _, r = generate(GeneratorConfig(n=n, seed=1000 + idx))
        reports = verify(r)
        assert len(reports) == 4
        for report in reports:
            worst = max(worst, report.max_residual)
    assert worst <= 1e-9
    print(f"ACCEPTANCE 2 identity suite: PASS (max residual {worst:.3e})")


def test_criterion_3_order_conditions_match_positive_definiteness():
    """On 10,000 mixed symmetric unit-diagonal matrices (n <= 8) the order
    diagnostic agrees with factorization success, with no disagreement
    outside the tolerance band around singularity."""
    rng = np.random.default_rng(314159)
    disagreements = hard = valid = 0
    for idx in range(10_000):
        n = 2 + idx % 7
        if idx % 2 == 0:
            a = generate(GeneratorConfig(n=n, seed=idx))[1].values
        else:
            raw = rng.uniform(-1.0, 1.0, size=(n, n))
            a = 0.5 * (raw + raw.T)
            np.fill_diagonal(a, 1.0)
        ok = check_order_conditions(a)
        try:
            _reference_factor(a)
            succeeded = True
        except NotPositiveDefinite:
            succeeded = False
        valid += succeeded
        if ok != succeeded:
            disagreements += 1
            margin = min(
                abs(float(np.linalg.det(a[:k, :k]))) for k in range(1, n + 1)
            )
            if margin > 1e-8:
                hard += 1
    assert hard == 0
    print(
        f"ACCEPTANCE 3 order conditions vs PD: PASS "
        f"({valid} valid / 10000, {disagreements} banded disagreements, 0 hard)"
    )


def test_criterion_4_generator_validity():
    """10,000 generated matrices across n in 2..25 all pass construction,
    and each determinant equals the smallest step-1 uniform within 1e-10."""
    worst = 0.0
    for idx in range(10_000):
        n = 2 + idx % 24
        _, r = generate(GeneratorConfig(n=n, seed=7777), rng=stream(7777, idx))
        probe = stream(7777, idx)
        smallest = np.sort(1.0 - probe.random(n - 1))[::-1][-1]
        det = leading_minor_determinants(r)[-1]
        worst = max(worst, abs(float(det) - float(smallest)))
    assert worst <= 1e-10
    print(f"ACCEPTANCE 4 generator validity: PASS (10000/10000 PD, max det error {worst:.3e})")


def test_criterion_5_ar1_closed_form():
    """Closed-form AR(1) factor matches the reference within 1e-12 over the
    rho/n grid, and the determinant equals (1 - rho^2)^(n-1) within 1e-10
    up to n = 12."""
    worst_factor = 0.0
    for rho in (-0.95, -0.5, 0.0, 0.5, 0.95):
        for n in (1, 2, 5, 20):
            spec = Ar1Spec(n, rho)
            diff = ar1_cholesky(spec).entries - reference_cholesky(ar1_matrix(spec)).entries
            worst_factor = max(worst_factor, float(np.max(np.abs(diff))))
    assert worst_factor <= 1e-12
    worst_det = 0.0
    for rho in (-0.9, -0.5, 0.3, 0.8):
        for n in range(2, 13):
            det = leading_minor_determinants(ar1_matrix(Ar1Spec(n, rho)))[-1]
            worst_det = max(worst_det, abs(float(det) - (1.0 - rho**2) ** (n - 1)))
    assert worst_det <= 1e-10
    print(
        f"ACCEPTANCE 5 AR(1) closed form: PASS "
        f"(max factor diff {worst_factor:.3e}, max det diff {worst_det:.3e})"
    )


def test_criterion_6_ar1_transform_covariance():
    """200,000-draw Monte Carlo at n = 5, rho = 0.6: empirical covariance
    within 0.01 entrywise of rho^|i-j|."""
    spec = Ar1Spec(5, 0.6)
    draws = sample_mvn(ar1_cholesky(spec), count=200_000, seed=99)
    cov = np.cov(draws, rowvar=False)
    target = 0.6 ** np.abs(np.subtract.outer(np.arange(5), np.arange(5)))
    err = float(np.max(np.abs(cov - target)))
    assert err < 0.01
    print(f"ACCEPTANCE 6 AR(1) transform covariance: PASS (max error {err:.4f})")


def test_criterion_7_null_calibration():
    """2,000 replicates, N = 200, independent target, alpha = 0.05: the
    stage-1 rejection rate lands in [0.035, 0.065]."""
    rejections = 0
    for rep in range(2000):
        data = stream(2024, rep).standard_normal((200, 4))
        report = sequential_test(SampleMatrix(data), target=4, alpha=0.05)
        rejections += report.per_k[0].reject
    rate = rejections / 2000.0
    assert 0.035 <= rate <= 0.065
    print(f"ACCEPTANCE 7 null calibration: PASS (rejection rate {rate:.4f})")


def test_criterion_8_cli_round_trip_and_exit_codes(tmp_path, capsys):
    """generate -> verify -> decompose -> reconstruct end to end, plus the
    three error exit codes (1 failed check, 2 parse, 3 not PD)."""
    outdir = tmp_path / "gen"
    assert main(["generate", "--n", "6", "--count", "3", "--seed", "5",
                 "--out", str(outdir)]) == 0
    worst = 0.0
    for k in range(3):
        src = outdir / f"corr_{k:04d}.csv"
        assert main(["verify", str(src)]) == 0
        ell_path = tmp_path / f"L{k}.csv"
        assert main(["decompose", str(src), "--method", "semipartial",
                     "--out", str(ell_path), "--check"]) == 0
        ell = np.loadtxt(ell_path, delimiter=",")
        original = np.loadtxt(src, delimiter=",")
        worst = max(worst, float(np.max(np.abs(ell @ ell.T - original))))
    assert worst <= 1e-9

    junk = tmp_path / "junk.csv"
    junk.write_text("1,nope\n0,1\n")
    assert main(["decompose", str(junk)]) == 2

    not_pd = tmp_path / "npd.csv"
    not_pd.write_text("1,0.9,0.9\n0.9,1,0.1\n0.9,0.1,1\n")
    assert main(["decompose", str(not_pd)]) == 3
    assert main(["verify", str(not_pd)]) == 1

    report_path = tmp_path / "report.json"
    data_path = tmp_path / "samples.csv"
    rows = stream(77, 0).standard_normal((50, 3))
    data_path.write_text(
        "\n".join(",".join(repr(float(v)) for v in row) for row in rows) + "\n"
    )
    assert main(["test", str(data_path), "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert [row["k"] for row in report["per_k"]] == [1, 2]
    capsys.readouterr()
    print(f"ACCEPTANCE 8 CLI round trip and exit codes: PASS (max recon error {worst:.3e})")
