"""The help texts of ``cholcorr`` and its five subcommands, pinned byte for
byte at an 80-column terminal, so that a change to the parser shows here."""

import pytest

from cholcorr.cli import main

HELP = {
    (): """\
usage: cholcorr [-h] {decompose,generate,verify,test,ar1} ...

Closed-form Cholesky factors of correlation matrices, random correlation
generation, and a sequential dependence test.

positional arguments:
  {decompose,generate,verify,test,ar1}
    decompose           factor a correlation or covariance matrix
    generate            generate random positive-definite correlation matrices
    verify              check order conditions and identity residuals
    test                sequential dependence t-test on a sample block
    ar1                 AR(1) matrix, factor, or autocorrelated samples

options:
  -h, --help            show this help message and exit
""",
    ("decompose",): """\
usage: cholcorr decompose [-h] [--method {reference,semipartial,detratio}]
                          [--covariance] [--check] [--tol TOL]
                          [--format {csv,json}] [--out OUT]
                          input

positional arguments:
  input                 matrix file

options:
  -h, --help            show this help message and exit
  --method {reference,semipartial,detratio}
  --covariance          treat the input as a covariance matrix
  --check               report reconstruction error and cross-method
                        discrepancy on stderr
  --tol TOL             threshold for --check failures
  --format {csv,json}   output format (default: json if --out ends in .json,
                        csv otherwise)
  --out OUT             output path (default: stdout)
""",
    ("generate",): """\
usage: cholcorr generate [-h] --n N [--count COUNT] [--sign-bias SIGN_BIAS]
                         [--format {csv,json}] --out OUT [--seed SEED]

options:
  -h, --help            show this help message and exit
  --n N                 matrix dimension
  --count COUNT         number of matrices
  --sign-bias SIGN_BIAS
                        probability of a positive off-diagonal factor entry
  --format {csv,json}   output format (default: csv)
  --out OUT             output directory
  --seed SEED           64-bit stream seed
""",
    ("verify",): """\
usage: cholcorr verify [-h] [--tol TOL] input

positional arguments:
  input       matrix file

options:
  -h, --help  show this help message and exit
  --tol TOL   largest acceptable identity residual
""",
    ("test",): """\
usage: cholcorr test [-h] [--target TARGET] [--alpha ALPHA] [--out OUT] data

positional arguments:
  data             N x p sample file, one row per observation

options:
  -h, --help       show this help message and exit
  --target TARGET  1-based column to test (default: last)
  --alpha ALPHA    test level
  --out OUT        output path (default: stdout)
""",
    ("ar1",): """\
usage: cholcorr ar1 [-h] --n N --rho RHO [--emit {matrix,factor,samples}]
                    [--count COUNT] [--format {csv,json}] [--out OUT]
                    [--seed SEED]

options:
  -h, --help            show this help message and exit
  --n N                 dimension
  --rho RHO             lag-one coefficient, |rho| < 1
  --emit {matrix,factor,samples}
  --count COUNT         sample rows (emit=samples)
  --format {csv,json}   output format (default: json if --out ends in .json,
                        csv otherwise)
  --out OUT             output path (default: stdout)
  --seed SEED           64-bit stream seed
""",
}


@pytest.mark.parametrize("command", list(HELP),
                         ids=lambda command: "-".join(command) or "cholcorr")
def test_help_text_is_pinned(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("NO_COLOR", "1")  # argparse colours help from Python 3.14
    with pytest.raises(SystemExit) as stop:
        main([*command, "--help"])
    assert stop.value.code == 0
    assert capsys.readouterr().out == HELP[command]
