"""Command-line surface: decompose, generate, verify, test, ar1.

Data goes to stdout or the --out target; diagnostics go to stderr so
output can be piped. Exit codes are a stable contract:

    0  success
    1  a requested check failed
    2  usage or parse error, or a request too large to allocate
    3  input not positive-definite

Matrix files are headerless CSV (one row per line, '.' decimals) or JSON
objects {"n": <int>, "rows": [[...], ...]}. Sample files for ``test`` are
rectangular CSV/JSON blocks, one row per observation. An input's format is
read from its content, whatever the file is named: JSON when its first
non-blank character is '{' or '[', CSV otherwise. ``--format`` names only
what a command writes. All numbers are printed in shortest round-trip
form, so parse -> print -> parse is lossless for 64-bit floats. Whenever a
command writes files, a manifest is written alongside them. It records the
command, every parsed option except --out as the command resolved it (the
output format, test's default target), the library version and the
tolerances.

Run as the program (``main()`` with no argv), ``main`` freezes the objects
left by the imports, so that the collections at interpreter exit skip them.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import stat
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .ar1_sampling import Ar1Spec, ar1_cholesky, ar1_matrix, sample_mvn
from .dependence_test import SampleMatrix, sequential_test
from .errors import NearSingular, NotPositiveDefinite
from .identities import IDENTITIES, check_order_conditions, verify
from .matrix_core import (
    TOL_PD,
    TOL_REC,
    TOL_SYM,
    CorrelationMatrix,
    CovarianceMatrix,
    reference_cholesky,
)
from .parametrizations import chol_detratio, chol_semipartial
from .randcorr import GeneratorConfig, _batches


def format_value(v: float) -> str:
    """Shortest decimal string that parses back to the same float, never in
    exponent form."""
    return np.format_float_positional(float(v), unique=True, trim="-")


def render_table(a: np.ndarray, fmt: str) -> str | list[str]:
    """``a`` as CSV (``format_value`` per cell) or as a JSON object; a
    (k, r, c) stack of tables gives the list of their k texts.

    A 1-D or 2-D ``a`` is one table and gives one text, rendered as a
    stack of one. Each text is what rendering its table alone gives: the
    JSON branch makes one ``json.dumps`` per table. The CSV branch formats
    each distinct value of the whole stack once, keyed by bit pattern so
    that -0.0 and 0.0 stay apart: the matrices cholcorr writes are
    symmetric or triangular, so this halves their shortest round-trip
    conversions. Each distinct value is first written by ``repr``, which
    is already ``format_value``'s string for every finite v with
    1e-4 <= |v| < 1e16 that is not integral. Only the other three classes
    go through ``format_value``: |v| < 1e-4 (``repr`` writes an exponent),
    integral v, including -0.0, 0.0 and every |v| >= 1e16 (``repr`` ends in
    ``.0`` or writes an exponent), and inf and nan. The bytes are the same
    as formatting every cell with ``format_value``.

    Every cell's string and every text of the stack are held at once;
    ``generate`` passes one chunk of its batch per call.
    """
    a = np.asarray(a, dtype=float)
    stack = a if a.ndim == 3 else np.atleast_2d(a)[None]
    if fmt == "csv":
        bits, inverse = np.unique(stack.view(np.int64), return_inverse=True)
        u = bits.view(float)
        text = np.array(list(map(repr, u.tolist())), dtype=object)
        odd = ~(np.abs(u) >= 1e-4) | (u == np.trunc(u)) | ~np.isfinite(u)
        text[odd] = [format_value(v) for v in u[odd].tolist()]
        tables = text[inverse.reshape(stack.shape)].tolist()
        texts = ["\n".join(map(",".join, rows)) + "\n" for rows in tables]
    else:
        texts = [json.dumps({"n": stack.shape[2], "rows": rows}, indent=2) + "\n"
                 for rows in stack.tolist()]
    return texts if a.ndim == 3 else texts[0]


def infer_format(path: str | None, flag: str | None) -> str:
    if flag:
        return flag
    if path and path.endswith(".json"):
        return "json"
    return "csv"


def load_table(path: str) -> np.ndarray:
    """Rectangular float table from a CSV or JSON file, read as UTF-8 with
    any leading byte-order mark skipped. The text is JSON when its first
    non-blank character is ``{`` or ``[``, and CSV otherwise; the file's
    name plays no part.

    CSV lines that are empty or whitespace-only are dropped, and a
    well-formed table is read by one ``np.loadtxt`` call on the rest of
    Python's own ``splitlines``: numpy's C reader splits the fields and
    converts each with the correctly rounded routine that ``float()``
    uses. Whatever it rejects, and text with no line left (where it
    warns), goes through ``_parse_cells``'s per-cell ``float()`` loop,
    which words the error for the first bad cell or accepts the syntax
    numpy does not (``1_0``, non-ASCII digits).
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: cannot read: {exc}") from exc
    fmt = "json" if text.lstrip().startswith(("{", "[")) else "csv"
    source, a = text, None
    if fmt == "csv":
        source = [line for line in text.splitlines() if line.strip()]
        # loadtxt warns on no lines, and it strips the unit separator \x1f
        # around a field where float() does not
        if source and "\x1f" not in text:
            try:
                a = np.loadtxt(source, delimiter=",", comments=None, ndmin=2, dtype=float)
            except ValueError:
                pass
    if a is None:
        a = _parse_cells(path, fmt, source)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{path}: values must be finite")
    return a


def _parse_cells(path: str, fmt: str, source: str | list[str]) -> np.ndarray:
    """A rectangular table, converting each cell with ``float()``: ``source``
    is the JSON text, or the list of non-blank lines of a CSV file."""
    widths = None
    try:
        if fmt == "json":
            obj = json.loads(source)
            if isinstance(obj, dict) and "rows" in obj:
                cells = [_json_row(i, row) for i, row in enumerate(obj["rows"])]
                widths = [len(row) for row in cells]
        else:
            widths = [line.count(",") + 1 for line in source]
            # numpy parses each cell with float(): the same syntax, and the
            # same message for the first bad cell, as a per-cell loop
            cells = np.array(",".join(source).split(","), dtype=float) if source else []
    except (ValueError, TypeError, OverflowError, RecursionError) as exc:
        raise ValueError(f"{path}: cannot parse as {fmt}: {exc}") from exc
    if widths is None:
        raise ValueError(f"{path}: expected an object with a 'rows' field")
    if not widths:
        raise ValueError(f"{path}: the table has no rows")
    if len(set(widths)) != 1:
        raise ValueError(f"{path}: rows have inconsistent lengths")
    n = obj.get("n", widths[0]) if fmt == "json" else widths[0]
    if type(n) is not int or n != widths[0]:  # a bool or a float is no count
        raise ValueError(f"{path}: 'n' is {n!r} but the rows have {widths[0]} columns")
    return np.reshape(np.asarray(cells, dtype=float), (len(widths), widths[0]))


def _json_row(i: int, row) -> list[float]:
    """Row ``i`` of a JSON table as floats: an array whose cells are numbers
    or ``float()`` strings. A string row would be read character by
    character and ``float(true)`` is 1.0, so both are rejected."""
    if not isinstance(row, list):
        raise TypeError(f"rows[{i}] is not an array")
    if any(isinstance(v, bool) for v in row):
        raise TypeError(f"rows[{i}] holds a boolean")
    return [float(v) for v in row]


def write_output(text: str, args) -> None:
    """``text`` to stdout, or to the file ``args.out`` with the manifest of
    ``args`` beside it, at ``<out>.manifest.json``."""
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write_file(Path(args.out), text)
        write_manifest(Path(args.out + ".manifest.json"), args, [args.out])


def write_manifest(path: Path, args, outputs: list[str]) -> None:
    """The manifest of the command ``args`` ran: every parsed option but
    ``--out``, as the command resolved it (a command stores a value it
    infers, such as the output ``format``, on ``args`` before it writes).
    The file is strict JSON: a non-finite option, such as ``--tol inf``,
    is the string ``"inf"``."""
    options = {k: str(v) if isinstance(v, float) and not math.isfinite(v) else v
               for k, v in vars(args).items() if k not in ("command", "func", "out")}
    payload = {
        "command": args.command,
        "options": options,
        "outputs": outputs,
        "version": __version__,
        "tolerances": {
            "tol_sym": TOL_SYM,
            "tol_pd": TOL_PD,
            "tol_rec": TOL_REC,
        },
    }
    _write_file(path, json.dumps(payload, indent=2, allow_nan=False) + "\n")


def _write_file(path: Path, text: str) -> None:
    """``text`` to ``path``. A regular file with one link is unlinked and
    created anew: on ext4, a file truncated to zero starts writeback when it
    is closed, and the next truncate waits for it. Any other path (missing,
    a symlink, a hard-linked file, a device, a FIFO), and one that cannot be
    stat'ed or unlinked, is written in place."""
    try:
        st = os.lstat(path)
        if stat.S_ISREG(st.st_mode) and st.st_nlink == 1:
            os.unlink(path)
    except OSError:
        pass
    path.write_text(text)


def cmd_decompose(args) -> int:
    a = load_table(args.input)
    m = CovarianceMatrix(a) if args.covariance else CorrelationMatrix(a)
    # names are looked up when the command runs, so a name rebound after
    # import (the benchmark's tracer) is honoured
    routes = {"reference": reference_cholesky, "semipartial": chol_semipartial,
              "detratio": chol_detratio}
    # each route the command reports, every one under --check, is built once
    # in table order before anything is written: --check reports the first
    # rejection in that order, whatever --method is
    factors = {k: route(m) for k, route in routes.items() if args.check or k == args.method}
    factor = factors[args.method]
    args.format = infer_format(args.out, args.format)
    write_output(render_table(factor.entries, args.format), args)
    if args.check:
        # both numbers are taken on D^{-1/2} A D^{-1/2}, D = diag(A), so they
        # have no units; a correlation matrix's sigmas are exactly 1
        sigma = np.sqrt(m.values.diagonal())
        recon = float(np.max(np.abs(factor.reconstruct() - m.values) / np.outer(sigma, sigma)))
        cross = float(np.max(np.ptp([f.entries for f in factors.values()], 0) / sigma[:, None]))
        print(f"check: reconstruction-error={format_value(recon)} "
              f"cross-method-discrepancy={format_value(cross)}", file=sys.stderr)
        if recon > args.tol or cross > args.tol:
            return 1
    return 0


def cmd_generate(args) -> int:
    cfg = GeneratorConfig(n=args.n, seed=args.seed, sign_bias=args.sign_bias)
    outdir = Path(args.out)
    names = [f"corr_{k:04d}.{args.format}" for k in range(args.count)]
    for chunk, matrices in _batches(cfg, args.count):
        # made once a chunk is built, so a bad --count or --seed makes no directory
        outdir.mkdir(parents=True, exist_ok=True)
        texts = render_table(np.stack([m.values for m in matrices]), args.format)
        for k, text in zip(chunk, texts):
            _write_file(outdir / names[k], text)
        del matrices, texts  # one chunk at a time sets the command's peak memory
    write_manifest(outdir / "manifest.json", args, names)
    return 0


def cmd_verify(args) -> int:
    a = load_table(args.input)
    ok = check_order_conditions(a)  # one decision stands for both orderings
    word = "ok" if ok else "violated"
    print(f"det-order: {word}\nratio-order: {word}")
    if not ok:
        print("failed: leading-minor ordering, ratio-ladder ordering", file=sys.stderr)
        return 1
    try:
        # the container, or the semi-partial route that verify builds before
        # its walk, may reject a matrix the order check passed
        reports = verify(CorrelationMatrix(a))
    except NotPositiveDefinite as exc:
        print(f"failed: positive-definite construction ({exc})", file=sys.stderr)
        return 1
    failed = False
    for report in reports:
        print(f"{report.name}: residual={format_value(report.max_residual)}")
        if not report.max_residual <= args.tol:  # true for nan
            failed = True
            print(f"failed: {report.name} residual exceeds {args.tol}", file=sys.stderr)
    for name, min_n in IDENTITIES[len(reports):]:  # the identities n does not allow
        print(f"{name}: n/a (needs n >= {min_n})")
    return 1 if failed else 0


def cmd_test(args) -> int:
    a = load_table(args.data)
    try:
        x = SampleMatrix(a)
    except ValueError as exc:
        raise ValueError(f"{args.data}: {exc}") from exc
    args.target = args.target if args.target is not None else x.p
    report = sequential_test(x, args.target, args.alpha)
    write_output(json.dumps(report.to_dict(), indent=2) + "\n", args)
    return 0


def cmd_ar1(args) -> int:
    spec = Ar1Spec(n=args.n, rho=args.rho)
    if args.emit == "matrix":
        payload = ar1_matrix(spec).values
    elif args.emit == "factor":
        payload = ar1_cholesky(spec).entries
    else:
        payload = sample_mvn(ar1_cholesky(spec), args.count, args.seed)
    args.format = infer_format(args.out, args.format)
    write_output(render_table(payload, args.format), args)
    return 0


def _tolerance(text: str) -> float:
    """The ``--tol`` type: a float that is neither nan nor negative; 0 and
    inf are valid."""
    try:
        tol = float(text)
    except ValueError:  # worded like nan and negative values below
        tol = float("nan")
    if not tol >= 0:  # false for nan
        raise argparse.ArgumentTypeError(f"expected a number >= 0, got {text!r}")
    return tol


def _tol_joined(argv) -> list[str]:
    """``argv`` with each ``--tol`` and a value after it that starts with a
    single '-' joined into one ``--tol=<value>``: argparse takes a negative
    number in exponent form, such as ``-1e-9``, for an option, so
    ``_tolerance`` would not see it. A long option after ``--tol`` is left
    alone, so a missing value still reads ``expected one argument``."""
    out = []
    for arg in argv:
        if out and out[-1] == "--tol" and arg[:1] == "-" and arg[1:2] != "-":
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it costs far
    more than a parse, and ``parse_args`` returns a fresh namespace each
    call, so nothing carries over between calls."""
    parser = argparse.ArgumentParser(
        prog="cholcorr",
        description="Closed-form Cholesky factors of correlation matrices, "
                    "random correlation generation, and a sequential dependence test.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("csv", "json"),
                       help="output format (default: json if --out ends in .json, csv otherwise)")
        p.add_argument("--out", help="output path (default: stdout)")

    d = sub.add_parser("decompose", help="factor a correlation or covariance matrix")
    d.add_argument("input", help="matrix file")
    d.add_argument("--method", choices=("reference", "semipartial", "detratio"),
                   default="semipartial")
    d.add_argument("--covariance", action="store_true",
                   help="treat the input as a covariance matrix")
    d.add_argument("--check", action="store_true",
                   help="report reconstruction error and cross-method discrepancy on stderr")
    d.add_argument("--tol", type=_tolerance, default=TOL_REC,
                   help="threshold for --check failures")
    add_common(d)
    d.set_defaults(func=cmd_decompose)

    g = sub.add_parser("generate", help="generate random positive-definite correlation matrices")
    g.add_argument("--n", type=int, required=True, help="matrix dimension")
    g.add_argument("--count", type=int, default=1, help="number of matrices")
    g.add_argument("--sign-bias", type=float, default=0.5,
                   help="probability of a positive off-diagonal factor entry")
    g.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default: csv)")
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--seed", type=int, default=0, help="64-bit stream seed")
    g.set_defaults(func=cmd_generate)

    v = sub.add_parser("verify", help="check order conditions and identity residuals")
    v.add_argument("input", help="matrix file")
    v.add_argument("--tol", type=_tolerance, default=TOL_REC,
                   help="largest acceptable identity residual")
    v.set_defaults(func=cmd_verify)

    t = sub.add_parser("test", help="sequential dependence t-test on a sample block")
    t.add_argument("data", help="N x p sample file, one row per observation")
    t.add_argument("--target", type=int, help="1-based column to test (default: last)")
    t.add_argument("--alpha", type=float, default=0.05, help="test level")
    t.add_argument("--out", help="output path (default: stdout)")
    t.set_defaults(func=cmd_test)

    r = sub.add_parser("ar1", help="AR(1) matrix, factor, or autocorrelated samples")
    r.add_argument("--n", type=int, required=True, help="dimension")
    r.add_argument("--rho", type=float, required=True, help="lag-one coefficient, |rho| < 1")
    r.add_argument("--emit", choices=("matrix", "factor", "samples"), default="matrix")
    r.add_argument("--count", type=int, default=1, help="sample rows (emit=samples)")
    add_common(r)
    r.add_argument("--seed", type=int, default=0, help="64-bit stream seed")
    r.set_defaults(func=cmd_ar1)

    return parser


def main(argv=None) -> int:
    if argv is None:
        # run as the program: every object the imports left lives until exit,
        # and frozen ones are skipped by the collections at exit
        gc.freeze()
    args = build_parser().parse_args(_tol_joined(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (NotPositiveDefinite, NearSingular) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
