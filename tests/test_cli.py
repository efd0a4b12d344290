import argparse
import codecs
import gc
import hashlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    contract_bound,
    kappa_correlation,
    per_cell_csv,
    planted_correlation,
    t_quantile_betaincinv,
    tiny_eigenvalue_family,
)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cholcorr.cli as cli
import cholcorr.dependence_test as dependence_test
from cholcorr.ar1_sampling import Ar1Spec, ar1_cholesky
from cholcorr.cli import format_value, load_table, main, render_table
from cholcorr.identities import IdentityReport, check_order_conditions
from cholcorr.errors import NotPositiveDefinite
from cholcorr.matrix_core import (
    TOL_PD,
    CorrelationMatrix,
    _schur_steps,
    leading_minor_determinants,
)
from cholcorr.parametrizations import chol_semipartial
from cholcorr.randcorr import GeneratorConfig, generate_batch


def read_csv(path):
    return np.array(
        [[float(v) for v in line.split(",")] for line in path.read_text().splitlines() if line]
    )


def write_csv(path, a):
    a = np.atleast_2d(a)
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in a) + "\n")


def per_element_json(a):
    """The JSON table as written by converting each element with float()."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    return json.dumps({"n": a.shape[1], "rows": [[float(v) for v in row] for row in a]},
                      indent=2) + "\n"


def child_env():
    """Environment in which a child interpreter imports the same package as
    the tests, installed or not."""
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


class TestFormatting:
    def test_roundtrip_lossless(self):
        values = [1.0, 0.0, 0.5, np.sqrt(0.75), -1.0 / 3.0, 1e-17, -0.0]
        for v in values:
            assert float(format_value(v)) == v

    def test_integers_print_bare(self):
        assert format_value(1.0) == "1"
        assert format_value(0.0) == "0"

    def test_matches_numpy_positional_form(self):
        edge = [0.0, -0.0, 5e-324, -2.5e-310, 1e-5, 1e-4, 1e15, 1e16, 2.0**53 + 2,
                1.7976931348623157e308, -1.0 / 3.0, np.float64(0.1), np.inf, -np.inf, np.nan]
        rng = np.random.default_rng(11)
        size = 100_000
        sweep = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-20.0, 20.0, size)
        # render_table is where repr's fast path and the formatter meet
        values = edge + sweep.tolist()
        cells = render_table(np.array(values), "csv").removesuffix("\n").split(",")
        assert cells == [np.format_float_positional(float(v), unique=True, trim="-")
                         for v in values]

    def test_json_matches_per_element_floats(self, tmp_path, capsys):
        assert main(["ar1", "--n", "6", "--rho", "-0.7", "--emit", "factor",
                     "--format", "json"]) == 0
        expected = per_element_json(ar1_cholesky(Ar1Spec(n=6, rho=-0.7)).entries)
        assert capsys.readouterr().out == expected
        outdir = tmp_path / "j"
        assert main(["generate", "--n", "7", "--count", "2", "--seed", "5",
                     "--format", "json", "--out", str(outdir)]) == 0
        for k, r in enumerate(generate_batch(GeneratorConfig(n=7, seed=5), 2)):
            assert (outdir / f"corr_{k:04d}.json").read_text() == per_element_json(r.values)


def per_value_csv(a):
    """The CSV table as written by formatting every cell on its own."""
    rows = np.atleast_2d(np.asarray(a, dtype=float)).tolist()
    return "\n".join(",".join(map(format_value, row)) for row in rows) + "\n"


def neighbours(*values):
    return [w for v in values for w in (np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf))]


HOSTILE = neighbours(0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-4, -1e-4, 1e16, -1e16, 1.0) + [
    -5e-324, 1e-5, 0.1, 2.0**53 + 2, 1.7976931348623157e308, np.inf, -np.inf, np.nan]
cells = st.one_of(st.sampled_from(HOSTILE), st.integers(-9, 9).map(float), st.floats(width=64))


@st.composite
def tables(draw):
    kinds = ["symmetric", "lower", "upper", "random", "transposed", "1-D", "1x1"]
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(1, 7))
    m = n if kind in ("symmetric", "lower", "upper") else draw(st.integers(1, 7))
    a = np.array(draw(st.lists(cells, min_size=n * m, max_size=n * m))).reshape(n, m)
    lower = np.tri(n, m, dtype=bool)
    if kind == "symmetric":
        return np.where(lower, a, a.T)
    if kind in ("lower", "upper"):
        pad = draw(st.sampled_from([0.0, -0.0]))
        return np.where(lower if kind == "lower" else lower.T, a, pad)
    return {"random": a, "transposed": a.T, "1-D": a[0], "1x1": a[:1, :1]}[kind]


@st.composite
def stacks(draw):
    """k >= 2 same-shape tables, 0.0 in the first and -0.0 in the second,
    so that values repeat across tables and the signed zeros meet."""
    k, r, c = draw(st.integers(2, 5)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    a = np.array(draw(st.lists(cells, min_size=k * r * c, max_size=k * r * c))).reshape(k, r, c)
    a[0].flat[draw(st.integers(0, r * c - 1))] = 0.0
    a[1].flat[draw(st.integers(0, r * c - 1))] = -0.0
    return a


class TestRenderTable:
    @settings(max_examples=300, deadline=None)
    @given(a=tables())
    def test_csv_matches_per_value_formatting(self, a):
        assert render_table(a, "csv") == per_value_csv(a)

    @settings(max_examples=200, deadline=None)
    @given(a=stacks())
    def test_stack_renders_each_table_as_alone(self, a):
        for fmt in ("csv", "json"):
            assert render_table(a, fmt) == [render_table(t, fmt) for t in a]
        assert render_table(a, "csv") == [per_value_csv(t) for t in a]

    def test_signed_zeros_stay_apart(self):
        assert render_table(np.array([[0.0, -0.0], [-0.0, 0.0]]), "csv") == "0,-0\n-0,0\n"

    # each side of both edges of repr's positional range (1e-4 and 1e16),
    # integral values inside it, no repeated values, one value just under
    # 1e-4 among many, and a triangle of zeros
    FIXED = {
        "hostile": lambda: np.array([HOSTILE + [100.0, -3.0, 1e15, 2.0**53]]),
        "normal-2000x10": lambda: np.random.default_rng(0).standard_normal((2000, 10)),
        "generate-n25-element1": lambda: generate_batch(GeneratorConfig(n=25, seed=0), 2)[1].values,
        "semipartial-n64": lambda: chol_semipartial(
            generate_batch(GeneratorConfig(n=64, seed=2024), 1)[0]).entries,
    }

    @pytest.mark.parametrize("table", sorted(FIXED))
    def test_csv_matches_per_value_formatting_on_fixed_tables(self, table):
        a = self.FIXED[table]()
        assert render_table(a, "csv") == per_value_csv(a)

    # the generated entries are BLAS-rounded, so the values are derived
    # from the table; element 1 has one entry under 1e-4, element 0 none
    @pytest.mark.parametrize("k, small", [(0, 0), (1, 1)])
    def test_format_value_runs_only_where_repr_differs(self, monkeypatch, k, small):
        calls = []

        def counted(v):
            calls.append(v)
            return format_value(v)

        monkeypatch.setattr(cli, "format_value", counted)
        a = generate_batch(GeneratorConfig(n=25, seed=0), 2)[k].values
        render_table(a, "csv")
        distinct = np.unique(a.view(np.int64)).view(float).tolist()
        assert sorted(calls) == sorted(v for v in distinct if repr(v) != format_value(v))
        assert sum(abs(v) < 1e-4 for v in calls) == small


# Cells and line breaks of the differential test: well-formed numbers, and
# atoms on which numpy's C reader and float() could disagree (underscores,
# non-ASCII digits and whitespace, hex, BOM, NUL, the unit separator \x1f,
# comment and quote characters, every line break str.splitlines knows).
CSV_ATOMS = ["0", "7", "12", "3.25", "-2", "+.5", "1.", ".5", "e5", "E-3", "1e400", "nan",
             "-Infinity", "1_0", "\uff11", "\u0663", "0x10", "x", "#", '"', "\ufeff", "\x00",
             "\x1f", " ", "\t", "\xa0", "\u3000", "-", ","]
CSV_LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                   "\u2028", "\u2029", "\n\n", "\n \n", "\n\t\n", "\n\xa0\n"]


def csv_cells():
    number = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    pad = st.sampled_from(["", " ", "\t", "\xa0", "\u3000", "\x1f"])
    return st.one_of(
        number,
        st.tuples(pad, number, pad).map("".join),
        st.lists(st.sampled_from(CSV_ATOMS), max_size=4).map("".join),
    )


@st.composite
def csv_texts(draw):
    """Mostly rectangular tables of mostly well-formed cells, so that both
    numpy's reader and the per-cell fallback are exercised."""
    width = draw(st.integers(min_value=1, max_value=4))
    row = st.lists(csv_cells(), min_size=width, max_size=width) | st.lists(csv_cells(), max_size=5)
    rows = draw(st.lists(row.map(",".join), max_size=5))
    breaks = draw(st.lists(st.sampled_from(CSV_LINE_BREAKS), min_size=len(rows), max_size=len(rows)))
    return "".join(r + b for r, b in zip(rows, breaks))


class TestLoadTable:
    """CSV parsing keeps the syntax and the messages of a per-cell ``float()``
    loop, first bad cell included."""

    FAILURES = {
        "1,0.5\n0.5,x\n": "cannot parse as csv: could not convert string to float: 'x'",
        "1,0.5,\n0.5,1,\n": "cannot parse as csv: could not convert string to float: ''",
        "1,,2\n3,4,5\n": "cannot parse as csv: could not convert string to float: ''",
        "1,0.5\n0.5\nx,1\n": "cannot parse as csv: could not convert string to float: 'x'",
        "1,0.5\n0.5,1,2\n": "rows have inconsistent lengths",
        "": "the table has no rows",
        "\n  \n\t\n": "the table has no rows",
        "1,inf\ninf,1\n": "values must be finite",
        "1,0x10\n0.5,1\n": "cannot parse as csv: could not convert string to float: '0x10'",
        "1,0.5\n\ufeff0.5,1\n": "cannot parse as csv: could not convert string to float: '\\ufeff0.5'",
        "1,0.5\n0.5,1\x00\n": "cannot parse as csv: could not convert string to float: '1\\x00'",
        "1,\x1f0.5\n0.5,1\n": "cannot parse as csv: could not convert string to float: '\\x1f0.5'",
        "1,0.5\n#0.5,1\n": "cannot parse as csv: could not convert string to float: '#0.5'",
        '"1",0.5\n0.5,1\n': "cannot parse as csv: could not convert string to float: '\"1\"'",
        "1,1e400\n0.5,1\n": "values must be finite",
        "1,nan\n-Infinity,1\n": "values must be finite",
    }

    @pytest.mark.parametrize("text", list(FAILURES))
    def test_failure_messages(self, tmp_path, text):
        src = tmp_path / "m.csv"
        src.write_text(text)
        with pytest.raises(ValueError) as err:
            load_table(str(src))
        assert str(err.value) == f"{src}: {self.FAILURES[text]}"

    @pytest.mark.parametrize("text", [
        "\n1,0.5\n\n   \n0.5,1\n\n",
        "1,0.5\r\n0.5,1\r\n",
        " 1 , 0.5\n0.5,\t1 \n",
        "1_0,0.5e-0\n+.5,1.\n",
        "\uff11,0.5\n0.5,\u0663\n",
        "1,0.5\r0.5,1\r",
        "1,0.5\x0b0.5,1\x0c",
        "1,0.5\x850.5,1\u2028",
        "1\xa0,\u30000.5\n\xa0\n0.5,1\n",
        "-0,1e-320,-1.5E+3\n",
        "1\n0.5\n-2\n",
    ])
    def test_accepted_syntax(self, tmp_path, text):
        src = tmp_path / "m.csv"
        src.write_bytes(text.encode())
        lines = [line for line in text.splitlines() if line.strip()]
        expected = [[float(v) for v in line.split(",")] for line in lines]
        assert load_table(str(src)).tolist() == expected

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text, shape", [
        ("", None),
        ("\n  \n\t\n", None),
        ("1,0.5,-2\n", (1, 3)),
        ("1\n0.5\n-2\n", (3, 1)),
    ])
    def test_no_warnings(self, tmp_path, text, shape):
        src = tmp_path / "m.csv"
        src.write_text(text)
        if shape is None:
            with pytest.raises(ValueError, match="the table has no rows"):
                load_table(str(src))
        else:
            assert load_table(str(src)).shape == shape

    def test_whitespace_only_lines_skip_the_per_cell_loop(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("a valid table was parsed cell by cell")

        monkeypatch.setattr(cli, "_parse_cells", refuse)
        src = tmp_path / "m.csv"
        src.write_text("1,0.5\n  \n0.5,1\n\t\n  \n")
        assert load_table(str(src)).tolist() == [[1.0, 0.5], [0.5, 1.0]]

    def test_json_n_must_match_the_row_width(self, tmp_path):
        src = tmp_path / "m.json"
        src.write_text('{"n": 5, "rows": [[1, 0.5], [0.5, 1]]}')
        with pytest.raises(ValueError) as err:
            load_table(str(src))
        assert str(err.value) == f"{src}: 'n' is 5 but the rows have 2 columns"
        assert main(["decompose", str(src)]) == 2

    @pytest.mark.parametrize("text,message", [
        ('[[1, 0.5], [0.5, 1]]', "expected an object with a 'rows' field"),
        ('{"n": 2}', "expected an object with a 'rows' field"),
        ('{"rows": null}', "cannot parse as json: 'NoneType' object is not iterable"),
        ('{"rows": []}', "the table has no rows"),
        ('{"rows": [[1, "x"]]}', "cannot parse as json: could not convert string to float: 'x'"),
        ('{"rows": ["10", "01"]}', "cannot parse as json: rows[0] is not an array"),
        ('{"rows": [[1, 0.5], {"0": 1}]}', "cannot parse as json: rows[1] is not an array"),
        ('{"rows": [[true, 0.5], [0.5, true]]}', "cannot parse as json: rows[0] holds a boolean"),
        ('{"n": true, "rows": [[1]]}', "'n' is True but the rows have 1 columns"),
        ('{"n": 1.0, "rows": [[1]]}', "'n' is 1.0 but the rows have 1 columns"),
    ])
    def test_json_failure_messages(self, tmp_path, capsys, text, message):
        src = tmp_path / "m.json"
        src.write_text(text)
        with pytest.raises(ValueError) as err:
            load_table(str(src))
        assert str(err.value) == f"{src}: {message}"
        assert main(["decompose", str(src)]) == 2
        assert capsys.readouterr().err == f"error: {src}: {message}\n"

    # an integer beyond float range, nesting past the recursion limit, and
    # bytes that are not UTF-8
    MALFORMED = {
        "huge.json": ('{"rows": [[1' + "0" * 400 + ']]}').encode(),
        "deep.json": ('{"rows": ' + "[" * 100_000 + "]" * 100_000 + "}").encode(),
        "latin.csv": b"1,0.5\n0.5,1\xe9\n",
    }

    @pytest.mark.parametrize("command", ["decompose", "verify", "test"])
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_file_is_a_usage_error_naming_it(self, tmp_path, capsys, command, name):
        src = tmp_path / name
        src.write_bytes(self.MALFORMED[name])
        assert main([command, str(src)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = "cannot read" if name.endswith(".csv") else "cannot parse as json"
        assert captured.err.startswith(f"error: {src}: {message}: ")
        assert captured.err.count("\n") == 1

    # float() takes Arabic-Indic digits, so the file parses wherever it is
    # read as UTF-8; a byte that is not UTF-8 fails under any locale
    @pytest.mark.parametrize("data, code", [
        pytest.param("1,\u0660.5\n\u0660.5,1\n".encode(), 0, id="arabic-indic"),
        pytest.param(b"1,0.5\n0.5,1\xe9\n", 2, id="latin-1")])
    def test_input_is_utf8_under_an_ascii_locale(self, tmp_path, data, code):
        src = tmp_path / "m.csv"
        src.write_bytes(data)
        ascii_locale = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        runs = [subprocess.run([sys.executable, "-m", "cholcorr.cli", "decompose", str(src)],
                               capture_output=True, text=True, env={**child_env(), **extra})
                for extra in (ascii_locale, {"PYTHONUTF8": "1"})]
        assert [run.returncode for run in runs] == [code, code]
        assert runs[0].stdout == runs[1].stdout
        assert ("cannot read" in runs[0].stderr) == (code == 2)

    # spreadsheet CSV exports start with a byte-order mark; only a leading one
    # is skipped (see FAILURES)
    @pytest.mark.parametrize("name, text", [
        ("m.csv", "1,0.5\n0.5,1\n"),
        ("m.json", '{"n": 2, "rows": [[1, 0.5], [0.5, 1]]}')])
    def test_a_leading_utf8_byte_order_mark_is_skipped(self, tmp_path, capsys, name, text):
        plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
        plain.write_bytes(text.encode())
        marked.write_bytes(codecs.BOM_UTF8 + text.encode())
        assert load_table(str(marked)).tobytes() == load_table(str(plain)).tobytes()
        outs = []
        for src in (marked, plain):
            assert main(["decompose", str(src)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        marked.write_bytes(codecs.BOM_UTF8 + text.encode() + b"\xe9")
        with pytest.raises(ValueError, match=f"^{re.escape(str(marked))}: cannot read: "):
            load_table(str(marked))

    @pytest.mark.parametrize("header", ['"n": 3, ', ""])
    def test_json_n_equal_to_the_width_or_missing_is_accepted(self, tmp_path, header):
        # a 2 x 3 sample block: "n" counts columns, as render_table writes it
        src = tmp_path / "m.json"
        src.write_text('{' + header + '"rows": [[1, 2, 3], [4, 5, 6]]}')
        assert load_table(str(src)).tolist() == [[1, 2, 3], [4, 5, 6]]

    def test_json_cells_are_numbers_or_float_strings(self, tmp_path):
        src = tmp_path / "m.json"
        src.write_text('{"rows": [[1, "0.5"], [" 5e-1 ", 1e0]]}')
        assert load_table(str(src)).tolist() == [[1.0, 0.5], [0.5, 1.0]]

    def test_json_written_by_render_table_reads_back(self, tmp_path):
        a = np.random.default_rng(6).standard_normal((4, 3))
        src = tmp_path / "m.json"
        src.write_text(render_table(a, "json"))
        assert load_table(str(src)).tobytes() == a.tobytes()

    @settings(max_examples=500, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=csv_texts())
    def test_matches_per_cell_oracle(self, tmp_path, text):
        src = tmp_path / "m.csv"
        src.write_bytes(text.encode())
        expected = per_cell_csv(src.read_text(encoding="utf-8-sig"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = load_table(str(src))
            except ValueError as exc:
                got = str(exc)
        if isinstance(expected, str):
            assert isinstance(got, str) and got == f"{src}: {expected}"
        else:
            assert isinstance(got, np.ndarray) and got.dtype == np.float64
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()


class TestFormatByContent:
    """An input is JSON when its first non-blank character is ``{`` or ``[``
    and CSV otherwise, whatever its file is called; ``--format`` names only
    the output."""

    def test_load_table_takes_only_a_path(self):
        assert list(inspect.signature(load_table).parameters) == ["path"]

    def test_decompose_writes_json_from_a_csv_matrix(self, tmp_path, capsys):
        src, out = tmp_path / "r.csv", tmp_path / "L.json"
        write_csv(src, planted_correlation(5, 2).values)
        assert main(["decompose", str(src), "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert main(["decompose", str(src), "--out", str(out)]) == 0
        assert captured.out == out.read_text()
        assert json.loads(captured.out)["n"] == 5

    @pytest.mark.parametrize("command", ["decompose", "verify", "test"])
    def test_a_misnamed_file_is_read_by_its_content(self, tmp_path, capsys, command):
        a = (planted_correlation(5, 2).values if command != "test"
             else np.random.default_rng(8).standard_normal((40, 3)))
        outs = []
        for name, fmt in [("m.csv", "csv"), ("m.json", "json"),
                          ("json.csv", "json"), ("csv.json", "csv")]:
            src = tmp_path / name
            src.write_text(render_table(a, fmt))
            assert main([command, str(src)]) == 0, name
            outs.append(capsys.readouterr())
        assert outs[2:] == outs[:2]
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("text", ['  \n\t{"rows": [[1, 0.5], [0.5, 1]]}',
                                      '\ufeff{"rows": [[1, 0.5], [0.5, 1]]}'])
    def test_blanks_and_a_byte_order_mark_before_json(self, tmp_path, text):
        src = tmp_path / "m.csv"
        src.write_text(text, encoding="utf-8")
        assert load_table(str(src)).tolist() == [[1, 0.5], [0.5, 1]]

    @pytest.mark.parametrize("command, name", [("verify", "m.csv"), ("test", "x.csv")])
    def test_format_is_not_an_option_of_verify_or_test(self, tmp_path, capsys, command, name):
        src = tmp_path / name
        write_csv(src, planted_correlation(4, 1).values)
        with pytest.raises(SystemExit) as stop:
            main([command, str(src), "--format", "csv"])
        assert stop.value.code == 2
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err

    def test_a_top_level_json_array_is_not_a_table(self, tmp_path, capsys):
        # the same text in m.json is a case of test_json_failure_messages
        src = tmp_path / "m.csv"
        src.write_text("[[1, 0.5], [0.5, 1]]")
        assert main(["decompose", str(src)]) == 2
        assert capsys.readouterr().err == (
            f"error: {src}: expected an object with a 'rows' field\n")

    @pytest.mark.parametrize("command", ["decompose", "verify", "test"])
    @pytest.mark.parametrize("name", ["m.csv", "m.json"])
    def test_an_empty_file_is_a_usage_error(self, tmp_path, capsys, command, name):
        src = tmp_path / name
        src.write_text("")
        assert main([command, str(src)]) == 2
        assert capsys.readouterr().err == f"error: {src}: the table has no rows\n"

    def test_a_bare_number_is_a_one_by_one_csv_table(self, tmp_path):
        src = tmp_path / "m.json"
        src.write_text("5\n")
        assert load_table(str(src)).tolist() == [[5.0]]


def tol_pd_edge(negative):
    """A matrix that ``CorrelationMatrix`` (``potrf``) accepts and
    ``chol_semipartial`` rejects on the running BLAS kernel, and the
    route's ``NotPositiveDefinite``: its pivot is negative, or in
    [0, TOL_PD]. The bases of ``one_tiny_eigenvalue`` are tried from seed
    2345 (negative) or 837. On each, the tiny eigenvalue is bisected down
    to the smallest value the container accepts, where potrf's last pivot
    is just above TOL_PD and the recursion's, rounded otherwise, may fall
    below it. Fails when no basis of 20 splits the routes."""
    def accepted(a):
        try:
            CorrelationMatrix(a)
        except NotPositiveDefinite:
            return False
        return True

    first = 2345 if negative else 837
    for t in range(first, first + 20):
        matrix, _ = tiny_eigenvalue_family(t)
        lo, hi = -1e-8, 1e-8
        if accepted(matrix(lo)) or not accepted(matrix(hi)):
            continue
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            lo, hi = (lo, mid) if accepted(matrix(mid)) else (mid, hi)
        try:
            chol_semipartial(CorrelationMatrix(matrix(hi)))
        except NotPositiveDefinite as exc:
            if (exc.pivot_value < 0) == negative:
                return matrix(hi), exc
    pytest.fail(f"no basis of seeds {first}..{first + 19} splits the routes at TOL_PD")


class TestDecompose:
    def test_identity_any_method(self, tmp_path, capsys):
        src = tmp_path / "ident.csv"
        write_csv(src, np.eye(3))
        for method in ("reference", "semipartial", "detratio"):
            out = tmp_path / f"L_{method}.csv"
            code = main(["decompose", str(src), "--method", method,
                         "--out", str(out), "--check"])
            assert code == 0
            np.testing.assert_array_equal(read_csv(out), np.eye(3))
            err = capsys.readouterr().err
            assert "reconstruction-error=0 " in err

    def test_two_by_two_exact_output(self, tmp_path, capsys):
        src = tmp_path / "r.csv"
        src.write_text("1,0.5\n0.5,1\n")
        assert main(["decompose", str(src)]) == 0
        out = capsys.readouterr().out
        assert out == "1,0\n0.5,0.8660254037844386\n"

    def test_not_positive_definite_exit_code(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("1,0.9,0.9\n0.9,1,0.1\n0.9,0.1,1\n")
        assert main(["decompose", str(src)]) == 3
        assert "pivot 3" in capsys.readouterr().err

    def test_parse_failure_exit_code(self, tmp_path):
        src = tmp_path / "junk.csv"
        src.write_text("1,hello\n2,3\n")
        assert main(["decompose", str(src)]) == 2

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["decompose", str(tmp_path / "nope.csv")]) == 2

    @pytest.mark.parametrize("command", ["decompose", "verify"])
    def test_non_unit_diagonal_is_usage_error(self, tmp_path, capsys, command):
        src = tmp_path / "r.csv"
        src.write_text("4,0.5\n0.5,4\n")
        assert main([command, str(src)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unit diagonal" in captured.err

    @pytest.mark.parametrize("command", ["decompose", "verify"])
    def test_nonsquare_is_usage_error(self, tmp_path, capsys, command):
        src = tmp_path / "rect.csv"
        src.write_text("1,0.5,0\n0.5,1,0\n")
        assert main([command, str(src)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "expected a square matrix, got shape (2, 3)" in captured.err

    def test_covariance_roundtrip(self, tmp_path):
        r = generate_batch(GeneratorConfig(n=3, seed=8), 1)[0]
        sig = np.array([0.5, 2.0, 1.0])
        src = tmp_path / "cov.csv"
        write_csv(src, r.values * np.outer(sig, sig))
        out = tmp_path / "L.csv"
        code = main(["decompose", str(src), "--covariance", "--method", "detratio",
                     "--out", str(out), "--check"])
        assert code == 0
        ell = read_csv(out)
        np.testing.assert_allclose(ell @ ell.T, r.values * np.outer(sig, sig), atol=1e-9)

    def test_covariance_near_singular_edge_accepted_by_every_method(self, tmp_path, capsys):
        # its correlation matrix has pivot 2 at 9.998669e-13, just below TOL_PD, while
        # the covariance's own pivot 2 passes TOL_PD * a_22, as the container found
        src = tmp_path / "edge.csv"
        src.write_text("11.853393686036796,1.75153914402088\n1.75153914402088,0.2588194954373628\n")
        outputs = set()
        for method in ("reference", "semipartial", "detratio"):
            assert main(["decompose", str(src), "--covariance", "--check", "--method", method]) == 0
            outputs.add(capsys.readouterr().out)
        assert outputs == {"3.442875787192561,0\n0.5087430544362291,0.0000005087715579622698\n"}

    @pytest.mark.parametrize("n", [12, 64])
    def test_check_passes_on_planted_tiny_entries(self, tmp_path, capsys, n):
        # one factor entry of 1e-8: its square is read off the elimination's
        # update, not taken as the difference of two ladder entries near 1
        for seed in range(10):
            src = tmp_path / f"p{seed}.csv"
            write_csv(src, planted_correlation(n, seed).values)
            assert main(["decompose", str(src), "--check"]) == 0, capsys.readouterr().err

    def test_check_decision_does_not_depend_on_units(self, tmp_path, capsys):
        # kappa = 1e12, n = 12, seed 9 plus an independent 13th variable: the
        # cross-route spread (2.05e-9 under OpenBLAS SkylakeX, 0.34e-9 to
        # 0.56e-9 under other kernels) is taken relative to sigma_j, so the
        # line and the --tol where the decision flips do not move with
        # sigma_13; judged against the largest variance, both did
        a = np.eye(13)
        a[:12, :12] = kappa_correlation(12, 1e12, 9).values
        lines = set()
        for sigma in (1e-6, 1.0, 1e6):
            d = np.ones(13)
            d[12] = sigma
            src = tmp_path / "c.csv"
            write_csv(src, a * np.outer(d, d))
            argv = ["decompose", str(src), "--covariance", "--method", "detratio", "--check"]
            main(argv)
            line = capsys.readouterr().err
            lines.add(line)
            edge = max(float(field.split("=")[1]) for field in line.split()[1:])
            assert main(argv + ["--tol", str(edge)]) == 0
            assert main(argv + ["--tol", str(np.nextafter(edge, 0.0))]) == 1
            assert {line} == set(capsys.readouterr().err.splitlines(keepends=True))
        assert len(lines) == 1

    def test_json_output(self, tmp_path):
        src = tmp_path / "r.csv"
        src.write_text("1,0.5\n0.5,1\n")
        out = tmp_path / "L.json"
        assert main(["decompose", str(src), "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["n"] == 2
        assert obj["rows"][1][1] == np.sqrt(0.75)

    def test_manifest_written(self, tmp_path):
        src = tmp_path / "r.csv"
        src.write_text("1,0.5\n0.5,1\n")
        out = tmp_path / "L.csv"
        main(["decompose", str(src), "--out", str(out)])
        manifest = json.loads((tmp_path / "L.csv.manifest.json").read_text())
        assert manifest["command"] == "decompose"
        assert manifest["options"]["method"] == "semipartial"
        assert manifest["tolerances"] == {"tol_sym": 1e-10, "tol_pd": 1e-12, "tol_rec": 1e-9}

    # known limit (chol_semipartial's docstring): potrf and the semi-partial
    # recursion round the last pivot differently, so on a matrix built at
    # the edge of TOL_PD the routes disagree about definiteness
    @staticmethod
    def edge_file(tmp_path, capsys, negative):
        a, rejected = tol_pd_edge(negative)
        src = tmp_path / "edge.csv"
        np.savetxt(src, a, fmt="%.17g", delimiter=",")
        assert main(["decompose", str(src), "--method", "reference"]) == 0
        capsys.readouterr()
        return src, rejected

    @pytest.mark.parametrize("negative", [False, True], ids=["below-tol-pd", "negative"])
    def test_routes_split_at_the_tol_pd_edge(self, tmp_path, capsys, negative):
        # each route reports its own decision. The semi-partial route
        # rejects, and so does --check, which builds it before the ratio
        # route whatever --method is. The ratio route judges the Schur
        # pivots that verify's order check judges: where they pass, it
        # writes its factor and verify fails at the semi-partial route,
        # which product_sums builds before it prints a residual
        src, rejected = self.edge_file(tmp_path, capsys, negative)
        for flags in (["--method", "semipartial"], ["--check"],
                      ["--method", "detratio", "--check"]):
            assert main(["decompose", str(src), *flags]) == 3
            assert capsys.readouterr() == ("", f"error: {rejected}\n")
        a = load_table(str(src))
        pivots = _schur_steps(CorrelationMatrix(a).values)[0]
        ok = bool(np.all(pivots > TOL_PD))
        assert check_order_conditions(a) == ok
        code = main(["decompose", str(src), "--method", "detratio"])
        captured = capsys.readouterr()
        assert main(["verify", str(src)]) == 1
        if ok:
            assert (code, captured.err) == (0, "")
            expected = ("det-order: ok\nratio-order: ok\n",
                        f"failed: positive-definite construction ({rejected})\n")
        else:
            k = int(np.argmin(pivots > TOL_PD))
            own = NotPositiveDefinite(k + 1, pivots[k])
            assert (code, captured.out, captured.err) == (3, "", f"error: {own}\n")
            expected = ("det-order: violated\nratio-order: violated\n",
                        "failed: leading-minor ordering, ratio-ladder ordering\n")
        assert capsys.readouterr() == expected

    @pytest.mark.parametrize("negative", [False, True], ids=["below-tol-pd", "negative"])
    def test_check_writes_nothing_when_a_route_rejects(self, tmp_path, capsys, negative):
        # --check builds every route before it writes anything
        src, rejected = self.edge_file(tmp_path, capsys, negative)
        out = ["--out", str(tmp_path / "L.csv")]
        for flags in (["--method", "reference", "--check", *out], ["--check", *out],
                      ["--method", "detratio", "--check", *out]):
            assert main(["decompose", str(src), *flags]) == 3
            assert capsys.readouterr() == ("", f"error: {rejected}\n")
        assert list(tmp_path.iterdir()) == [src]

    def test_covariance_zero_variance_is_usage_error(self, tmp_path, capsys):
        src = tmp_path / "cov.csv"
        src.write_text("1,0\n0,0\n")
        assert main(["decompose", str(src), "--covariance"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: covariance diagonal must be strictly positive\n"


class TestGenerate:
    def test_dimension_one(self, tmp_path):
        outdir = tmp_path / "g"
        assert main(["generate", "--n", "1", "--out", str(outdir)]) == 0
        assert (outdir / "corr_0000.csv").read_text() == "1\n"

    def test_two_by_two_matches_library(self, tmp_path):
        outdir = tmp_path / "g2"
        assert main(["generate", "--n", "2", "--seed", "123", "--out", str(outdir)]) == 0
        expected = generate_batch(GeneratorConfig(n=2, seed=123), 1)[0]
        np.testing.assert_array_equal(read_csv(outdir / "corr_0000.csv"), expected.values)

    def test_all_outputs_pass_verify(self, tmp_path):
        outdir = tmp_path / "g3"
        assert main(["generate", "--n", "6", "--count", "5", "--seed", "42",
                     "--out", str(outdir)]) == 0
        for k in range(5):
            assert main(["verify", str(outdir / f"corr_{k:04d}.csv")]) == 0

    def test_manifest_and_reproducibility(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            main(["generate", "--n", "5", "--count", "3", "--seed", "9", "--out", str(d)])
        for k in range(3):
            assert (a / f"corr_{k:04d}.csv").read_text() == (b / f"corr_{k:04d}.csv").read_text()
        manifest = json.loads((a / "manifest.json").read_text())
        assert manifest["options"]["seed"] == 9
        assert manifest["outputs"] == [f"corr_{k:04d}.csv" for k in range(3)]

    # both pins hold bytes that pass through the gemm of generate's LLᵀ
    @pytest.mark.blas_bits
    def test_output_bytes_are_pinned(self, tmp_path):
        outdir = tmp_path / "golden"
        assert main(["generate", "--n", "25", "--count", "100", "--seed", "42",
                     "--out", str(outdir)]) == 0
        digest = hashlib.sha256()
        for k in range(100):
            digest.update((outdir / f"corr_{k:04d}.csv").read_bytes())
        assert digest.hexdigest() == (
            "e3c1e18d04f5e617a973d82675111084e2c399157786fac063539114dc3e214f")

    @pytest.mark.blas_bits
    def test_json_output_bytes_are_pinned(self, tmp_path):
        outdir = tmp_path / "golden"
        assert main(["generate", "--n", "25", "--count", "100", "--seed", "42",
                     "--format", "json", "--out", str(outdir)]) == 0
        digest = hashlib.sha256()
        for k in range(100):
            digest.update((outdir / f"corr_{k:04d}.json").read_bytes())
        assert digest.hexdigest() == (
            "ae635f77c62cd4d14d2eb97ffcb95814918c71551e5d0ad688d5e9a3252cea60")

    def test_strings_held_stay_within_one_chunk(self, tmp_path):
        # 100 matrices are one chunk at n = 25 and 400 are four: the larger
        # batch holds one chunk's containers and strings at a time (the 300
        # extra containers would add ~3 MB, their strings ~16 MB)
        def peak(count):
            argv = ["generate", "--n", "25", "--count", str(count), "--seed", "3",
                    "--out", str(tmp_path / str(count))]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        main(["generate", "--n", "25", "--count", "2", "--out", str(tmp_path / "warm")])
        assert peak(400) - peak(100) <= 2**20

    def test_bad_count_creates_no_directory(self, tmp_path, capsys):
        outdir = tmp_path / "x"
        assert main(["generate", "--n", "3", "--count", "0", "--out", str(outdir)]) == 2
        assert "count must be at least 1" in capsys.readouterr().err
        assert not outdir.exists()

    def test_bad_seed_creates_no_directory(self, tmp_path, capsys):
        outdir = tmp_path / "x"
        assert main(["generate", "--n", "3", "--seed", "-1", "--out", str(outdir)]) == 2
        assert "expected non-negative integer" in capsys.readouterr().err
        assert not outdir.exists()


def stdout_digest(capsys, argv):
    """sha256 of what ``main(argv)`` writes to stdout; the command must succeed."""
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


class TestPinnedBytes:
    """Output bytes pinned by sha256 on each kind of table the renderer
    writes: symmetric (``generate``, ``ar1`` matrix), triangular with many
    zeros (``decompose``, ``ar1`` factor) and with no repeated value
    (``ar1`` samples); and the line ``decompose --check`` prints."""

    GENERATE = {
        (1, "csv"): "406b56cb84cb1d73807fef0915cc9f5d6710fd82f78b507c3e5fc616e378b0f4",
        (1, "json"): "f17de400020cf4a45a3c117f9e9187a27faeeb8f00882d925294fd63e22b2794",
        (2, "csv"): "56f2872b3436907336c7d59182c07414b18d8e4da23389611f1a0f67f70c23d4",
        (2, "json"): "2e6708f652ace259b8eaa79d8cdc533a313e4c873583aac10b73d36f16cd5d2a",
        (3, "csv"): "f987c6420bc7b2964d6b4167b3a06306aae6da27c6755a6962596c7b25070cb3",
        (3, "json"): "91262fc97abf2eb2f21d941cf0331d58ee8583041dbf85c27b342f2eb1213f05",
        (64, "csv"): "5b604c89477f74dc82de62dc2a3b10b759fbf3ee77aaac52a6b183aca0aca434",
        (64, "json"): "5099ee9c1a07ee1350335c66d273ac4412552bd3a4f5443c7092f143c5f42eaa",
    }

    DECOMPOSE = {
        ("reference", False): "d7d06c29479d50b89f8e6a8e647b02f151e132e0a37c5ac9c90d1ad04421ff78",
        ("semipartial", False): "bb7e7eb62283a6b5887b531c148881f9f01fdc6c9eaa13fe8284c3ae7468397f",
        ("detratio", False): "43ef66cfabf8eb90c20b11c5cb261b3503299503263f6dd43f495f638ca0e17a",
        ("reference", True): "4a7be0a1c80621bb20708e16b9ec67524cbbb5d03ed263bc0c13fe4915380276",
        ("semipartial", True): "939fde6b104e3b92984d4461870e76026d362613a94d15ee2f3e6b4132b344d2",
        ("detratio", True): "29cc7cc9766e02e743cc1ad71bf6ccce6cf5986be7fc7704940e9bc3feff6ae2",
    }

    # the stderr line of ``decompose --check`` on the DECOMPOSE inputs; on
    # covariance input both numbers are taken on D^{-1/2} A D^{-1/2}
    CHECK = {
        ("reference", False): "f0b5e5fb708a2c472bd5af4ebe7bc497f5f208ba52f6a27c40d8c4171362dd02",
        ("semipartial", False): "f0b5e5fb708a2c472bd5af4ebe7bc497f5f208ba52f6a27c40d8c4171362dd02",
        ("detratio", False): "f0b5e5fb708a2c472bd5af4ebe7bc497f5f208ba52f6a27c40d8c4171362dd02",
        ("reference", True): "5cfdcc3a9379a5c76de67473ba32ad1ea003d754e8946bf108857ff5fc116705",
        ("semipartial", True): "72961ee3ba99277874b49dcfce22cd56e5144216035bdc9443cbf6a7738cdf92",
        ("detratio", True): "dca76352abbdd1d426d4e33fab5267b352ec6a51abf3a423d11fd17aa66e87e4",
    }

    # elementwise only, so the bytes do not depend on the BLAS build
    AR1 = {
        ("matrix", "-0.9"): "2935e89e4c044655ae2a148eeadf539feab9f7d415fe5a7c4d3f5022fc3f6f1d",
        ("matrix", "0"): "06898f873e3148666e2ff5b341bb33a2907fb1dc9ba9377cbf00c5d59ac39218",
        ("matrix", "0.5"): "8b5b488d79f2bfa4beb5753919a404859fd6ee9c47747997c847bc9bc855da46",
        ("factor", "-0.9"): "c4a36dc7b1e4c2b64465585626e0e61e356a04f8d206b85c694814eba5428e3a",
        ("factor", "0"): "06898f873e3148666e2ff5b341bb33a2907fb1dc9ba9377cbf00c5d59ac39218",
        ("factor", "0.5"): "0570e66543f03e4a6297a448eac174366f86b398afbeeb782b36be6fe09aa162",
    }

    AR1_SAMPLES = "72250ef5ec0380139f0638856fbdc80487739a45d5d74e9c6475a40f849ca081"

    # from n = 3 on, the gemm of generate's LLᵀ sums in a kernel's own order
    @pytest.mark.parametrize("n, fmt", [
        pytest.param(n, fmt, marks=pytest.mark.blas_bits) if n >= 3 else (n, fmt)
        for n, fmt in sorted(GENERATE)])
    def test_generate_over_sign_bias(self, tmp_path, n, fmt):
        digest = hashlib.sha256()
        for bias in ("0", "0.3", "1"):
            outdir = tmp_path / bias
            assert main(["generate", "--n", str(n), "--count", "3", "--seed", "17",
                         "--sign-bias", bias, "--format", fmt, "--out", str(outdir)]) == 0
            for k in range(3):
                digest.update((outdir / f"corr_{k:04d}.{fmt}").read_bytes())
        assert digest.hexdigest() == self.GENERATE[n, fmt]

    @staticmethod
    def decompose_argv(tmp_path, method, covariance):
        r = generate_batch(GeneratorConfig(n=64, seed=2024), 1)[0]
        sig = np.random.default_rng(2024).uniform(0.1, 10.0, 64) if covariance else np.ones(64)
        src = tmp_path / "m.csv"
        write_csv(src, r.values * np.outer(sig, sig))
        return ["decompose", str(src), "--method", method] + ["--covariance"] * covariance

    # input built by generate_batch; the reference passes through potrf, semipartial gemv
    @pytest.mark.blas_bits
    @pytest.mark.parametrize("method, covariance", sorted(DECOMPOSE))
    def test_decompose_n64(self, tmp_path, capsys, method, covariance):
        argv = self.decompose_argv(tmp_path, method, covariance)
        assert stdout_digest(capsys, argv) == self.DECOMPOSE[method, covariance]

    # input built by generate_batch; the line holds reconstruct()'s gemm, potrf and gemv
    @pytest.mark.parametrize("method, covariance", [
        pytest.param(*key, marks=pytest.mark.blas_bits) if key != ("detratio", True) else key
        for key in sorted(CHECK)])
    def test_decompose_check_line_n64(self, tmp_path, capsys, method, covariance):
        assert main(self.decompose_argv(tmp_path, method, covariance) + ["--check"]) == 0
        err = capsys.readouterr().err
        assert hashlib.sha256(err.encode()).hexdigest() == self.CHECK[method, covariance]

    @pytest.mark.parametrize("emit, rho", sorted(AR1))
    def test_ar1_matrix_and_factor(self, capsys, emit, rho):
        argv = ["ar1", "--n", "40", "--rho", rho, "--emit", emit]
        assert stdout_digest(capsys, argv) == self.AR1[emit, rho]

    # the samples are the normals times Lᵀ, one gemm
    @pytest.mark.blas_bits
    def test_ar1_samples(self, capsys):
        argv = ["ar1", "--n", "12", "--rho", "-0.6", "--emit", "samples",
                "--count", "400", "--seed", "5"]
        assert stdout_digest(capsys, argv) == self.AR1_SAMPLES


class TestVerify:
    @pytest.mark.parametrize("n, kappa", [(64, 1e2), (12, 1e4)])
    def test_kappa_family_passes(self, tmp_path, capsys, n, kappa):
        # their determinants lie below TOL_PD (5.4e-22 to 5.9e-22 at n = 64,
        # 7.4e-14 to 8.1e-13 at n = 12); the orderings are judged on the
        # ratios of successive leading minors
        for seed in range(3):
            src = tmp_path / f"k{seed}.csv"
            write_csv(src, kappa_correlation(n, kappa, seed).values)
            assert main(["verify", str(src)]) == 0
            assert "det-order: ok\nratio-order: ok\n" in capsys.readouterr().out

    def test_identity_passes_with_zero_residuals(self, tmp_path, capsys):
        src = tmp_path / "i.csv"
        write_csv(src, np.eye(4))
        assert main(["verify", str(src)]) == 0
        out = capsys.readouterr().out
        assert "det-order: ok" in out
        assert "ratio-order: ok" in out
        assert out.count("residual=0\n") == 4

    def test_ill_conditioned_accepted_input_is_evaluated(self, tmp_path, capsys):
        # n = 64, kappa = 1e10, seed 5: every verifier reports a residual
        # within the default --tol
        src = tmp_path / "k.csv"
        write_csv(src, kappa_correlation(64, 1e10, 5).values)
        assert main(["verify", str(src)]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("det-order: ok\nratio-order: ok\n")
        assert captured.out.count("residual=") == 4
        assert captured.err == ""

    def test_pivot_near_tol_pd_passes_decompose_and_verify(self, tmp_path, capsys):
        # kappa = 1e12, n = 12, seed 2: the smallest Schur pivot, 2.6e-11, is
        # within two orders of TOL_PD, and decompose --check and verify agree
        # that the matrix is positive-definite; the largest residual reads
        # 9.7e-15 to 4.04e-14 under the SkylakeX, Haswell, Sandybridge and
        # Prescott kernels
        r = kappa_correlation(12, 1e12, 2)
        assert TOL_PD < np.min(_schur_steps(r.values)[0]) < 100 * TOL_PD
        src = tmp_path / "k.csv"
        write_csv(src, r.values)
        assert main(["decompose", str(src), "--check"]) == 0
        capsys.readouterr()
        assert main(["verify", str(src)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith("det-order: ok\nratio-order: ok\n")
        residuals = [float(line.split("=")[1]) for line in captured.out.splitlines()
                     if "residual=" in line]
        assert len(residuals) == 4 and max(residuals) < 1e-13

    @pytest.mark.parametrize("n, kappa", [(120, 1e8), (200, 1e6)])
    def test_underflowing_minors_leave_every_residual_in_contract(self, tmp_path, capsys,
                                                                  n, kappa):
        # the last leading minors underflow to 0; ratio_differences scales
        # by the pivots, not by ratios of minors, so it stays finite
        r = kappa_correlation(n, kappa, 0)
        assert leading_minor_determinants(r)[-1] == 0.0
        src = tmp_path / "k.csv"
        write_csv(src, r.values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", str(src)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        residuals = [float(line.split("=")[1]) for line in captured.out.splitlines()
                     if "residual=" in line]
        assert len(residuals) == 4
        assert all(np.isfinite(x) and x <= contract_bound(r) for x in residuals)

    def test_walks_the_inverse_chain_once(self, tmp_path, monkeypatch):
        # the three chain verifiers share one walk (n - 1 solves) and the
        # two semi-partial readers share one factor; each is counted where
        # the identities module looks it up
        import cholcorr.identities as identities
        src = tmp_path / "r.csv"
        write_csv(src, generate_batch(GeneratorConfig(n=25, seed=4), 1)[0].values)
        calls = dict.fromkeys(("solve", "chol_semipartial"), 0)

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(np.linalg, "solve", counting("solve", np.linalg.solve))
        monkeypatch.setattr(identities, "chol_semipartial",
                            counting("chol_semipartial", identities.chol_semipartial))
        assert main(["verify", str(src)]) == 0
        assert calls == {"solve": 24, "chol_semipartial": 1}

    def test_nan_residual_fails(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "r.csv"
        write_csv(src, generate_batch(GeneratorConfig(n=6, seed=2), 1)[0].values)
        monkeypatch.setattr(cli, "verify", lambda r: (
            IdentityReport("product_sums", float("nan"), (1, 2, 0)),))
        assert main(["verify", str(src)]) == 1
        captured = capsys.readouterr()
        assert "product_sums: residual=nan\n" in captured.out
        assert "failed: product_sums residual exceeds" in captured.err

    def test_non_positive_definite_names_ordering(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("1,0.9,0.9\n0.9,1,0.1\n0.9,0.1,1\n")
        assert main(["verify", str(src)]) == 1
        captured = capsys.readouterr()
        assert "violated" in captured.out
        assert "ordering" in captured.err

    def test_positive_definite_construction_failure(self, tmp_path, capsys, monkeypatch):
        # orderings judged to pass on a matrix the container then rejects
        src = tmp_path / "bad.csv"
        src.write_text("1,0.9,0.9\n0.9,1,0.1\n0.9,0.1,1\n")
        monkeypatch.setattr(cli, "check_order_conditions", lambda a: True)
        assert main(["verify", str(src)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "det-order: ok\nratio-order: ok\n"
        assert captured.err == ("failed: positive-definite construction "
                                "(matrix is not positive-definite: pivot 3 is -2.463158e+00)\n")

    def test_asymmetric_is_usage_error(self, tmp_path):
        src = tmp_path / "asym.csv"
        src.write_text("1,0.5\n0.2,1\n")
        assert main(["verify", str(src)]) == 2

    def test_small_matrices_skip_inapplicable_checks(self, tmp_path, capsys):
        src = tmp_path / "r2.csv"
        src.write_text("1,0.3\n0.3,1\n")
        assert main(["verify", str(src)]) == 0
        assert "n/a" in capsys.readouterr().out

    def test_out_is_not_an_option(self, tmp_path, capsys):
        # verify prints its report; an --out it would ignore is a usage error
        src, out = tmp_path / "r2.csv", tmp_path / "report.txt"
        src.write_text("1,0.3\n0.3,1\n")
        with pytest.raises(SystemExit) as exc:
            main(["verify", str(src), "--out", str(out)])
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [src]


class TestTolerance:
    """``--tol`` of ``verify`` and ``decompose --check``: nan and negative
    values are usage errors; 0 and inf are valid."""

    COMMANDS = {"verify": ["verify"], "decompose": ["decompose", "--check"]}

    @pytest.fixture
    def matrix(self, tmp_path):
        src = tmp_path / "r.csv"
        write_csv(src, generate_batch(GeneratorConfig(n=6, seed=2), 1)[0].values)
        return str(src)

    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize("tol", ["nan", "-1", "-0.5", "NaN"])
    def test_nan_and_negative_are_usage_errors(self, matrix, capsys, command, tol):
        with pytest.raises(SystemExit) as exc:
            main([*self.COMMANDS[command], matrix, "--tol", tol])
        assert exc.value.code == 2
        assert f"argument --tol: expected a number >= 0, got {tol!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_non_number_is_a_usage_error(self, matrix, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([*self.COMMANDS[command], matrix, "--tol", "abc"])
        assert exc.value.code == 2
        assert "argument --tol: expected a number >= 0, got 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_negative_in_exponent_form_is_a_usage_error(self, matrix, capsys, command):
        # argparse alone reads "-1e-9" as an option, not as the value of --tol
        with pytest.raises(SystemExit) as exc:
            main([*self.COMMANDS[command], matrix, "--tol", "-1e-9"])
        assert exc.value.code == 2
        assert "argument --tol: expected a number >= 0, got '-1e-9'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main([*self.COMMANDS[command], matrix, "--tol=-1e-9"])
        assert exc.value.code == 2
        assert "argument --tol: expected a number >= 0, got '-1e-9'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_zero_fails_the_check_and_inf_passes_it(self, matrix, command):
        argv = [*self.COMMANDS[command], matrix, "--tol"]
        assert main([*argv, "0"]) == 1
        assert main([*argv, "inf"]) == 0
        assert main(argv[:-1]) == 0


class TestParser:
    def test_every_flag_is_read_by_its_command(self):
        subparsers = next(a for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        unread = []
        for command, parser in subparsers.choices.items():
            source = inspect.getsource(parser.get_default("func"))
            if "write_output(" in source:  # it reads --out for the command
                source += inspect.getsource(cli.write_output)
            unread += [(command, action.dest) for action in parser._actions
                       if action.dest not in ("help", "func")
                       and f"args.{action.dest}" not in source]
        assert unread == []


class TestManifest:
    """A manifest's options are every option its subcommand parsed but
    --out, as the command resolved it."""

    @staticmethod
    def dests(command):
        subparsers = next(a for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        return {a.dest for a in subparsers.choices[command]._actions} - {"help", "out"}

    def test_options_are_the_resolved_arguments(self, tmp_path):
        matrix, block = tmp_path / "r.csv", tmp_path / "x.json"
        matrix.write_text("1,0.5\n0.5,1\n")
        block.write_text(render_table(np.random.default_rng(1).standard_normal((30, 3)), "json"))
        runs = {
            "decompose": (["decompose", str(matrix), "--out", str(tmp_path / "L.json")],
                          tmp_path / "L.json.manifest.json",
                          {"input": str(matrix), "method": "semipartial", "covariance": False,
                           "check": False, "tol": 1e-9, "format": "json"}),
            "generate": (["generate", "--n", "3", "--out", str(tmp_path / "g")],
                         tmp_path / "g" / "manifest.json",
                         {"n": 3, "count": 1, "sign_bias": 0.5, "format": "csv", "seed": 0}),
            "test": (["test", str(block), "--out", str(tmp_path / "t.txt")],
                     tmp_path / "t.txt.manifest.json",
                     {"data": str(block), "target": 3, "alpha": 0.05}),
            "ar1": (["ar1", "--n", "3", "--rho", "0.2", "--out", str(tmp_path / "a.out")],
                    tmp_path / "a.out.manifest.json",
                    {"n": 3, "rho": 0.2, "emit": "matrix", "count": 1, "format": "csv",
                     "seed": 0}),
        }
        for command, (argv, path, options) in runs.items():
            assert main(argv) == 0
            manifest = json.loads(path.read_text())
            assert manifest["command"] == command
            assert set(manifest["options"]) == self.dests(command), command
            assert manifest["options"] == options, command

    def test_non_finite_option_is_strict_json(self, tmp_path, capsys):
        def reject(constant):
            raise ValueError(f"not RFC 8259 JSON: {constant}")

        matrix = tmp_path / "r.csv"
        matrix.write_text("1,0.5\n0.5,1\n")
        argv = ["decompose", str(matrix), "--tol", "inf", "--check", "--out",
                str(tmp_path / "L.csv")]
        assert main(argv) == 0
        text = (tmp_path / "L.csv.manifest.json").read_text()
        assert json.loads(text, parse_constant=reject)["options"]["tol"] == "inf"



class TestWriteFile:
    """``cli._write_file`` unlinks and creates anew only a regular file with
    one link; every other path is written in place."""

    @pytest.fixture
    def unlinked(self, monkeypatch):
        """The paths ``os.unlink`` is called with, each then unlinked."""
        calls, unlink = [], os.unlink

        def record(path, *args, **kwargs):
            calls.append(os.fspath(path))
            unlink(path, *args, **kwargs)

        monkeypatch.setattr(os, "unlink", record)
        return calls

    def test_a_regular_file_is_replaced(self, tmp_path, unlinked):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        with path.open() as old:  # held open, so its inode number is not reused
            cli._write_file(path, "new\n")
            assert os.fstat(old.fileno()).st_nlink == 0
            assert path.stat().st_ino != os.fstat(old.fileno()).st_ino
            assert old.read() == "old\n"
        assert unlinked == [str(path)]
        assert path.read_text() == "new\n"

    def test_a_missing_path_is_created(self, tmp_path, unlinked):
        path = tmp_path / "out.csv"
        cli._write_file(path, "new\n")
        assert unlinked == []
        assert path.read_text() == "new\n"

    def test_a_symlink_is_written_through(self, tmp_path, unlinked):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old\n")
        link.symlink_to(target)
        cli._write_file(link, "new\n")
        assert unlinked == []
        assert link.is_symlink() and target.read_text() == "new\n"

    def test_a_hard_linked_file_is_written_in_place(self, tmp_path, unlinked):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        first.write_text("old\n")
        os.link(first, second)
        inode = first.stat().st_ino
        cli._write_file(first, "new\n")
        assert unlinked == []
        assert first.read_text() == second.read_text() == "new\n"
        assert first.stat().st_ino == second.stat().st_ino == inode

    def test_a_device_is_written_in_place(self, monkeypatch):
        # neither call reaches the device: a wrong guard must not unlink it
        unlinked, written = [], []
        monkeypatch.setattr(os, "unlink", lambda path, *args, **kwargs: unlinked.append(path))
        monkeypatch.setattr(Path, "write_text", lambda path, text: written.append((path, text)))
        cli._write_file(Path(os.devnull), "new\n")
        assert unlinked == []
        assert written == [(Path(os.devnull), "new\n")]

    def test_a_fifo_is_written_in_place(self, tmp_path, unlinked):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so the write opens at once
        try:
            cli._write_file(fifo, "new\n")
            assert os.read(reader, 64) == b"new\n"
        finally:
            os.close(reader)
        assert unlinked == []

    @pytest.mark.parametrize("call", ["lstat", "unlink"])
    def test_an_os_error_falls_back_to_writing_in_place(self, tmp_path, monkeypatch, call):
        def refuse(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", os.fspath(path))

        path = tmp_path / "out.csv"
        path.write_text("old\n")
        inode = path.stat().st_ino
        monkeypatch.setattr(os, call, refuse)
        cli._write_file(path, "new\n")
        assert path.read_text() == "new\n"
        assert os.stat(path).st_ino == inode

    def test_a_rerun_replaces_the_output_and_its_manifest(self, tmp_path, unlinked):
        src, out = tmp_path / "r.csv", tmp_path / "L.csv"
        src.write_text("1,0.5\n0.5,1\n")
        argv = ["decompose", str(src), "--out", str(out)]
        paths = [out, tmp_path / "L.csv.manifest.json"]
        assert main(argv) == 0
        firsts = [path.open("rb") for path in paths]  # keep the old inodes alive
        try:
            assert main(argv) == 0
            for path, first in zip(paths, firsts):
                assert path.stat().st_ino != os.fstat(first.fileno()).st_ino
                assert path.read_bytes() == first.read()
        finally:
            for first in firsts:
                first.close()
        assert unlinked == [str(path) for path in paths]

    @pytest.mark.skipif(os.geteuid() == 0, reason="root may unlink in a read-only directory")
    def test_a_writable_file_in_a_read_only_directory_is_written(self, tmp_path, capsys):
        src, outdir = tmp_path / "r.csv", tmp_path / "ro"
        src.write_text("1,0.5\n0.5,1\n")
        outdir.mkdir()
        argv = ["decompose", str(src), "--out", str(outdir / "L.csv")]
        assert main(argv) == 0
        expected = {path.name: path.read_bytes() for path in outdir.iterdir()}
        for path in outdir.iterdir():
            path.write_text("old\n")
        outdir.chmod(0o555)
        try:
            assert main(argv) == 0
            assert {path.name: path.read_bytes() for path in outdir.iterdir()} == expected
        finally:
            outdir.chmod(0o755)
        assert capsys.readouterr().err == ""


class TestTest:
    def test_report_structure(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        src = tmp_path / "data.csv"
        write_csv(src, rng.standard_normal((40, 3)))
        assert main(["test", str(src), "--alpha", "0.05"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["alpha"] == 0.05
        assert [row["k"] for row in report["per_k"]] == [1, 2]
        assert report["variable_order"] == [1, 2, 3]

    def test_two_variable_df(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        src = tmp_path / "data2.csv"
        write_csv(src, rng.standard_normal((30, 2)))
        assert main(["test", str(src)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["per_k"][0]["df"] == 28

    def test_dependent_target_detected(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        base = rng.standard_normal((200, 2))
        target = base[:, 0] + 0.05 * rng.standard_normal(200)
        src = tmp_path / "dep.csv"
        write_csv(src, np.column_stack([base, target]))
        assert main(["test", str(src), "--target", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["largest_rejected_k"] >= 1

    def test_validates_the_block_once(self, tmp_path, monkeypatch):
        calls = []
        init = dependence_test.SampleMatrix.__init__

        def counting(self, *args, **kwargs):
            calls.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(dependence_test.SampleMatrix, "__init__", counting)
        src = tmp_path / "x.csv"
        write_csv(src, np.random.default_rng(8).standard_normal((2000, 10)))
        assert main(["test", str(src), "--target", "3"]) == 0
        assert len(calls) == 1

    def test_too_few_samples_is_usage_error(self, tmp_path):
        src = tmp_path / "tiny.csv"
        write_csv(src, np.eye(3))
        assert main(["test", str(src)]) == 2

    def test_constant_column_is_named_in_input_order(self, tmp_path, capsys):
        # a nonzero constant leaves rounding crumbs of variance; the column
        # is named as given, not where moving the target last put it
        data = np.random.default_rng(7).standard_normal((50, 10))
        data[:, 0] = 0.1
        src = tmp_path / "const.csv"
        write_csv(src, data)
        assert main(["test", str(src), "--target", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("column 1 has no sample variance\n")

    @pytest.mark.parametrize("shape", [(2000, 10), (12, 4)])
    def test_report_matches_betaincinv_quantile(self, tmp_path, capsys, monkeypatch, shape):
        # the report printed with the scipy quantile swapped in: every line
        # but the critical values is byte-identical, and those agree to 1e-13
        rng = np.random.default_rng([shape[0], 3])
        data = rng.standard_normal(shape)
        data[:, -1] += 0.3 * data[:, 1]
        src = tmp_path / "x.csv"
        write_csv(src, data)
        assert main(["test", str(src)]) == 0
        ours = capsys.readouterr().out
        monkeypatch.setattr(dependence_test, "_t_quantile", t_quantile_betaincinv)
        # the critical value is cached: drop ours so the swapped quantile is
        # read, then drop its value so no later test reads it
        dependence_test._critical_value.cache_clear()
        try:
            assert main(["test", str(src)]) == 0
        finally:
            dependence_test._critical_value.cache_clear()
        theirs = capsys.readouterr().out

        def other_lines(text):
            return [line for line in text.splitlines() if '"critical"' not in line]

        def critical(text):
            return [row["critical"] for row in json.loads(text)["per_k"]]

        assert other_lines(ours) == other_lines(theirs)
        assert len(critical(ours)) == shape[1] - 1
        for got, want in zip(critical(ours), critical(theirs)):
            assert abs(got - want) <= 1e-13 * want


    @pytest.mark.parametrize("shape", [(3, 2), (2000, 10)])
    @pytest.mark.parametrize("alpha", ["1e-17", "1e-300", "2.2250738585072014e-308"])
    def test_tiny_alpha_has_a_finite_critical_value(self, tmp_path, capsys, shape, alpha):
        # 1 - alpha/2 rounds to 1 here, so only the tail alpha/2 names the
        # quantile; down to the smallest normal alpha the output is strict JSON
        src = tmp_path / "x.csv"
        write_csv(src, np.random.default_rng(list(shape)).standard_normal(shape))
        assert main(["test", str(src), "--alpha", alpha]) == 0

        def refuse(name):
            raise ValueError(f"not JSON: {name}")

        for row in json.loads(capsys.readouterr().out, parse_constant=refuse)["per_k"]:
            assert math.isfinite(row["critical"]) and row["critical"] > 0.0

    @pytest.mark.parametrize("shape", [(3, 2), (2000, 10)])
    @pytest.mark.parametrize("alpha", ["1e-320", "5e-324"])
    def test_alpha_below_the_smallest_normal_is_usage_error(self, tmp_path, capsys, shape, alpha):
        # the df = 1 quantile would overflow, and 5e-324 / 2 rounds to 0
        src = tmp_path / "x.csv"
        write_csv(src, np.random.default_rng(list(shape)).standard_normal(shape))
        assert main(["test", str(src), "--alpha", alpha]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        smallest = "2.2250738585072014e-308"
        assert captured.err == f"error: alpha must lie in [{smallest}, 1), got {alpha}\n"


class TestAr1:
    def test_matrix_identity(self, capsys):
        assert main(["ar1", "--n", "3", "--rho", "0"]) == 0
        np.testing.assert_array_equal(read_stdout_csv(capsys), np.eye(3))

    def test_factor_closed_form(self, capsys):
        assert main(["ar1", "--n", "3", "--rho", "0.5", "--emit", "factor"]) == 0
        out = read_stdout_csv(capsys)
        np.testing.assert_allclose(out, ar1_cholesky(Ar1Spec(3, 0.5)).entries, atol=1e-15)

    def test_unit_rho_is_usage_error(self, capsys):
        assert main(["ar1", "--n", "3", "--rho", "1"]) == 2

    def test_samples_shape_and_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["ar1", "--n", "4", "--rho", "0.3", "--emit", "samples",
                         "--count", "6", "--seed", "11", "--out", str(path)]) == 0
        assert a.read_text() == b.read_text()
        assert read_csv(a).shape == (6, 4)

    def test_bad_count_writes_no_file(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["ar1", "--n", "3", "--rho", "0.3", "--emit", "samples",
                     "--count", "0", "--out", str(out)]) == 2
        assert "count must be at least 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def read_stdout_csv(capsys):
    out = capsys.readouterr().out
    return np.array([[float(v) for v in line.split(",")] for line in out.splitlines() if line])


class TestRoundTrip:
    def test_generate_decompose_reconstruct_100_seeds(self, tmp_path):
        worst = 0.0
        for seed in range(100):
            outdir = tmp_path / f"rt{seed}"
            assert main(["generate", "--n", "5", "--seed", str(seed),
                         "--out", str(outdir)]) == 0
            src = outdir / "corr_0000.csv"
            ell_path = tmp_path / f"L{seed}.csv"
            assert main(["decompose", str(src), "--method", "semipartial",
                         "--out", str(ell_path)]) == 0
            ell = read_csv(ell_path)
            original = read_csv(src)
            worst = max(worst, float(np.max(np.abs(ell @ ell.T - original))))
        assert worst <= 1e-9


class TestRepeatedMain:
    """``main`` reuses one parser per process; back-to-back calls must
    behave as fresh ones."""

    def run(self, capsys, argv):
        code = main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_flags_do_not_carry_over(self, tmp_path, capsys):
        good = tmp_path / "r.csv"
        write_csv(good, generate_batch(GeneratorConfig(n=6, seed=2), 1)[0].values)
        rng = np.random.default_rng(12)
        sample = tmp_path / "x.csv"
        write_csv(sample, rng.standard_normal((40, 3)))
        sequence = [
            ["decompose", str(good), "--check", "--tol", "1e-30"],
            ["decompose", str(good), "--check"],
            ["test", str(sample), "--target", "1"],
            ["test", str(sample)],
        ]
        back_to_back = [self.run(capsys, argv) for argv in sequence]
        assert [code for code, _, _ in back_to_back] == [1, 0, 0, 0]
        for argv, got in zip(sequence, back_to_back):
            cli.build_parser.cache_clear()
            assert self.run(capsys, argv) == got, argv
        assert json.loads(back_to_back[3][1])["variable_order"] == [1, 2, 3]


class TestConsoleScript:
    def test_module_invocation(self, tmp_path):
        src = tmp_path / "r.csv"
        src.write_text("1,0.25\n0.25,1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "cholcorr.cli", "decompose", str(src)],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "1,0"

    def test_import_budget(self, tmp_path):
        # beyond numpy, importing the CLI loads only argparse, json and
        # cholcorr itself; the t quantile of `test` loads no statistics
        sample = tmp_path / "x.csv"
        write_csv(sample, np.random.default_rng(8).standard_normal((50, 3)))
        script = """
import sys
import numpy
before = set(sys.modules)
from cholcorr.cli import main
added = sorted(set(sys.modules) - before)
code = main(["test", sys.argv[1], "--out", sys.argv[2]])
import json
print(json.dumps([added, code, sorted({"statistics", "decimal", "fractions"} & set(sys.modules))]))
"""
        out = tmp_path / "t.json"
        proc = subprocess.run([sys.executable, "-c", script, str(sample), str(out)],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        added, code, unwanted = json.loads(proc.stdout)
        assert {m for m in added if not m.startswith(("cholcorr.", "json."))} == {
            "__future__", "_json", "argparse", "cholcorr", "gc", "gettext", "json"}
        assert code == 0 and unwanted == []
        assert json.loads(out.read_text())["variable_order"] == [1, 2, 3]


    def test_no_scipy_after_any_command(self, tmp_path):
        good, bad, sample = tmp_path / "r.csv", tmp_path / "bad.csv", tmp_path / "x.csv"
        write_csv(good, generate_batch(GeneratorConfig(n=6, seed=2), 1)[0].values)
        bad.write_text("1,0.9,0.9\n0.9,1,0.1\n0.9,0.1,1\n")
        write_csv(sample, np.random.default_rng(8).standard_normal((50, 3)))
        script = """
import contextlib, io, json, sys
from cholcorr.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()

good, bad, sample, outdir = sys.argv[1:]
result = {"import": scipy_modules()}
result["codes"] = [run("generate", "--n", "5", "--count", "2", "--out", outdir)[0],
                   run("decompose", good, "--check")[0],
                   run("verify", good)[0]]
result["test"] = run("test", sample)
result["accept"] = scipy_modules()
result["reject"] = run("decompose", bad)[0]
result["rejected"] = scipy_modules()
print(json.dumps(result))
"""
        proc = subprocess.run(
            [sys.executable, "-c", script, str(good), str(bad), str(sample), str(tmp_path / "g")],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result["import"] == [] and result["accept"] == []
        assert result["codes"] == [0, 0, 0]
        assert result["reject"] == 3
        assert "error: matrix is not positive-definite: pivot 3 " in proc.stderr
        assert result["rejected"] == []
        code, report = result["test"]
        assert code == 0
        assert [row["k"] for row in json.loads(report)["per_k"]] == [1, 2]


class TestFreeze:
    """``main()`` run as the program freezes the objects left by the imports;
    ``main(argv)`` and importing the package freeze nothing."""

    PROGRAM = """
import contextlib, gc, io, json, sys
from cholcorr.cli import main

before = gc.get_freeze_count()
sys.argv = ["cholcorr", *sys.argv[1:]]
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = main()
print(json.dumps([before, gc.get_freeze_count(), code, out.getvalue(), err.getvalue()]))
"""

    @pytest.fixture
    def inputs(self, tmp_path):
        good, sample = tmp_path / "r.csv", tmp_path / "x.csv"
        write_csv(good, generate_batch(GeneratorConfig(n=6, seed=2), 1)[0].values)
        write_csv(sample, np.random.default_rng(8).standard_normal((50, 3)))
        return {"good": str(good), "sample": str(sample), "tmp": str(tmp_path)}

    @pytest.mark.parametrize("argv", [
        ["decompose", "{good}", "--check", "--method", "detratio"],
        ["test", "{sample}", "--target", "2"],
        ["generate", "--n", "7", "--count", "3", "--seed", "11", "--out", "{tmp}/{side}"],
    ])
    def test_program_run_freezes_and_writes_the_same_bytes(self, inputs, capsys, argv):
        def run_args(side):
            return [arg.format(side=side, **inputs) for arg in argv]

        proc = subprocess.run([sys.executable, "-c", self.PROGRAM, *run_args("program")],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        before, after, code, out, err = json.loads(proc.stdout)
        assert before == 0 and after > 0
        assert main(run_args("in-process")) == code == 0
        assert capsys.readouterr() == (out, err)
        if argv[0] == "generate":
            program, in_process = (Path(inputs["tmp"], side) for side in ("program", "in-process"))
            names = sorted(p.name for p in program.iterdir())
            assert names == sorted(p.name for p in in_process.iterdir())
            assert len(names) == 4
            for name in names:
                assert (program / name).read_bytes() == (in_process / name).read_bytes()

    def test_in_process_main_freezes_nothing(self, inputs, capsys):
        before = gc.get_freeze_count()
        assert main(["decompose", inputs["good"]]) == 0
        assert main(["test", inputs["sample"]]) == 0
        assert gc.get_freeze_count() == before

    def test_imports_freeze_nothing(self):
        script = ("import gc, json\n"
                  "import cholcorr\n"
                  "counts = [gc.get_freeze_count()]\n"
                  "import cholcorr.cli\n"
                  "print(json.dumps(counts + [gc.get_freeze_count()]))\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [0, 0]
