"""End-to-end CLI behavior through real subprocesses; record bytes in process."""

import io
import json
import os
import random
import re
import resource
import subprocess
import sys
import types

import numpy as np
import pytest

from cyclotope import (
    ORACLE_CAP, CountTable, cli, count_by_negpart_and_size, count_cycle_topes_by_negpart, cycle,
    Tope, enumerate_statistics, formula_table, spectrum_fast,
)
from cyclotope import bench, decomposition, equinumerosity
from cyclotope.cycle import DENSE_CAP
from cyclotope.topes import _BLOCK
from cyclotope.verification import _SWEEPS


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "cyclotope", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


class TestCycleCommand:
    def test_vertices_t3(self):
        proc = run_cli("cycle", "--t", "3")
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == ["+++", "-++", "--+", "---", "+--", "++-"]

    def test_inverse_matrix(self):
        proc = run_cli("cycle", "--t", "3", "--inverse")
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == ["denom: 2", "1 -1 0", "0 1 -1", "1 0 1"]

    def test_vertex_matrix_header(self):
        proc = run_cli("cycle", "--t", "4", "--matrix")
        lines = proc.stdout.splitlines()
        assert lines[0] == "denom: 1"
        assert lines[1] == "1 1 1 1"
        assert len(lines) == 5

    def test_omega_matrix(self):
        proc = run_cli("cycle", "--t", "5", "--omega")
        lines = proc.stdout.splitlines()
        assert lines[0] == "denom: 4"
        assert lines[1] == "2 -1 0 0 1"

    def test_flags_are_exclusive(self):
        proc = run_cli("cycle", "--t", "4", "--matrix", "--omega")
        assert proc.returncode == 2

    @pytest.mark.parametrize("flag", ["--matrix", "--inverse", "--omega"])
    def test_matrix_above_the_dense_cap_exits_2_before_building_it(
        self, capsys, monkeypatch, flag
    ):
        def refuse(t):
            raise AssertionError(f"built the entries of a {t} x {t} matrix")

        monkeypatch.setattr(cycle, "_matrix_entries", refuse)
        monkeypatch.setattr(cycle, "_inverse_entries", refuse)
        t = DENSE_CAP + 1
        assert cli.main(["cycle", "--t", str(t), flag]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: a dense {t} x {t} cycle matrix is capped at t = {DENSE_CAP}\n"


class TestDecomposeCommand:
    def test_json_record(self):
        proc = run_cli("decompose", "--t", "5", "--tope", "+--++")
        assert proc.returncode == 0
        record = json.loads(proc.stdout)
        assert record["x"] == [1, -1, 0, 1, 0]
        assert record["terms"] == [
            {"sign": 1, "index": 0},
            {"sign": -1, "index": 1},
            {"sign": 1, "index": 3},
        ]
        assert record["size"] == 3

    def test_record_has_no_agreement_field(self):
        proc = run_cli("decompose", "--t", "4", "--tope", "++++")
        record = json.loads(proc.stdout)
        assert list(record) == ["x", "terms", "size"]
        assert record["x"] == [1, 0, 0, 0]

    def test_wrong_length_is_usage_error(self):
        proc = run_cli("decompose", "--t", "5", "--tope", "+--+")
        assert proc.returncode == 2
        assert "length" in proc.stderr

    def test_leading_minus_via_equals_form(self):
        proc = run_cli("decompose", "--t", "3", "--tope=-+-")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["x"] == [-1, 1, -1]

    def test_bad_characters_usage_error(self):
        proc = run_cli("decompose", "--t", "3", "--tope", "+0-")
        assert proc.returncode == 2

    def test_bad_character_error_is_bounded_by_the_position_not_the_tope(self):
        # The line names the first bad position and its character; it does
        # not echo the 100,000-character tope.
        t = 100000
        proc = run_cli("decompose", "--t", str(t), "--tope", "-", input="+" * (t - 1) + "x")
        assert proc.returncode == 2
        assert proc.stderr == ("error: tope string must be over '+'/'-': "
                               f"position {t} of {t} is 'x'\n")
        assert len(proc.stderr.encode()) < 200

    def test_tope_from_stdin_past_the_argv_limit(self):
        # 200000 characters exceed the 128 KiB argv cap on one argument.
        t = 200000
        rng = random.Random(3)
        tope = "-" + "".join(rng.choice("+-") for _ in range(t - 1))
        proc = run_cli("decompose", "--t", str(t), "--tope", "-", input=tope + "\n")
        assert proc.returncode == 0, proc.stderr
        record = json.loads(proc.stdout)
        changes = sum(a != b for a, b in zip(tope, tope[1:]))
        assert record["size"] == changes + (tope[0] == tope[-1])
        assert len(record["x"]) == t and len(record["terms"]) == record["size"]

    def test_stdin_strips_one_trailing_newline_only(self):
        proc = run_cli("decompose", "--t", "5", "--tope", "-", input="+--++\n")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["size"] == 3
        proc = run_cli("decompose", "--t", "5", "--tope", "-", input="+--++\n\n")
        assert proc.returncode == 2
        assert "length" in proc.stderr

    def test_stdin_wrong_length_is_usage_error(self):
        proc = run_cli("decompose", "--t", "5", "--tope", "-", input="+--+")
        assert proc.returncode == 2
        assert "length" in proc.stderr

    def test_determinism(self):
        a = run_cli("decompose", "--t", "6", "--tope", "+-+-+-")
        b = run_cli("decompose", "--t", "6", "--tope", "+-+-+-")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout != ""


def _decompose_record(tope):
    """The decompose stdout for a tope string: json.dumps of the dict record.

    The spectrum is the telescoping form computed on the characters, so the
    reference shares no code with the library.
    """
    s = [1 if c == "+" else -1 for c in tope]
    return _decompose_record_of([(s[0] + s[-1]) // 2] + [(b - a) // 2 for a, b in zip(s, s[1:])])


def _decompose_record_of(x):
    """json.dumps of the dict record of the coordinate list x, and a newline."""
    record = {
        "x": x,
        "terms": [{"sign": c, "index": i} for i, c in enumerate(x) if c],
        "size": sum(1 for c in x if c),
    }
    return json.dumps(record) + "\n"


def _topes(t):
    """All-plus, all-minus, alternating and random topes of three densities."""
    rng = random.Random(t)
    yield "+" * t
    yield "-" * t
    yield ("+-" * t)[:t]
    for density in (0.5, 0.05, 0.005):
        sign, chars = rng.random() < 0.5, []
        for _ in range(t):
            sign ^= rng.random() < density
            chars.append("+" if sign else "-")
        yield "".join(chars)


# The record is rendered in blocks of at most _BLOCK bytes.  An x block holds
# _BLOCK // 4 coordinates, one "-1, " each at the widest; a block of the
# terms with five-digit indices holds _BLOCK // 30 of them, and an
# alternating tope of t = 10^4 + k has k such terms.
_X_BLOCK = _BLOCK // len("-1, ")
_TERM_BLOCK = 10**4 + _BLOCK // len('{"sign": -1, "index": 10000}, ')


class TestDecomposeRecordBytes:
    """In-process decompose stdout equals json.dumps of the dict record, for
    the tope given in argv and read from stdin."""

    # 10, 100 and 1000 add an index digit, and with it a new run of term rows;
    # the rest sit one below, at and one above a block boundary, _BLOCK
    # coordinates being also the window the terms are found in.
    @pytest.mark.parametrize("t", [
        3, 4, 5, 10, 11, 17, 100, 101, 1000, 1001, 1500,
        _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1,
        _X_BLOCK - 1, _X_BLOCK, _X_BLOCK + 1, 2 * _X_BLOCK, 2 * _X_BLOCK + 1,
        _BLOCK // 3 - 1, _BLOCK // 3, _BLOCK // 3 + 1,
        _TERM_BLOCK - 1, _TERM_BLOCK, _TERM_BLOCK + 1,
    ])
    @pytest.mark.parametrize("source", ["argv", "stdin"])
    def test_stdout_is_the_json_dumps_of_the_record(self, capsys, monkeypatch, t, source):
        for tope in _topes(t):
            if source == "stdin":
                monkeypatch.setattr(sys, "stdin", io.StringIO(tope + "\n"))
            argv = ["--tope=" + tope] if source == "argv" else ["--tope", "-"]
            rc = cli.main(["decompose", "--t", str(t), *argv])
            out, err = capsys.readouterr()
            assert (rc, err) == (0, "")
            assert out == _decompose_record(tope)


class TestDecomposeStreaming:
    """decompose yields its record a row block at a time, so no piece is
    longer than _BLOCK bytes, and writes each piece as it comes."""

    @pytest.mark.parametrize("t", [3, 1001, _TERM_BLOCK, 65536, 10**6])
    def test_no_piece_is_longer_than_a_block(self, t):
        alternating = spectrum_fast(Tope.from_string(("+-" * t)[:t])).coords
        # Not a spectrum, but every x cell and term is at its widest.
        minus = np.full(t, -1, dtype=np.int8)
        for coords in alternating, minus:
            pieces = list(cli._decompose_parts(coords))
            assert max(map(len, pieces)) <= _BLOCK
            assert json.loads("".join(pieces))["x"] == coords.tolist()
        assert "".join(pieces) == _decompose_record_of([-1] * t)

    def test_a_failure_mid_record_leaves_its_prefix_and_exits_2(self, capsys, monkeypatch):
        rows, calls = cli._rows, []

        def fail_on_the_third_block(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise MemoryError
            return rows(*args, **kwargs)

        t = 3 * _X_BLOCK
        tope = ("+-" * t)[:t]
        monkeypatch.setattr(cli, "_rows", fail_on_the_third_block)
        assert cli.main(["decompose", "--t", str(t), "--tope=" + tope]) == 2
        out, err = capsys.readouterr()
        assert err == "error: MemoryError\n"
        assert len(out) > 2 * _X_BLOCK * len("0, ")
        assert _decompose_record(tope).startswith(out)

    def test_a_library_fault_mid_record_leaves_its_prefix_and_exits_1(self, capsys, monkeypatch):
        rows, calls = cli._rows, []

        def fail_on_the_third_block(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise RuntimeError("boom")
            return rows(*args, **kwargs)

        t = 3 * _X_BLOCK
        tope = ("+-" * t)[:t]
        monkeypatch.setattr(cli, "_rows", fail_on_the_third_block)
        assert cli.main(["decompose", "--t", str(t), "--tope=" + tope]) == 1
        out, err = capsys.readouterr()
        assert err == "error: RuntimeError: boom\n"
        assert len(out) > 2 * _X_BLOCK * len("0, ")
        assert _decompose_record(tope).startswith(out)


class TestStatsCommand:
    def test_csv_formula_only(self):
        proc = run_cli("stats", "--t", "4")
        lines = proc.stdout.splitlines()
        assert lines[0] == "t,j,l,count_formula"
        assert "4,2,3,4" in lines
        assert proc.returncode == 0

    def test_csv_with_enumeration(self):
        proc = run_cli("stats", "--t", "4", "--enumerate")
        lines = proc.stdout.splitlines()
        assert lines[0] == "t,j,l,count_formula,count_enum"
        assert "4,2,3,4,4" in lines
        assert proc.returncode == 0

    def test_rows_sorted_by_size_then_negpart(self):
        proc = run_cli("stats", "--t", "6")
        rows = [tuple(map(int, line.split(","))) for line in proc.stdout.splitlines()[1:]]
        keys = [(l, j) for _, j, l, _ in rows]
        assert keys == sorted(keys)

    def test_json_format(self):
        proc = run_cli("stats", "--t", "3", "--format", "json", "--enumerate")
        rows = json.loads(proc.stdout)
        assert {"t": 3, "j": 1, "l": 3, "count_formula": 1, "count_enum": 1} in rows

    def test_output_file(self, tmp_path):
        target = tmp_path / "table.csv"
        proc = run_cli("stats", "--t", "5", "--output", str(target))
        assert proc.returncode == 0
        assert proc.stdout == ""
        assert target.read_text().startswith("t,j,l,count_formula")

    def test_unwritable_output_is_usage_error(self, tmp_path):
        proc = run_cli("stats", "--t", "5", "--output", str(tmp_path / "missing" / "x.csv"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert len(proc.stderr.splitlines()) == 1

    def test_a_library_fault_mid_record_leaves_its_prefix_and_exits_1(self, capsys, monkeypatch):
        columns = cli._table_columns

        def fail_at_the_third_column(t):
            for k, column in enumerate(columns(t)):
                if k == 2:
                    raise RuntimeError("boom")
                yield column

        monkeypatch.setattr(cli, "_table_columns", fail_at_the_third_column)
        assert cli.main(["stats", "--t", "12"]) == 1
        out, err = capsys.readouterr()
        assert err == "error: RuntimeError: boom\n"
        assert out.count("\n") > 12
        assert _stats_reference(12, "csv", None).startswith(out)

    def test_determinism(self):
        a = run_cli("stats", "--t", "7", "--enumerate")
        b = run_cli("stats", "--t", "7", "--enumerate")
        assert a.stdout == b.stdout


def _stats_reference(t, fmt, enum):
    """The stats output built the way the command once built it: a dict per
    formula row, then json.dumps of the list or a comma join of each row's
    values.  enum is the enumerated CountTable, or None without --enumerate."""
    rows = []
    for j, l, count in formula_table(t):
        row = {"t": t, "j": j, "l": l, "count_formula": count}
        if enum is not None:
            row["count_enum"] = enum.count(j, l)
        rows.append(row)
    if fmt == "json":
        return json.dumps(rows) + "\n"
    header = "t,j,l,count_formula" + (",count_enum" if enum is not None else "")
    return "\n".join([header] + [",".join(str(c) for c in row.values()) for row in rows]) + "\n"


class TestStatsTableBytes:
    """In-process stats stdout equals the dict-per-row rendering."""

    # Even t has a middle cell j = t/2 that is its own mirror image.
    @pytest.mark.parametrize("t", [3, 4, 5, 6, 20, 64, 141, 142])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("enumerate_counts", [False, True])
    def test_stdout_is_the_dict_rendering(self, capsys, t, fmt, enumerate_counts):
        argv = ["stats", "--t", str(t), "--format", fmt] + ["--enumerate"] * enumerate_counts
        rc = cli.main(argv)
        out, err = capsys.readouterr()
        if enumerate_counts and t > 20:
            assert (rc, out) == (2, "")
            assert err.startswith(f"error: enumeration over 2^{t} topes exceeds the cap")
            return
        assert (rc, err) == (0, "")
        enum = enumerate_statistics(t) if enumerate_counts else None
        assert out == _stats_reference(t, fmt, enum)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_wrong_or_extra_enumerated_cell_exits_1(self, capsys, monkeypatch, fmt):
        rows = enumerate_statistics(5).rows
        wrong = CountTable(5, rows[:3] + ((*rows[3][:2], rows[3][2] + 1),) + rows[4:])
        extra = CountTable(5, sorted(rows + ((0, 3, 1),), key=lambda row: row[1::-1]))
        for table in (wrong, extra):
            monkeypatch.setattr(cli, "enumerate_statistics", lambda t: table)
            assert cli.main(["stats", "--t", "5", "--format", fmt, "--enumerate"]) == 1
            # The extra cell (0, 3) has no formula row, so no row shows it.
            assert capsys.readouterr().out == _stats_reference(5, fmt, table)


@pytest.mark.parametrize("t", [141, 142])
def test_every_csv_row_is_the_scalar_count(capsys, t):
    # The scalar counts share no code with the column builder, so a wrong
    # cell or a wrong mirror image shows here.
    assert cli.main(["stats", "--t", str(t)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,j,l,count_formula"
    rows = [tuple(map(int, line.split(","))) for line in lines[1:]]
    want = [(t, j, 1, count_cycle_topes_by_negpart(t, j)) for j in range(t + 1)]
    for l in range(3, t + 1, 2):
        want += [(t, j, l, count_by_negpart_and_size(t, j, l)) for j in range(t + 1)]
    assert rows == [row for row in want if row[3]]


class _ShortWrites(io.RawIOBase):
    """A sink that takes at most chunk bytes a write, as a pipe may."""

    def __init__(self, chunk):
        self.chunk, self.data = chunk, bytearray()

    def writable(self):
        return True

    def write(self, b):
        taken = bytes(b[: self.chunk])
        self.data += taken
        return len(taken)


class TestStatsChunks:
    """stats writes its rows a column at a time; the bytes are the dict
    rendering, also through a stdout that takes them in chunks of any size."""

    @pytest.mark.parametrize("chunk", [1, 2, 7, 4096])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_chunked_rows_are_the_dict_rendering(self, monkeypatch, tmp_path, chunk, fmt):
        sink = _ShortWrites(chunk)
        out = io.TextIOWrapper(io.BufferedWriter(sink, buffer_size=chunk), encoding="utf-8")
        monkeypatch.setattr(sys, "stdout", out)
        assert cli.main(["stats", "--t", "9", "--format", fmt, "--enumerate"]) == 0
        out.flush()
        assert sink.data.decode() == _stats_reference(9, fmt, enumerate_statistics(9))
        path = tmp_path / "table"
        assert cli.main(["stats", "--t", "9", "--format", fmt, "--output", str(path)]) == 0
        assert path.read_text() == _stats_reference(9, fmt, None)


class TestStatsStreaming:
    """Without --enumerate, stats writes the rows as the column builder yields
    them and never holds the table."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_no_count_table_is_built(self, capsys, monkeypatch, fmt):
        def refuse(*args):
            raise AssertionError("built a CountTable")

        want = _stats_reference(30, fmt, None)
        monkeypatch.setattr(CountTable, "__init__", refuse)
        monkeypatch.setattr(CountTable, "_wrap", classmethod(refuse))
        assert cli.main(["stats", "--t", "30", "--format", fmt]) == 0
        assert capsys.readouterr().out == want

    def test_too_small_t_creates_no_file(self, capsys, tmp_path):
        path = tmp_path / "table"
        assert cli.main(["stats", "--t", "2", "--output", str(path)]) == 2
        assert not path.exists()
        assert capsys.readouterr().err == "error: dimension must be >= 3, got 2\n"


# VmPeak of a process that has imported the CLI and nothing else.
_PEAK_PROBE = (
    "import re, cyclotope.cli; "
    "print(re.search(r'VmPeak:\\s+(\\d+) kB', open('/proc/self/status').read()).group(1))"
)


def _run_under_budget(argv, mib, stdin=None, plant=None):
    """Run the CLI on argv, with the text stdin as its standard input, in a
    fresh process whose address space may grow mib MiB past the peak of a
    process that only imported the CLI.

    With plant, a string of Python code, that code runs in the same process
    first and stdout is kept; otherwise stdout is discarded.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    probe = subprocess.run([sys.executable, "-c", _PEAK_PROBE], capture_output=True, text=True,
                           env=env, check=True)
    limit = int(probe.stdout) * 1024 + (mib << 20)
    command = ["-m", "cyclotope", *argv]
    if plant is not None:
        command = ["-c", f"import sys\nfrom cyclotope import cli\n{plant}\n"
                         f"sys.exit(cli.main({argv!r}))"]
    return subprocess.run(
        [sys.executable, *command],
        input=stdin,
        stdout=subprocess.DEVNULL if plant is None else subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        timeout=300,
    )


needs_proc_status = pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                                       reason="needs /proc/self/status")


@needs_proc_status
@pytest.mark.parametrize("argv", [
    ["cycle", "--t", "6000"],
    ["stats", "--t", "1200", "--format", "json"],
    ["verify", "--t", "6000"],
])
def test_streamed_output_fits_in_64_mib_above_the_import_peak(argv):
    # A cycle that held its 12000 vertices, or a table held whole, needs more
    # than the 64 MiB allowed here; either would die with a traceback.  verify
    # above every sweep's cap is refused before any sweep runs.
    proc = _run_under_budget(argv, 64)
    assert proc.returncode in (0, 2)
    assert "Traceback" not in proc.stderr


@needs_proc_status
@pytest.mark.parametrize("argv", [
    ["cycle", "--t", str(10**9)],
    ["bench", "--t", str(10**9)],
])
def test_running_out_of_memory_is_one_error_line_and_exit_2(argv):
    # One cycle vertex, or bench's random tope at one byte per entry, needs
    # 954 MiB at t = 10^9, far past the 64 MiB allowed here.
    proc = _run_under_budget(argv, 64)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


@needs_proc_status
def test_decompose_of_a_dense_tope_fits_in_64_mib_above_the_import_peak():
    # At t = 10^6 a tope whose adjacent entries differ half the time has
    # about 500,000 terms, an 18 MB record.
    t = 10**6
    rng = random.Random(16)
    tope = "".join(rng.choice("+-") for _ in range(t))
    proc = _run_under_budget(["decompose", "--t", str(t), "--tope", "-"], 64, stdin=tope)
    assert proc.returncode == 0, proc.stderr


@needs_proc_status
def test_decompose_of_a_dense_tope_fits_in_16_mib_above_the_import_peak():
    # The record is written a row block at a time; a renderer that held the
    # 18 MB record, or one array of all its term cells, would not fit.
    t = 10**6
    rng = random.Random(16)
    tope = "".join(rng.choice("+-") for _ in range(t))
    proc = _run_under_budget(["decompose", "--t", str(t), "--tope", "-"], 16, stdin=tope)
    assert proc.returncode == 0, proc.stderr


@needs_proc_status
def test_decompose_of_a_dense_tope_fits_in_5_mib_above_the_import_peak():
    # The terms are found a window of _BLOCK coordinates at a time; the
    # index array of all 500,000 terms alone would take 3.8 MiB.
    t = 10**6
    rng = random.Random(16)
    tope = "".join(rng.choice("+-") for _ in range(t))
    proc = _run_under_budget(["decompose", "--t", str(t), "--tope", "-"], 5, stdin=tope)
    assert proc.returncode == 0, proc.stderr


def test_a_memory_error_without_a_message_names_its_type(capsys, monkeypatch):
    # CPython's own allocation failures, as in str() of a long vertex, carry
    # no message.
    def refuse(t):
        raise MemoryError

    monkeypatch.setattr(cli, "SymmetricCycle", refuse)
    assert cli.main(["cycle", "--t", "3"]) == 2
    assert capsys.readouterr() == ("", "error: MemoryError\n")


@pytest.mark.parametrize("argv", [
    ["decompose", "--t", "5", "--tope", "+-+++"], ["bench", "--t", "64"],
], ids=["decompose", "bench"])
def test_a_kernel_guards_refusal_is_an_internal_fault_and_exits_1(capsys, monkeypatch, argv):
    # The input is valid, so the telescope's parity guard refusing a
    # planted transform is a library fault: exit 1, never the usage code.
    real = decomposition._half_inverse_transform
    for module in [m for name, m in sys.modules.items() if name.startswith("cyclotope.")]:
        if getattr(module, "_half_inverse_transform", None) is real:
            monkeypatch.setattr(module, "_half_inverse_transform", lambda v: real(v) + 1)
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", "error: sign entries must be exactly +1 or -1\n")


@needs_proc_status
def test_verify_at_the_oracle_cap_fits_in_32_mib_above_the_import_peak():
    # The oracle scans the 4^10 vertex subsets one row block at a time; a
    # (4^10, 10) table of their sums alone would take 20 MiB.
    proc = _run_under_budget(["verify", "--t", str(ORACLE_CAP)], 32)
    assert proc.returncode == 0, proc.stderr


@needs_proc_status
def test_verify_at_the_top_cap_fits_in_32_mib_above_the_import_peak():
    # cycle-structure reads the 2t vertices in row blocks and keeps only
    # their packed negative parts for the distinctness count, 4 MiB at
    # t = 4096; the run passes at 13-14 MiB.  Keeping the rows' int8 bytes
    # instead, 32 MiB, does not fit.
    proc = _run_under_budget(["verify", "--t", str(DENSE_CAP)], 32)
    assert proc.returncode == 0, proc.stderr


# Faults planted in a kernel, as the sweeps see it, so that the sweep fails
# on millions of pairs at t = 11.
_PLANTED_SIZE_DIFFERENCE = """
from cyclotope import verification
real = verification._size_difference
verification._size_difference = lambda a, b: real(a, b) + 1
"""
_PLANTED_BOUNDARY_SUM = """
from cyclotope import verification
real = verification._boundary_sum
def wrong(signs, split):
    lhs, rhs = real(signs, split)
    return lhs + 1, rhs
verification._boundary_sum = wrong
"""


def _failing_sweep(out, name):
    """The FAIL line of sweep name and the lines after it, up to the next sweep."""
    lines = out.splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith(f"{name}: "))
    end = next(k for k in range(start + 1, len(lines)) if not lines[k].startswith("  "))
    return lines[start:end]


@needs_proc_status
def test_a_sweep_failing_on_every_pair_is_counted_within_64_mib_above_the_import_peak():
    # Every one of the 4^11 pairs fails; the count is exact, five messages
    # are built, and verify exits 1, the code of a mismatch.
    proc = _run_under_budget(["verify", "--t", "11"], 64, plant=_PLANTED_SIZE_DIFFERENCE)
    assert proc.returncode == 1, proc.stderr
    first = Tope.from_bitmask(0, 11)
    assert _failing_sweep(proc.stdout, "size-difference") == [
        "size-difference: FAIL (4194304 mismatches)",
        *(f"  {first}, {Tope.from_bitmask(m, 11)}: size difference mismatch" for m in range(5)),
    ]
    assert proc.stdout.endswith("verify t=11: FAIL\n")


@needs_proc_status
def test_a_wrong_boundary_sum_is_counted_within_64_mib_above_the_import_peak():
    # The criterion, the indicator and its size-difference check all read
    # the boundary sum; 7016032 is the count of those of its 2 * 4^11 + 4^11
    # checks that fail, each of which sweep_equinumerosity would list.
    proc = _run_under_budget(["verify", "--t", "11"], 64, plant=_PLANTED_BOUNDARY_SUM)
    assert proc.returncode == 1, proc.stderr
    first = Tope.from_bitmask(0, 11)
    assert _failing_sweep(proc.stdout, "equinumerosity") == [
        "equinumerosity: FAIL (7016032 mismatches)",
        *(f"  {first}, A={A}: criterion False != direct True"
          for A in ("none", "1", "1,2", "1,2,3", "1,2,3,4")),
    ]
    assert proc.stdout.endswith("verify t=11: FAIL\n")


class TestParserReuse:
    """main() builds its parser once per process and shares it across calls."""

    CALLS = [
        ["cycle", "--t", "3"],
        ["stats", "--t", "4", "--format", "json", "--enumerate"],
        ["decompose", "--t", "5", "--tope=+--++"],
        ["stats", "--t", "5"],
        ["equinum", "--t", "4", "--tope", "++++", "--subset", "1"],
        ["verify", "--t", "3"],
        ["decompose", "--t", "4", "--tope", "++++"],
    ]

    def test_successive_calls_match_separate_processes(self, capsys):
        assert cli._build_parser() is cli._build_parser()
        for argv in self.CALLS:
            rc = cli.main(argv)
            out, err = capsys.readouterr()
            proc = run_cli(*argv)
            assert (rc, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv

    @pytest.mark.parametrize(
        "bad",
        [
            ["stats", "--t", "4", "--enumerate", "--format", "xml"],
            ["decompose", "--t", "5", "--method", "all"],
            ["cycle", "--t", "4", "--matrix", "--omega"],
            ["verify", "--t", "x"],
            ["verify", "--t", "3", "--oracle-max", "3"],
            [],
            ["decompose", "--t", "5", "--tope=+--++", "--method", "fast"],
            ["equinum", "--t", "4", "--tope", "++++", "--subset", "1", "--oracle"],
        ],
    )
    def test_a_usage_error_leaves_the_next_call_unchanged(self, capsys, bad):
        good = ["stats", "--t", "4", "--format", "json"]
        assert cli.main(good) == 0
        want = capsys.readouterr()
        with pytest.raises(SystemExit) as info:
            cli.main(bad)
        assert info.value.code == 2
        assert capsys.readouterr().err.startswith("usage: cyclotope")
        assert cli.main(good) == 0
        assert capsys.readouterr() == want


class TestEquinumCommand:
    def test_equal_case(self):
        proc = run_cli("equinum", "--t", "4", "--tope", "++++", "--subset", "1")
        record = json.loads(proc.stdout)
        assert record == {"equal": True, "lhs_sum": 1, "rhs": 1}
        assert proc.returncode == 0

    def test_tope_from_stdin(self):
        proc = run_cli("equinum", "--t", "4", "--tope", "-", "--subset", "1", input="++++\n")
        assert json.loads(proc.stdout) == {"equal": True, "lhs_sum": 1, "rhs": 1}
        assert proc.returncode == 0

    def test_unequal_case(self):
        proc = run_cli("equinum", "--t", "4", "--tope", "++++", "--subset", "2")
        assert json.loads(proc.stdout) == {"equal": False, "lhs_sum": 2, "rhs": 0}
        assert proc.returncode == 0

    def test_none_subset(self):
        proc = run_cli("equinum", "--t", "5", "--tope", "+-+-+", "--subset", "none")
        record = json.loads(proc.stdout)
        assert record["equal"] is True

    def test_full_subset_usage_error(self):
        proc = run_cli("equinum", "--t", "4", "--tope", "++++", "--subset", "1,2,3,4")
        assert proc.returncode == 2

    def test_bad_subset_usage_error(self):
        proc = run_cli("equinum", "--t", "4", "--tope", "++++", "--subset", "1,9")
        assert proc.returncode == 2

    @pytest.mark.parametrize("subset", ["99999999999999999999999", "1,-99999999999999999999999", "2,2"])
    def test_out_of_range_or_repeated_member_is_one_error_line(self, subset):
        proc = run_cli("equinum", "--t", "4", "--tope", "++++", "--subset", subset)
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("tope, subset, message", [
        ("+-+++", "0", "subset entries must lie in [1, 5]"),
        ("+-+++", "1,1", "duplicate member 1"),
        ("+-+++", "a", "subset must be comma-separated integers or 'none': 'a'"),
        ("+-x++", "1", "tope string must be over '+'/'-': position 3 of 5 is 'x'"),
    ])
    def test_a_bad_tope_or_subset_string_exits_2(self, capsys, tope, subset, message):
        assert cli.main(["equinum", "--t", "5", "--tope", tope, "--subset", subset]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_a_library_fault_on_valid_input_exits_1_naming_its_type(self, capsys, monkeypatch):
        # A ValueError raised past the parse of --tope and --subset is a
        # fault, not a usage error.
        real = equinumerosity._boundary_sum
        monkeypatch.setattr(equinumerosity, "_boundary_sum", lambda s, a: real(s[..., 1:], a))
        assert cli.main(["equinum", "--t", "5", "--tope", "+-+++", "--subset", "1,2"]) == 1
        assert capsys.readouterr() == ("", "error: ValueError: operands could not be broadcast "
                                           "together with shapes (4,) (3,) \n")


@pytest.mark.parametrize("route", ["argv", "stdin"])
@pytest.mark.parametrize("t, tope", [("2", "+++"), ("-1", "+"), ("2", "++")])
@pytest.mark.parametrize("command", [["decompose"], ["equinum", "--subset", "1"]])
def test_a_too_small_t_is_refused_before_the_tope_is_read(capsys, monkeypatch, command, t,
                                                          tope, route):
    # The dimension line, as stats and verify give it, whatever the tope's
    # length, and stdin is left unread.
    stdin = io.StringIO(tope + "\n")
    monkeypatch.setattr(sys, "stdin", stdin)
    argv = [command[0], "--t", t, "--tope", tope if route == "argv" else "-", *command[1:]]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: dimension must be >= 3, got {t}\n")
    assert stdin.tell() == 0


class TestVerifyCommand:
    def test_smallest_instance_passes(self):
        proc = run_cli("verify", "--t", "3")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "verify t=3: ok" in proc.stdout

    def test_the_oracle_sweep_runs_up_to_its_cap_and_is_skipped_above_it(self):
        # The oracle sweep runs up to ORACLE_CAP and is skipped above it.
        for t, status in ((8, "ok"), (ORACLE_CAP + 1, "skipped")):
            proc = run_cli("verify", "--t", str(t))
            assert proc.returncode == 0
            assert f"oracle: {status}\n" in proc.stdout

    def test_determinism(self):
        # The text report never shows a time, so two runs give the same bytes.
        a = run_cli("verify", "--t", "11")
        b = run_cli("verify", "--t", "11")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout != ""

    @pytest.mark.parametrize("t", sorted({t for _, _, cap in _SWEEPS for t in (cap, cap + 1)
                                          if t <= DENSE_CAP}))
    def test_each_sweep_runs_up_to_its_cap_and_is_skipped_above_it(self, t):
        proc = run_cli("verify", "--t", str(t))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        statuses, last = _text_statuses(proc.stdout)
        assert last == f"verify t={t}: ok"
        assert statuses == {name: "ok" if t <= cap else "skipped" for name, _, cap in _SWEEPS}

    def test_above_every_cap_is_a_usage_error(self):
        top = max(cap for _, _, cap in _SWEEPS)
        assert top == DENSE_CAP
        proc = run_cli("verify", "--t", str(top + 1))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            f"error: verify at t = {top + 1} is above every sweep's cap (the largest is {top})\n"
        )

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("t", [2, 0, -3])
    def test_below_the_smallest_dimension_is_a_usage_error(self, capsys, t, fmt):
        # Refused before the harness, which would count each sweep's error
        # as a mismatch and exit 1.
        assert cli.main(["verify", "--t", str(t), "--format", fmt]) == 2
        assert capsys.readouterr() == ("", f"error: dimension must be >= 3, got {t}\n")

    def test_the_readme_cap_table_lists_each_sweeps_cap(self):
        # Rows of the table name their sweeps in backticks; the cap column
        # starts with the cap or "none".
        with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as readme:
            text = readme.read()
        table = text[text.index("| sweep | cap |"):].split("\n\n", 1)[0]
        caps = {}
        for row in table.splitlines()[2:]:
            names, cap = row.strip("|").split("|")
            word = cap.split()[0]
            for name in re.findall(r"`([\w-]+)`", names):
                caps[name] = None if word == "none" else int(word)
        assert caps == {name: cap for name, _, cap in _SWEEPS}


def _text_statuses(out):
    """{sweep: status word} and the last line of a text-mode verify."""
    lines = out.splitlines()
    sweeps = [line.split(": ", 1) for line in lines[:-1] if not line.startswith("  ")]
    return {name: status.split(" ")[0] for name, status in sweeps}, lines[-1]


class TestVerifyJson:
    """verify --format json: one object, the statuses of text mode."""

    @pytest.mark.parametrize("argv", [["--t", "4"], ["--t", "12"]])
    def test_statuses_match_text_mode(self, capsys, argv):
        assert cli.main(["verify", *argv]) == 0
        statuses, last = _text_statuses(capsys.readouterr().out)
        assert cli.main(["verify", *argv, "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        record = json.loads(out)
        assert record["t"] == int(argv[1]) and record["status"] == "ok" == last.split(": ")[1]
        assert {name: sweep["status"] for name, sweep in record["sweeps"].items()} == statuses
        assert list(record["sweeps"]) == sorted(statuses)
        for name, sweep in record["sweeps"].items():
            assert sweep["mismatches"] == 0 and sweep["first_mismatches"] == []
            assert sweep["seconds"] >= 0
            if sweep["status"] == "skipped":
                assert sweep["cases"] == 0 and sweep["seconds"] == 0
                assert sweep["cap"] < int(argv[1])
            else:
                assert sweep["cases"] > 0
                assert sweep["cap"] is None or sweep["cap"] >= int(argv[1])
        sweeps = record["sweeps"]
        if argv[1] == "12":
            assert sweeps["equinumerosity"]["status"] == sweeps["oracle"]["status"] == "skipped"
            assert sweeps["oracle"]["cap"] == ORACLE_CAP
            assert sweeps["spectrum-methods"]["cases"] == 1 << 12
        else:
            assert sweeps["size-difference"]["cases"] == 4**4
            assert sweeps["spectrum-updates"]["cases"] == 20 * 16

    def test_a_failing_sweep_lists_its_count_and_first_five(self, capsys, monkeypatch):
        from cyclotope import verification

        real = verification._spectrum_update
        monkeypatch.setattr(verification, "_spectrum_update", lambda *args: real(*args) + 2)
        assert cli.main(["verify", "--t", "5"]) == 1
        text = capsys.readouterr().out
        statuses, last = _text_statuses(text)
        assert cli.main(["verify", "--t", "5", "--format", "json"]) == 1
        record = json.loads(capsys.readouterr().out)
        assert record["status"] == "FAIL" and last == "verify t=5: FAIL"
        assert {name: sweep["status"] for name, sweep in record["sweeps"].items()} == statuses
        updates = record["sweeps"]["spectrum-updates"]
        assert updates["status"] == "FAIL" and updates["mismatches"] == 20
        assert updates["first_mismatches"] == [
            f"path {p} step 0: update diverged from recomputation" for p in range(5)
        ]
        assert "".join(f"  {issue}\n" for issue in updates["first_mismatches"]) in text
        assert "spectrum-updates: FAIL (20 mismatches)" in text

    def test_text_mode_prints_no_timing(self, capsys):
        assert cli.main(["verify", "--t", "3", "--format", "text"]) == 0
        text = capsys.readouterr().out
        assert cli.main(["verify", "--t", "3"]) == 0
        assert capsys.readouterr().out == text
        assert "seconds" not in text and "." not in text

    def test_unknown_format_is_a_usage_error(self):
        proc = run_cli("verify", "--t", "3", "--format", "xml")
        assert proc.returncode == 2 and proc.stdout == ""


class TestBenchCommand:
    def test_reports_median_timings(self):
        proc = run_cli("bench", "--t", "64")
        assert proc.returncode == 0
        card = json.loads(proc.stdout)
        assert card["t"] == 64 and card["reps"] == 9
        assert card["dense_seconds"] > 0
        assert card["fast_seconds"] > 0
        assert card["speedup"] == card["dense_seconds"] / card["fast_seconds"]

    def test_the_dense_route_is_timed_up_to_its_cap_and_left_out_above_it(self):
        at_cap = json.loads(run_cli("bench", "--t", str(DENSE_CAP)).stdout)
        assert set(at_cap) == {"t", "reps", "fast_seconds", "dense_seconds", "speedup"}
        above = json.loads(run_cli("bench", "--t", str(DENSE_CAP + 1)).stdout)
        assert set(above) == {"t", "reps", "fast_seconds"}
        assert above["t"] == DENSE_CAP + 1 and above["fast_seconds"] > 0

    def test_reps_is_a_usage_error(self):
        proc = run_cli("bench", "--t", "64", "--reps", "3")
        assert proc.returncode == 2 and proc.stdout == ""
        assert "--reps" in proc.stderr

    def test_each_route_reports_the_middle_of_its_nine_timings(self, monkeypatch):
        # The unsorted middle (30) and the mean differ from the sorted middle.
        # Each timed call reads the clock at its start and end; the warm-up
        # calls read it not at all.
        spans = [9, 1, 8, 2, 30, 3, 6, 4, 5] + [70, 10, 90, 20, 80, 40, 50, 30, 60]
        ticks = iter([tick for k, span in enumerate(spans) for tick in (1000 * k, 1000 * k + span)])
        monkeypatch.setattr(bench, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks)))
        card = bench.run_bench(5)
        assert next(ticks, None) is None
        assert card == {"t": 5, "reps": 9, "fast_seconds": 5, "dense_seconds": 50, "speedup": 10.0}

    def test_importing_the_cli_loads_no_statistics_fractions_or_decimal(self):
        probe = ("import sys, cyclotope.cli; "
                 "print([m for m in ('statistics', 'fractions', 'decimal') if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_missing_subcommand_is_usage_error():
    proc = run_cli()
    assert proc.returncode == 2


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert "cyclotope" in proc.stdout
