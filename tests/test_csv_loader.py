"""The stacked CSV loader and validators against their line-by-line oracles.

Each generated file is a sparse impedance CSV with shuffled rows, repeated
and mirrored listings, lines the loader skips, quoting and number spellings
the numpy reader refuses, and at most a few faults. The loader must give the
oracle's grid, dims and matrix bytes, or raise the same exception class; with
at most one fault, the same message too.
"""

import math
import os
import re
import threading
import urllib.request
import warnings

import numpy as np
import pytest

from rxfront import impedance
from rxfront.core import (
    FrequencyGrid,
    ImpedanceMatrixSeries,
    NumericalError,
    ParseError,
    load_impedance_csv,
    validate_passivity,
    validate_reciprocity,
)

from oracles import load_impedance_csv_ref, undecodable_ref, validate_passivity_ref, validate_reciprocity_ref

HEADER = "freq_hz,row,col,re_ohms,im_ohms"
# Lines that are not faults, all skipped; numpy refuses all but the first.
HARMLESS = ["", ",,,,", "   ", " , , , , "]
# One fault each.
FAULTS = [
    "nan,0,0,1,0", "1e6,0,0,nan,0", "1e6,0,0,1,inf", "1e6,-1,0,1,0", "1e6,0,-1,1,0",
    "1e6,1.0,0,1,0", "1e6,0,0,1", "1e6,0,0,1,0,0", "1e6,zero,0,1,0", "0,0,0,1,0", "-1e6,0,0,1,0",
]
OFFSETS = [0.0, 1e-13, 1e-9]  # relative; only 1e-9 conflicts at impedance.MIRROR_TOL, 1e-12


def _cell(rng, text, walk):
    """One cell as written: plain, padded or quoted; with digit separators if ``walk``."""
    pick = rng.integers(8)
    if pick == 0:
        return f'"{text}"'
    if pick == 1:
        return f" {text} "
    digits = [i for i in range(1, len(text)) if text[i - 1].isdigit() and text[i].isdigit()]
    if pick == 2 and walk and digits:
        return text[:digits[0]] + "_" + text[digits[0]:]  # Python reads 1_000 as 1000; numpy refuses
    return text


def _line(rng, walk, freq, r, c, value):
    cells = [repr(freq), str(r), str(c), repr(value.real), repr(value.imag)]
    return ",".join(_cell(rng, cell, walk) for cell in cells)


def _generate(rng, walk=None, line_fault=True):
    """(text, fault count) of one random sparse CSV.

    Half the files use only spellings numpy reads, so that the numpy read,
    not the line walk, produces their columns; ``walk=False`` asks for such
    a file. ``line_fault=False`` leaves out the one bad line a file may get.
    """
    if walk is None:
        walk = rng.random() < 0.5
    n_freqs, n = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    freqs = rng.choice([1e6, 1.5e6, 2e6, 1_000.0, 2.5e6], size=n_freqs, replace=False)
    lines, faults = [], 0
    for freq in freqs.tolist():
        for r in range(n):
            for c in range(r, n):
                if rng.random() < 0.3:
                    continue  # missing cells are zero
                value = complex(*np.round(rng.normal(scale=50.0, size=2), int(rng.integers(0, 17))))
                lines.append(_line(rng, walk, freq, r, c, value))
                if r != c and rng.random() < 0.4:  # the mirror, listed too
                    offset = OFFSETS[rng.integers(len(OFFSETS))]
                    faults += offset > 1e-12 and value != 0
                    lines.append(_line(rng, walk, freq, c, r, value * (1 + offset)))
                if rng.random() < 0.15:  # a repeated listing of the same cell
                    offset = OFFSETS[rng.integers(len(OFFSETS))]
                    faults += offset > 1e-12 and value != 0
                    lines.append(_line(rng, walk, freq, r, c, value * (1 + offset)))
    order = rng.permutation(len(lines))
    lines = [lines[i] for i in order]
    for _ in range(rng.integers(0, 3)):
        harmless = HARMLESS[rng.integers(len(HARMLESS))] if walk else ""
        lines.insert(int(rng.integers(len(lines) + 1)), harmless)
    if rng.random() < 0.3 and line_fault:
        lines.insert(int(rng.integers(len(lines) + 1)), FAULTS[rng.integers(len(FAULTS))])
        faults += 1
    ending = "" if rng.random() < 0.2 else "\n"
    newline = "\r\n" if rng.random() < 0.2 else "\n"
    return newline.join([HEADER, *lines]) + ending, faults


def _outcome(loader, path):
    try:
        zms = loader(path, dims=None)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)
    return zms.grid.points, zms.dims, zms.matrices.tobytes()


def test_loader_matches_line_by_line_oracle(tmp_path):
    rng = np.random.default_rng(2024)
    path = tmp_path / "z.csv"
    kinds = set()
    for index in range(600):
        text, faults = _generate(rng)
        path.write_bytes(text.encode())
        want, got = _outcome(load_impedance_csv_ref, path), _outcome(load_impedance_csv, path)
        kinds.add(want[0] if isinstance(want[0], type) else "loaded")
        if faults <= 1:
            assert got == want, (index, text)
        else:
            assert got[0] == want[0], (index, text)
    assert kinds == {"loaded", ParseError}  # both outcomes were exercised


@pytest.mark.parametrize("text,message", [
    (HEADER + "\n", "no data rows"),
    (HEADER + "\n\n,,,,\n", "no data rows"),
    (HEADER + "\n1e6,0,1,5,0\n1e6,1,0,5.01,0\n", "conflicting entries for (0,1)/(1,0) at freq 1e+06"),
    (HEADER + "\n1e6,1,0,5,0\n1e6,0,1,5.01,0\n", "conflicting entries for (1,0)/(0,1) at freq 1e+06"),
    (HEADER + "\n2e6,1,1,5,0\n1e6,0,0,1,0\n2e6,1,1,5.01,0\n", "conflicting entries for (1,1)/(1,1) at freq 2e+06"),
    (HEADER + "\n1e6,0,0,1,0\n1e6,0,0,1_000,0\n", "conflicting entries for (0,0)/(0,0) at freq 1e+06"),
    (HEADER + "\n1e6,0,0,1,0\n\n1e6,1.0,0,1,0\n", "line 4: invalid literal for int() with base 10: '1.0'"),
    (HEADER + "\n1e6,0,0,1,0\n1e6,0,0,1", "line 3: expected 5 columns, got 4"),
    # two faults: the first in file order is named, as the line walk found it
    (HEADER + "\n1e6,1,1,5,0\n1e6,0,0,1,0\n1e6,1,1,6,0\n1e6,0,0,2,0\n",
     "conflicting entries for (1,1)/(1,1) at freq 1e+06"),
], ids=["header_only", "blank_only", "mirror", "mirror_listed_low_first", "repeat", "repeat_underscore",
        "float_index", "four_columns", "two_repeats"])
def test_fault_messages_match_oracle(tmp_path, text, message):
    path = tmp_path / "z.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's "input contained no data" must not escape
        for loader in (load_impedance_csv_ref, load_impedance_csv):
            with pytest.raises(ParseError, match=re.escape(message)):
                loader(path)


def test_accepted_spellings_load_like_the_oracle(tmp_path):
    # each line needs the line walk (numpy refuses it) but is valid, so the file loads
    path = tmp_path / "z.csv"
    path.write_text("\n".join([HEADER, "1_000,0,0,50,0", "   ", ",,,,", '"1e3", 1 ,"1",-0.0,-0.0', "1e3,٣,0,7,0"]))
    want, got = load_impedance_csv_ref(path), load_impedance_csv(path)
    assert got.grid.points == want.grid.points == (1000.0,)
    assert got.matrices.tobytes() == want.matrices.tobytes()


def _wrong_route(*args):
    raise AssertionError("the file took the wrong read route")


def _upper_triangle(n_freqs, n):
    """A sorted upper-triangle CSV body, floats spelled by repr, as a measurement export writes it."""
    rng = np.random.default_rng([n_freqs, n])
    return "".join(
        f"{freq!r},{r},{c},{rng.normal(scale=50.0)!r},{rng.normal(scale=50.0)!r}\n"
        for freq in np.linspace(1e6, 5e6, n_freqs).tolist() for r in range(n) for c in range(r, n)
    )


def test_files_numpy_reads_never_take_the_line_walk(tmp_path, monkeypatch):
    path = tmp_path / "z.csv"
    path.write_text(HEADER + "\n" + _upper_triangle(60, 24))
    want = _outcome(load_impedance_csv_ref, path)
    monkeypatch.setattr(impedance, "_read_lines", _wrong_route)
    assert _outcome(load_impedance_csv, path) == want
    rng = np.random.default_rng(17)
    for index in range(300):
        text, faults = _generate(rng, walk=False, line_fault=False)
        if not any(line.strip() for line in text.splitlines()[1:]):
            continue  # no data line: the line walk names that
        path.write_bytes(text.encode())
        want, got = _outcome(load_impedance_csv_ref, path), _outcome(load_impedance_csv, path)
        assert got == want if faults <= 1 else got[0] == want[0], (index, text)


BODY = '1e6,0,0,50,0\n2e6,1,0,"3.5",-1\n1e6, 0 ,1,2,0.25\n2e6,0,1,3.5,-1\n1e6,1,1,60,0\n'


@pytest.mark.parametrize("name,data,forbidden", [
    *[(f"z.csv{suffix}", HEADER + "\n" + BODY, "_read_fast") for suffix in (".gz", ".bz2", ".xz", ".lzma")],
    ("z.csv.GZ", HEADER + "\n" + BODY, "_read_lines"),  # numpy compares suffixes case-sensitively
    ("z.csv", '"freq_hz\n",row,col,re_ohms,im_ohms\n' + BODY, "_read_lines"),
    ("z.csv", '"\r\nfreq_hz",row,col,re_ohms,im_ohms\r\n' + BODY.replace("\n", "\r\n"), "_read_lines"),
    ("z.csv", (HEADER + "\n" + BODY).replace("\n", "\r"), "_read_lines"),
    ("z.csv", (HEADER + "\n" + BODY).replace("\n", "\r\n"), "_read_lines"),
    ("a dir, ünï çödé/z.csv", HEADER + "\n" + BODY, "_read_lines"),
    ("z.csv", HEADER + "\n" + BODY.replace("50", "5\xe9"), None),
    ("z.csv", HEADER + "\n" + _upper_triangle(6, 8) + BODY.replace("50", "5\xe9"), None),  # past the first read
], ids=["gz", "bz2", "xz", "lzma", "GZ", "quoted_newline_header", "quoted_crlf_header", "cr", "crlf",
        "spaces_non_ascii_dir", "latin1", "latin1_late"])
def test_reading_by_name_loads_like_the_oracle(tmp_path, monkeypatch, name, data, forbidden):
    path = tmp_path / name
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(data.encode("latin-1"))
    want = _outcome(load_impedance_csv_ref, path)
    if forbidden:
        monkeypatch.setattr(impedance, forbidden, _wrong_route)
    assert _outcome(load_impedance_csv, path) == want


def test_the_line_walk_covers_every_suffix_numpy_decompresses():
    # a numpy release that decompresses one more suffix must fail here, not in a user's load
    assert set(np.lib._datasource._file_openers.keys()) - {None} <= set(impedance._DECOMPRESSED_SUFFIXES)


def test_a_name_that_parses_as_a_url_is_read_from_disk(tmp_path, monkeypatch):
    def no_download(*args):
        raise AssertionError("numpy was asked to fetch a URL")

    monkeypatch.chdir(tmp_path)
    (tmp_path / "http:" / "host").mkdir(parents=True)
    (tmp_path / "http:" / "host" / "z.csv").write_text(HEADER + "\n" + BODY)
    want = _outcome(load_impedance_csv_ref, "http://host/z.csv")
    monkeypatch.setattr(np.lib._datasource.DataSource, "_cache", no_download)
    monkeypatch.setattr(urllib.request, "urlopen", no_download)
    monkeypatch.setattr(impedance, "_read_lines", _wrong_route)
    assert _outcome(load_impedance_csv, "http://host/z.csv") == want


def _outcome_through_pipe(pipe, data: bytes):
    """The loader's outcome on ``data`` written to the named pipe ``pipe``."""
    os.mkfifo(pipe)
    got = {}

    def write():
        with open(pipe, "wb") as handle:
            handle.write(data)

    threads = [threading.Thread(target=write, daemon=True),
               threading.Thread(target=lambda: got.update(outcome=_outcome(load_impedance_csv, pipe)), daemon=True)]
    for thread in threads:
        thread.start()
    threads[1].join(10)
    hung = threads[1].is_alive()
    if hung:  # the loader opened the pipe a second time: end it
        open(pipe, "w").close()
    for thread in threads:
        thread.join(10)
    assert not hung
    return got["outcome"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("body", [BODY, BODY.replace("60", "6_0")], ids=["numpy_reads", "line_walk"])
def test_a_pipe_is_read_once(tmp_path, body):
    plain = tmp_path / "z.csv"
    plain.write_text(HEADER + "\n" + body)
    got = _outcome_through_pipe(tmp_path / "pipe.csv", (HEADER + "\n" + body).encode())
    assert got == _outcome(load_impedance_csv_ref, plain)


def _with_bad_byte(line: int, newline: str) -> bytes:
    """A 3,001-line file, about 77 KB, whose 1-based ``line`` holds the byte 0xff."""
    lines = [HEADER] + [f"{1e6 * (i + 1)!r},0,0,50.0,1.0" for i in range(3000)]
    data = bytearray(newline.join(lines).encode() + newline.encode())
    start = sum(len(text) + len(newline) for text in lines[:line - 1])
    data[start + 3] = 0xff
    return bytes(data)


# The loader's handle decodes 8 KiB at a time: with LF line ends, line 332
# holds the first chunk's last byte, and line 2999 lies eight chunks further.
@pytest.mark.parametrize("line", [1, 2, 331, 332, 333, 2999, 3001])
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_a_byte_that_does_not_decode_names_its_line(tmp_path, line, newline):
    path = tmp_path / "z.csv"
    path.write_bytes(_with_bad_byte(line, newline))
    with pytest.raises(ParseError) as caught:
        load_impedance_csv(path)
    assert str(caught.value) == str(undecodable_ref(path))
    assert str(caught.value).startswith(f"{path}: line {line}: byte 0xff is not valid ")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_byte_that_does_not_decode_names_its_line_in_a_pipe(tmp_path):
    kind, message = _outcome_through_pipe(tmp_path / "pipe.csv", _with_bad_byte(2999, "\n"))
    assert kind is ParseError
    assert message.startswith(f"{tmp_path / 'pipe.csv'}: line 2999: byte 0xff is not valid ")


def _report_fields(report):
    return (report.check, report.passed, report.tol, report.worst_index,
            np.array(report.deviations).tobytes())


def _stacks():
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 16):
        mats = rng.normal(scale=40.0, size=(6, n, n)) + 1j * rng.normal(scale=40.0, size=(6, n, n))
        yield mats  # asymmetric, mostly not passive
        sym = (mats + mats.transpose(0, 2, 1)) / 2 + 4 * n * 40.0 * np.eye(n)
        yield sym  # reciprocal and passive
        sym[2] = 0.0  # an all-zero frequency
        sym[4, 0, -1] *= 1 + 1e-10
        yield sym
    yield np.zeros((3, 4, 4))


@pytest.mark.parametrize("tol", [1e-9, 0.5])
def test_stacked_validators_match_per_frequency_oracles(tol):
    for mats in _stacks():
        zms = ImpedanceMatrixSeries(FrequencyGrid(range(1, len(mats) + 1)), mats)
        for fast, ref in ((validate_reciprocity, validate_reciprocity_ref),
                          (validate_passivity, validate_passivity_ref)):
            assert _report_fields(fast(zms, tol)) == _report_fields(ref(zms, tol))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_failed_stacked_eigensolve_names_its_frequency():
    # finite entries whose symmetrized real part overflows to inf on the diagonal
    mats = np.array([np.eye(3) * 50.0] * 3, dtype=complex) + 1.0
    mats[1, 0, 0] = mats[1, 2, 2] = 1e308
    zms = ImpedanceMatrixSeries(FrequencyGrid([1e6, 2e6, 3e6]), mats)
    for validator in (validate_passivity, validate_passivity_ref):
        with pytest.raises(NumericalError, match="eigenvalue solve failed at frequency index 1"):
            validator(zms)
    assert math.isfinite(float(np.abs(zms.matrices).max()))


def _repeating_stacks():
    """Stacks whose frequencies repeat matrices: runs, alternation, all
    distinct, and neighbours that differ only in their last entry or in the
    sign of a zero."""
    rng = np.random.default_rng(12)
    for n in (1, 3, 8):
        a = rng.normal(scale=30.0, size=(7, n, n)) + 1j * rng.normal(scale=30.0, size=(7, n, n))
        mats = (a + a.transpose(0, 2, 1)) / 2.0 + 2.0 * n * 30.0 * np.eye(n)
        mats[2] -= 4.0 * n * 30.0 * np.eye(n)  # not passive
        mats[3] = mats[0]
        mats[3, -1, -1] = np.nextafter(mats[0, -1, -1].real, np.inf) + 1j * mats[0, -1, -1].imag
        mats[4] = mats[0]
        mats[4, 0, 0] = 0.0
        mats[5] = mats[4]
        mats[5, 0, 0] = complex(-0.0, mats[4, 0, 0].imag)
        for order in (
            [0, 0, 0, 1, 1, 2, 2, 2, 0],  # runs
            [0, 1, 0, 1, 0, 1],  # alternating
            [2, 0, 2, 0, 2],
            [0, 1, 2, 3, 4, 5, 6],  # all distinct
            [0, 3, 3, 0, 3],  # last entry one ulp apart
            [4, 5, 5, 4, 4, 5],  # 0.0 and -0.0
            [6],
        ):
            yield mats[order]


@pytest.mark.parametrize("tol", [1e-9, 0.5])
def test_passivity_reuses_eigenvalues_only_for_identical_neighbours(tol, monkeypatch):
    solved, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solved.append(len(a)) or eigvalsh(a))
    for mats in _repeating_stacks():
        zms = ImpedanceMatrixSeries(FrequencyGrid(range(1, len(mats) + 1)), mats)
        solved.clear()
        got = validate_passivity(zms, tol)
        runs = 1 + sum(a.real.tobytes() != b.real.tobytes() for a, b in zip(mats[1:], mats[:-1]))
        assert solved == [runs]
        assert _report_fields(got) == _report_fields(validate_passivity_ref(zms, tol))


def test_a_frequency_flat_real_part_costs_one_eigensolve(monkeypatch):
    from rxfront.arrays import make_synthetic_model

    solved, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solved.append(a.shape) or eigvalsh(a))
    model = make_synthetic_model(1, 16, 50 + 5j, 4.0, 0.5, np.linspace(1e6, 3e6, 400), rng=1)
    assert solved == [(17, 17), (1, 17, 17)]  # the draw's check, then the model's
    report = validate_passivity(model.zms)
    assert _report_fields(report) == _report_fields(validate_passivity_ref(model.zms))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("order, index", [
    ([0, 0, 1, 1, 0, 1], 2), ([1, 1, 0], 0), ([0, 1, 0, 1], 1), ([0, 0, 0, 1], 3),
])
def test_failed_eigensolve_names_the_first_frequency_of_its_run(order, index):
    mats = np.array([np.eye(3) * 50.0] * 2, dtype=complex) + 1.0
    mats[1, 0, 0] = mats[1, 2, 2] = 1e308  # a symmetrized diagonal of inf
    zms = ImpedanceMatrixSeries(FrequencyGrid(range(1, len(order) + 1)), mats[order])
    for validator in (validate_passivity, validate_passivity_ref):
        with pytest.raises(NumericalError, match=f"eigenvalue solve failed at frequency index {index}$"):
            validator(zms)
