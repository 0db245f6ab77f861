"""The compiled set-up kernel (``_read.c``) against the numpy reference it
stands in for: the LIBSVM block reader gives ``_parse_block``'s arrays bit
for bit on every block it takes and declines every other, so
``parse_libsvm`` gives the same Dataset or the same ParseError with and
without the kernel; and the row norms equal the per-row ``vals @ vals``."""

import ctypes
import json
import locale
import mmap
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vropt import _kernel, data
from vropt.data import Dataset, _parse_block, parse_libsvm
from vropt.errors import ParseError
from vropt.model import LogisticModel, NonconvexLogisticModel

from helpers import read_block

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import rcv1gen  # noqa: E402

CORPUS = Path(__file__).parent / "fixtures" / "reader_mutations.json"
CANARY = rcv1gen.Rcv1Shape(n=1000, d=2000)  # sarah-sparse's canary shape

needs_kernel = pytest.mark.skipif(
    _kernel.lib is None, reason=f"compiled kernel: {_kernel.status}")


def same(a, b) -> bool:
    """Equal tuples of arrays and numbers, dtypes and bytes included."""
    return len(a) == len(b) and all(
        np.asarray(x).dtype == np.asarray(y).dtype
        and np.asarray(x).tobytes() == np.asarray(y).tobytes()
        for x, y in zip(a, b))


def reference(block: bytes):
    """_parse_block's tuple, or its ParseError as (message, line)."""
    try:
        return _parse_block(block, 0)
    except ParseError as exc:
        return str(exc), exc.line_no


def outcome(source):
    """parse_libsvm's Dataset as its arrays, or its ParseError."""
    try:
        ds = parse_libsvm(source)
    except ParseError as exc:
        return "ParseError", str(exc), exc.line_no
    return ds.indptr, ds.indices, ds.values, ds.y, ds.d


def both_readers(request, fn):
    """fn() with the kernel as loaded, then with it hidden."""
    compiled = fn()
    request.getfixturevalue("no_kernel")
    return compiled, fn()


def check_block(block: bytes):
    """The reader's tuple equals the reference's when it takes the block;
    returns whether it did."""
    got = read_block(block)
    if got is not None:
        want = reference(block)
        assert isinstance(want[0], np.ndarray), (block, want)
        assert same(got, want), block
    return got is not None


# -- the reader ----------------------------------------------------------

@needs_kernel
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rcv1_text_reads_bit_identically(request, seed):
    text = rcv1gen.generate_text(seed, CANARY)
    assert check_block(text.encode())
    compiled, numpy = both_readers(
        request, lambda: outcome(text))
    assert same(compiled, numpy)


@needs_kernel
@pytest.mark.parametrize("block, taken", [
    (b"+1 1:0.5 3:-2\n-1 2:1e5\n", True),
    (b"  1   1:1  \n\n \n", True),       # runs of spaces, blank lines
    (b"1 01:1 002:2\n", True),           # leading zeros in an index
    (b"1 1:0 2:-0.0 3:0e999\n", True),   # explicit zeros, dropped
    (b"1\n-1\n", True),                  # rows without features
    (b"1 1:1.5", True),                  # no final line break
    (b"1 1:0.12345678901234567", True),  # ... and a 17-digit number
    (b"1 1:0.1234567890123456789012", True),  # ... and one strtod reads
    (b"1 1:18446744073709551616\n", True),  # 2^64: 0 in 64 bits
    (b"1 1:0.18446744073709551616", True),
    (b"1 1:1\r\n", False),
    (b"\r1 1:1\n", False),             # a lone \r is a line break there
    (b"1 1:1\n\r\n-1 2:1\n", False),
    (b"1\t1:1\n", False),
    (b"1 0:1\n", False),                 # index < 1
    (b"1 2:1 2:1\n", False),             # indices not rising
    (b"1 3:1 2:1\n", False),
    (b"1 +1:1\n", False),
    (b"1 1234567890123456789:1\n", False),  # 19 index digits
    (b"1 1:.5\n", False),
    (b"1 1:5.\n", False),
    (b"1 1:1e\n", False),
    (b"1 1:1e+\n", False),
    (b"1 1:0x10\n", False),
    (b"1 1:nan\n", False),
    (b"1 1:inf\n", False),
    (b"1 1:1e999\n", False),             # overflows
    (b"1 1:1e-400\n", False),            # underflows
    (b"1 1:4.9e-324\n", False),          # subnormal
    (b"1 1:1_0\n", False),
    (b"1 1:1:1\n", False),
    (b"1 1\n", False),
    (b"1:1\n", False),
    (b"- 1:1\n", False),
    (b"1 1:\n", False),
    (b"1 1:2 #\n", False),
    (b"1 1:\xff\n", False),
    (b"1 1:1\x00\n", False),
])
def test_grammar(request, block, taken):
    """The reader takes exactly its grammar; on the rest parse_libsvm gives
    the numpy reader's Dataset or ParseError."""
    assert check_block(block) == taken
    compiled, numpy = both_readers(request, lambda: outcome(block))
    assert same(compiled, numpy)


@needs_kernel
def test_mutation_corpus(request):
    """Random byte edits of valid text: each block the reader takes, it
    reads as the reference does, and parse_libsvm gives the same Dataset or
    the same ParseError (message and line) with and without the kernel."""
    corpus = [text.encode("latin-1") for text in json.loads(CORPUS.read_text())]
    taken = sum(check_block(block) for block in corpus)
    assert 0 < taken < len(corpus)  # the corpus exercises both paths
    compiled, numpy = both_readers(
        request, lambda: [outcome(block) for block in corpus])
    for block, a, b in zip(corpus, compiled, numpy):
        assert same(a, b), block


INDEX = r"[+-]?[0-9_]{1,25}"
JUNK = st.text(st.characters(min_codepoint=33, max_codepoint=126,
                             exclude_characters=":"), min_size=1, max_size=8)


def _index_or_none(token: str):
    """int(token) - 1 when int() reads token as 1 <= k < 2**63, else None."""
    try:
        k = int(token)
    except ValueError:
        return None
    return k - 1 if 1 <= k < 2 ** 63 else None


@settings(max_examples=300, deadline=None)
@given(tokens=st.lists(st.from_regex(INDEX, fullmatch=True) | JUNK,
                       min_size=1, max_size=4))
@example(tokens=["+5", "0005", "1_000", str(2 ** 63 - 1)])
@example(tokens=["1", str(2 ** 63)])
@example(tokens=[str(2 ** 64 + 5)])  # 5 in 64 bits
@example(tokens=["-3"])
@example(tokens=["0"])
@example(tokens=["5.0"])
@example(tokens=["_5"])
@example(tokens=["1__0"])
def test_index_tokens_read_as_int(tokens):
    """An index token, one feature per line, reads as int() reads it when
    1 <= int(token) < 2**63; any other is a ParseError naming its line, in
    _parse_block and in parse_libsvm with the kernel loaded and hidden."""
    block = "".join(f"1 {token}:1\n" for token in tokens).encode()
    keys = [_index_or_none(token) for token in tokens]
    bad = keys.index(None) + 1 if None in keys else None
    with pytest.MonkeyPatch.context() as mp:
        for reader in ("reference", "loaded", "hidden"):
            if reader == "hidden":
                mp.setattr(_kernel, "lib", None)
            try:
                if reader == "reference":
                    indices = _parse_block(block, 0)[2]
                else:
                    indices = parse_libsvm(block).indices
            except ParseError as exc:
                assert exc.line_no == bad, (reader, tokens)
                continue
            assert bad is None, (reader, tokens)
            assert indices.tolist() == keys, (reader, tokens)


NUMBER = r"[+-]?[0-9]{1,20}(\.[0-9]{1,20})?([eE][+-]?[0-9]{1,3})?"


@needs_kernel
@settings(max_examples=300, deadline=None)
@given(numbers=st.lists(st.from_regex(NUMBER, fullmatch=True), min_size=2,
                        max_size=5),
       doubles=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                        max_size=3))
def test_numbers_read_as_float(numbers, doubles):
    """Decimals of the grammar, and every double's repr, read as float()
    reads them; the reader declines only out of the normal range."""
    numbers += [repr(v) for v in doubles]
    label, *values = numbers
    block = " ".join([label] + [f"{k}:{v}" for k, v in
                                enumerate(values, start=1)]).encode() + b"\n"
    taken = check_block(block)
    assert taken or not all(map(_normal_or_zero, numbers))


def _normal_or_zero(text: str) -> bool:
    """Whether ``text`` is far inside the normal range, or all its mantissa
    digits are zeros: strtod reads those without ERANGE."""
    mantissa = re.split("[eE]", text)[0]
    return (1e-300 < abs(float(text)) < 1e300
            or set(mantissa.lstrip("+-").replace(".", "")) == {"0"})


@needs_kernel
def test_hard_decimals_are_read():
    """Each of the self-test's decimals is read, and read exactly, except
    the subnormal one, which strtod flags with ERANGE."""
    for text in _kernel.HARD_DECIMALS:
        block = f"{text} 1:{text}\n{text}".encode()
        assert check_block(block) == (text != "2.2250738585072011e-308")


def _decimal(digits: str, power: int, rng) -> str:
    """digits 10^power written with the point after a random digit, an
    exponent when that moves it, and a random sign."""
    point = int(rng.integers(len(digits) + 1))
    exp = power + len(digits) - point
    text = digits[:point] or "0"
    if point < len(digits):
        text += "." + digits[point:]
    return ("-" if rng.random() < 0.5 else "") + text + (f"e{exp}" if exp
                                                          else "")


def _ties(rng, count):
    """Exact binary ties t 2^e (t odd, of 54 bits) of 17-19 significant
    digits, each with its neighbours one unit away in the last digit, as
    (digits, power of ten) pairs."""
    out = []
    while len(out) < count:
        t = int(rng.integers(2**53, 2**54)) | 1
        e = int(rng.integers(-3, 4))
        if e >= 0:
            digits, power = str(t << e), 0
        else:
            digits, power = str(t * 5**-e), e   # t 2^e = t 5^-e 10^e
        stripped = digits.rstrip("0")
        power += len(digits) - len(stripped)
        if 17 <= len(stripped) <= 19:
            m = int(stripped)
            out += [(str(m + k), power) for k in (-1, 0, 1)]
    return out


@needs_kernel
@pytest.mark.parametrize("seed", [0, 1])
def test_many_decimals_read_as_float(seed):
    """2.4 10^5 decimals, each read as float() reads it: shortest reprs of
    random doubles from 1e-12 to 1e6, random mantissas of 1-21 digits with
    a random point and exponent, mantissas of 20 and 21 digits whose low 64
    bits are 0 (k 2^64 and 10 k 2^64, k = 1-5), and exact binary ties of
    17-19 digits with their neighbours."""
    rng = np.random.default_rng(seed)
    texts = [repr(v) for v in (10.0 ** rng.uniform(-12, 6, 100_000)).tolist()]
    for length in rng.integers(1, 22, 100_000):
        digits = "".join(map(str, rng.integers(0, 10, length)))
        texts.append(_decimal(digits, int(rng.integers(-30, 31)), rng))
    texts += [_decimal(str(k << 64) + zero, int(rng.integers(-30, 31)), rng)
              for k in range(1, 6) for zero in ("", "0") for _ in range(100)]
    texts += [_decimal(d, p, rng) for d, p in _ties(rng, 40_000)]
    got = read_block("\n".join(texts).encode())
    assert got is not None
    want = np.array([float(t) for t in texts])
    wrong = np.flatnonzero(got[0] != want)
    assert not wrong.size, [texts[i] for i in wrong[:10]]


def _last_tokens():
    """Blocks whose last token is a label, an index or a value of 1-20
    digits, with and without a fraction, and with a sign."""
    digits = "12345678901234567890"
    for n in range(1, 21):
        run = digits[:n]
        yield f"1 1:1\n{run}".encode()                 # a label
        yield f"1 {run}".encode()                      # an index, no ':'
        yield f"1 1:{run}".encode()
        yield f"-1 1:-0.{run}".encode()
        yield f"1 1:{run}.{run[::-1]}".encode()
        yield f"1 1:{run[:n // 2 + 1]}.{run[n // 2 + 1:]}".encode()
        yield f"1 1:{run}e-{n}".encode()


@needs_kernel
def test_reader_loads_nothing_past_the_block():
    """Each block is copied to the end of a page whose next page is
    PROT_NONE, so that a load past the block's last byte (the reader loads
    eight bytes at a time) ends the process.  Every block is read as the
    reference reads it, or declined; the pages are this test's own
    anonymous mapping."""
    page = mmap.PAGESIZE
    libc = ctypes.CDLL(None, use_errno=True)
    libc.mprotect.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int)
    buf = mmap.mmap(-1, 2 * page)
    view = memoryview(buf)
    try:
        addr = ctypes.addressof(ctypes.c_char.from_buffer(buf))
        # PROT_NONE, which the mmap module does not name, is 0
        assert libc.mprotect(addr + page, page, 0) == 0, ctypes.get_errno()
        taken = 0
        for block in _last_tokens():
            buf[page - len(block):page] = block
            got = read_block(view[page - len(block):page])
            if got is not None:
                assert same(got, reference(block)), block
                taken += 1
        assert taken
    finally:
        view.release()
        buf.close()


@pytest.mark.parametrize("text", ["+1 1:17976931348623157e308\n",
                                  "+1 1:-17976931348623157e308\n",
                                  "17976931348623157e308 1:1\n"])
def test_overflow_is_a_parse_error_not_a_warning(no_kernel, text):
    """The numpy reader reads a decimal past the double range as inf and
    names it in a ParseError; numpy's overflow warning does not escape."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError):
            parse_libsvm(text)


def _set_comma_locale() -> bool:
    """Set an LC_NUMERIC whose decimal point is ',', if one is found."""
    for name in ("de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "fr_FR.utf8",
                 "nl_NL.UTF-8", "ru_RU.UTF-8"):
        try:
            locale.setlocale(locale.LC_NUMERIC, name)
        except locale.Error:
            continue
        if locale.localeconv()["decimal_point"] == ",":
            return True
    return False


@needs_kernel
def test_comma_decimal_locale_falls_back(request, tmp_path, monkeypatch):
    """Under an LC_NUMERIC whose decimal point is ',', strtod stops at '.'
    and the reader declines every number whose token it would pass to
    strtod; the exact ones, of up to 19 digits, it reads itself (those
    above 2^53 only with its Eisel-Lemire step, whose declines strtod reads
    as "<m>e<q>", without a decimal point).  When no such locale
    is installed, de_DE.UTF-8 is built with localedef into tmp_path and
    found through LOCPATH."""
    saved = locale.setlocale(locale.LC_NUMERIC)
    try:
        if not _set_comma_locale():
            if shutil.which("localedef") is None:
                pytest.skip("no ',' locale installed and no localedef")
            proc = subprocess.run(["localedef", "-i", "de_DE", "-f", "UTF-8",
                                   str(tmp_path / "de_DE.UTF-8")],
                                  capture_output=True, text=True)
            if proc.returncode and "No such file" in proc.stderr:
                pytest.skip(f"localedef lacks its source: {proc.stderr}")
            monkeypatch.setenv("LOCPATH", str(tmp_path))
            assert _set_comma_locale(), proc.stderr
        assert read_block(b"1 1:0.1234567890123456789012\n") is None
        # read by the Eisel-Lemire step where the kernel has it
        wide = bool(_kernel.lib.vr_read_wide())
        assert check_block(b"1 1:0.12345678901234567\n") == wide
        assert check_block(b"1 1:0.5\n")
        # Eisel-Lemire's declines, read by strtod from "<m>e<q>"; without
        # the step, the token's strtod reads those without a '.'
        for text in ("9007199254740993", "4503599627370496.5",
                     "1126037345796096.875", _kernel._near_ties()[0]):
            assert check_block(f"1 1:{text}\n".encode()) == (
                wide or "." not in text), text
        text = rcv1gen.generate_text(3, rcv1gen.Rcv1Shape(n=50, d=200))
        compiled, numpy = both_readers(request, lambda: outcome(text))
        assert same(compiled, numpy)
    finally:
        locale.setlocale(locale.LC_NUMERIC, saved)


@needs_kernel
def test_self_test_refuses_a_reader_off_by_one_ulp(monkeypatch):
    assert _kernel._self_test()
    filled = _kernel.Reader.filled

    def off(reader):
        got = filled(reader)
        got[3][:] = np.nextafter(got[3], np.inf)
        return got
    monkeypatch.setattr(_kernel.Reader, "filled", off)
    assert not _kernel._self_test()


# -- whole texts ---------------------------------------------------------

LONG = rcv1gen.Rcv1Shape(n=2000, d=2000)  # about 3.5 blocks of text


@pytest.fixture(scope="module")
def long_lines():
    """The lines of a text of several blocks, and the index of the first
    line that starts half a block into its second block."""
    lines = rcv1gen.generate_text(4, LONG).splitlines(keepends=True)
    starts = np.cumsum([0] + [len(line) for line in lines])
    assert starts[-1] > 3 * data._BLOCK
    return lines, int(np.searchsorted(starts, 1.5 * data._BLOCK))


def _edited(lines, at, edit):
    return "".join(lines[:at] + [edit(lines[at])] + lines[at + 1:])


# a line edited so that its block leaves the kernel's grammar
MIDDLE = {
    "tab": lambda line: line.replace(" ", "\t", 1),
    "crlf": lambda line: line[:-1] + "\r\n",
    # two more rows than '\n's: more than the one row of room to spare
    "lone cr": lambda line: "+1 1:1\r-1 2:0.5\r" + line,
}


@pytest.mark.parametrize("final_newline", [True, False])
@pytest.mark.parametrize("middle", MIDDLE)
def test_declined_middle_block(request, long_lines, middle, final_newline):
    """A text of several blocks whose middle one the kernel declines gives
    the same Dataset from str and bytes, with the kernel and without it."""
    lines, at = long_lines
    text = _edited(lines, at, MIDDLE[middle])
    if not final_newline:
        text = text[:-1]
    compiled, numpy = both_readers(
        request, lambda: [outcome(text), outcome(text.encode())])
    assert not isinstance(compiled[0][0], str), compiled[0]
    if middle == "lone cr":  # more rows than the room counted for them
        assert compiled[0][3].size > text.count("\n") + 1
    for got in (*compiled, *numpy):
        assert same(got, compiled[0])


@pytest.mark.parametrize("middle", [None, *MIDDLE])
@pytest.mark.parametrize("bad", ["abc", "\u00e9"])
def test_bad_token_in_a_later_block(request, long_lines, middle, bad):
    """A bad value in the last block, behind a clean or declined middle
    block, is the same ParseError (message and line) with the kernel and
    without it, from str and from bytes; a non-ASCII one sends a str block
    by block through the encoder, which shows it as '?'."""
    lines, at = long_lines
    lines = lines[:-1] + [lines[-1].replace(":", ":" + bad, 1)]
    text = "".join(lines)
    if middle is not None:
        text = _edited(lines, at, MIDDLE[middle])
    compiled, numpy = both_readers(
        request, lambda: [outcome(text), outcome(text.encode())])
    assert same(compiled, numpy)
    line = len(lines) + 2 * (middle == "lone cr")
    assert [got[::2] for got in compiled] == [("ParseError", line)] * 2
    assert (compiled[0][1] == compiled[1][1]) == text.isascii()


@pytest.mark.parametrize("kernel", ["loaded", "hidden"])
@pytest.mark.parametrize("kind", ["bytearray", "memoryview", "mmap"])
def test_bytes_like_sources(request, tmp_path, kind, kernel):
    """A bytes-like source gives the Dataset of the same text as bytes, and
    is let go of afterwards: the mmap closes and the bytearray can grow."""
    text = rcv1gen.generate_text(5, CANARY).encode()
    if kernel == "hidden":
        request.getfixturevalue("no_kernel")
    want = outcome(text)
    if kind == "mmap":
        path = tmp_path / "text.libsvm"
        path.write_bytes(text)
        with path.open("rb") as fh, mmap.mmap(fh.fileno(), 0,
                                              access=mmap.ACCESS_READ) as mm:
            assert same(outcome(mm), want)
        return
    source = bytearray(text)
    assert same(outcome(source if kind == "bytearray"
                        else memoryview(source)), want)
    source += b"-1 1:1\n"


@pytest.mark.parametrize("kernel", ["loaded", "hidden"])
@pytest.mark.parametrize("kind", ["memoryview", "numpy"])
def test_strided_sources(request, kind, kernel):
    """A bytes-like source that is not C-contiguous gives the Dataset of
    the same text as bytes."""
    text = rcv1gen.generate_text(6, CANARY).encode()
    doubled = bytearray(2 * len(text))
    doubled[::2] = text
    source = (memoryview(doubled)[::2] if kind == "memoryview"
              else np.frombuffer(doubled, np.uint8)[::2])
    if kernel == "hidden":
        request.getfixturevalue("no_kernel")
    assert not memoryview(source).c_contiguous
    assert same(outcome(source), outcome(text))


# every line end but '\n' that _parse_block knows (str.splitlines' set)
LINE_ENDS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]


def _rows_ended_by(ends) -> str:
    """Rows ended by each of ``ends`` in turn inside one block, then a last
    row ended by '\n'."""
    return "".join(f"+1 1:1{e}-1 2:0.5 4:2{e}" for e in ends) + "+1 3:1\n"


@pytest.mark.parametrize("ends", [[e] for e in LINE_ENDS] + [LINE_ENDS],
                         ids=[repr(e) for e in LINE_ENDS] + ["all"])
def test_every_line_end_ends_a_row(request, ends):
    """Each line end ends a row, from str and from bytes, with the kernel
    loaded and hidden: the Dataset is that of the same rows ended by
    '\n'."""
    text = _rows_ended_by(ends)
    want = outcome(_rows_ended_by(["\n"] * len(ends)))
    assert want[3].size == 2 * len(ends) + 1
    compiled, numpy = both_readers(
        request, lambda: [outcome(text), outcome(text.encode())])
    for got in (*compiled, *numpy):
        assert same(got, want)


@needs_kernel
def test_room_holds_every_line_end():
    """The room the kernel counts for a text holds the rows and nonzeros
    numpy makes of it, whatever its line ends."""
    text = _rows_ended_by(LINE_ENDS).encode()
    labels, _, indices, _, _ = _parse_block(text, 0)
    with _kernel.chars(text) as chars:
        room = _kernel.Reader(chars, len(text)).arrays
    assert room[0].size >= labels.size > text.count(b"\n") + 1
    assert room[2].size >= indices.size


# -- row norms -----------------------------------------------------------

@pytest.fixture(scope="module")
def row_norm_datasets():
    text = rcv1gen.generate_text(0, CANARY)
    return {
        "rcv1-shaped": parse_libsvm(text, d=CANARY.d),
        "empty rows": Dataset([0, 0, 2, 2, 3, 3], [1, 4, 0], [0.5, -3.0, 2.0],
                              [1.0, -1.0, 1.0, 1.0, -1.0], d=5),
    }


@pytest.mark.parametrize("kernel", ["loaded", "hidden"])
@pytest.mark.parametrize("name", ["rcv1-shaped", "empty rows", "tiny"])
def test_row_norms_are_per_row_dots(request, row_norm_datasets, tiny_dataset,
                                    kernel, name):
    """row_sq_norms, L and L_bar are the per-row ``vals @ vals`` and what
    follows from them, bit for bit, with the kernel and without."""
    ds = tiny_dataset if name == "tiny" else row_norm_datasets[name]
    if kernel == "hidden":
        request.getfixturevalue("no_kernel")
    ptr = ds.indptr.tolist()
    norms = np.array([ds.values[lo:hi] @ ds.values[lo:hi]
                      for lo, hi in zip(ptr, ptr[1:])])
    for model, reg in ((LogisticModel(ds, lam=0.1), 0.1),
                       (NonconvexLogisticModel(ds, alpha=0.5), 1.0)):
        assert model.row_sq_norms.tobytes() == norms.tobytes()
        lipschitz = norms / 4.0 + reg
        assert model.L == float(lipschitz.max())
        assert model.L_bar == float(lipschitz.mean())


@needs_kernel
@pytest.mark.parametrize("indptr, values", [
    ([0, 3], [1.0, 2.0]),        # past the end of values
    ([1, 2], [1.0, 2.0]),        # not from 0
    ([0, 2, 1, 2], [1.0, 2.0]),  # falling
    ([], []),
])
def test_row_norms_refuse_bad_bounds(indptr, values):
    """The kernel reads values[indptr[i]:indptr[i+1]], so the bounds are
    checked before any pointer is passed."""
    with pytest.raises(ValueError):
        _kernel.row_sq_norms(indptr, values)
