"""orders.seb block reader and streaming writer against the line-by-line
reference: values, errors and memory."""

import math
import warnings

import numpy as np
import pytest

import sebrange.datagen as dg
from sebrange.datagen import (
    N_FEATURES,
    ORDERS_HEADER_PREFIX,
    SEQ_LEN,
    GeneratorConfig,
    Order,
    generate,
    read_orders,
    write_orders,
)
from sebrange.errors import ConfigError, ParseError, VersionError
from sebrange.graph import battery, user
from sebrange.rng import Rng


def reference_read_orders(path):
    """The whole-file, line-by-line reader that the block reader replaced."""
    with open(path, newline="\n") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or not lines[0].startswith(ORDERS_HEADER_PREFIX):
        found = lines[0] if lines else "<empty file>"
        raise VersionError(path, 1,
                           f"expected header {ORDERS_HEADER_PREFIX}<F>, found {found!r}")
    try:
        n_features = int(lines[0][len(ORDERS_HEADER_PREFIX):])
    except ValueError:
        raise VersionError(path, 1, f"bad feature count in header {lines[0]!r}") from None
    if n_features != N_FEATURES:
        raise VersionError(path, 1,
                           f"unsupported feature count {n_features} (expected {N_FEATURES})")
    orders, seen = [], set()
    i = 1
    while i < len(lines):
        line_no = i + 1
        meta = lines[i].split(",")
        if len(meta) != 6:
            raise ParseError(path, line_no,
                             f"expected 6 metadata fields, got {len(meta)}")
        try:
            oid, u_idx, b_idx, t = (int(x) for x in meta[:4])
            ride_length, label = float(meta[4]), float(meta[5])
        except ValueError:
            raise ParseError(path, line_no, f"bad metadata line {lines[i]!r}") from None
        if oid in seen:
            raise ParseError(path, line_no, f"duplicate order id {oid}")
        seen.add(oid)
        if not (math.isfinite(ride_length) and math.isfinite(label)):
            raise ParseError(path, line_no,
                             f"non-finite ride_length or label in {lines[i]!r}")
        if label < 0:
            raise ParseError(path, line_no, f"label must be nonnegative, got {label}")
        if i + SEQ_LEN >= len(lines):
            raise ParseError(path, len(lines) + 1,
                             f"order {oid} truncated: expected {SEQ_LEN} telemetry rows")
        rows = np.empty((SEQ_LEN, N_FEATURES))
        for k in range(SEQ_LEN):
            row_no = line_no + 1 + k
            parts = lines[i + 1 + k].split(",")
            if len(parts) != N_FEATURES:
                raise ParseError(path, row_no,
                                 f"expected {N_FEATURES} values, got {len(parts)}")
            try:
                rows[k] = [float(x) for x in parts]
            except ValueError:
                raise ParseError(path, row_no,
                                 f"bad telemetry value in {lines[i + 1 + k]!r}") from None
        bad = ~np.isfinite(rows).all(axis=1)
        if bad.any():
            k = int(bad.argmax())
            raise ParseError(path, line_no + 1 + k,
                             f"non-finite telemetry value in {lines[i + 1 + k]!r}")
        orders.append(Order(oid, user(u_idx), battery(b_idx), t, rows,
                            ride_length, label))
        i += 1 + SEQ_LEN
    return orders


def outcome(read, path):
    """What a reader makes of ``path``: its orders, or its error."""
    try:
        return read(path)
    except (ParseError, ConfigError) as exc:
        return exc


def assert_same_outcome(got, expect):
    if isinstance(expect, Exception):
        assert type(got) is type(expect), expect
        assert str(got) == str(expect)
        assert getattr(got, "line_no", None) == getattr(expect, "line_no", None)
        return
    assert not isinstance(got, Exception), got
    assert len(got) == len(expect)
    for a, b in zip(got, expect):
        assert (a.order_id, a.user, a.battery, a.t) == (b.order_id, b.user, b.battery, b.t)
        assert np.float64(a.ride_length).tobytes() == np.float64(b.ride_length).tobytes()
        assert np.float64(a.label).tobytes() == np.float64(b.label).tobytes()
        assert a.telemetry.dtype == b.telemetry.dtype
        assert a.telemetry.tobytes() == b.telemetry.tobytes()


# Values float() takes and rejects. Besides plain decimals each group holds
# text on which np.loadtxt and float() disagree: ``1_0``, a trailing ``\r``
# and non-ASCII digits, which only float() takes, and ``1\x1c``, which only
# loadtxt takes.
ACCEPTED_VALUES = ["1_0", "2.5\r", "١٢", "３", " 7.25", "1e-400", "+.5"]
REJECTED_VALUES = ["oops", "", "1.0.0", "0x10", "1\x1c", "nan(1)", "1e"]
NON_FINITE_VALUES = ["nan", "-inf", "Infinity", "1e500"]


def corrupt(r, lines):
    """Apply one random fault to the data lines (index 0 is the header).
    Returns True when the result must still parse."""
    meta_at = range(1, len(lines), 1 + SEQ_LEN)

    def pick(seq):
        return seq[int(r.integers(len(seq)))]

    def data_line():
        return 1 + int(r.integers(len(lines) - 1))

    kind = int(r.integers(9))
    if kind == 0:    # wrong field count
        i = data_line()
        fields = lines[i].split(",")
        fields = fields[:-1] if r.integers(2) else fields + ["0.5"]
        lines[i] = ",".join(fields)
    elif kind == 1:    # a telemetry value float() accepts but loadtxt does not
        i = pick([j for j in range(1, len(lines)) if j not in meta_at])
        fields = lines[i].split(",")
        fields[int(r.integers(N_FEATURES))] = pick(ACCEPTED_VALUES)
        lines[i] = ",".join(fields)
        return True
    elif kind == 2:    # a bad telemetry or metadata value
        i = data_line()
        fields = lines[i].split(",")
        fields[int(r.integers(len(fields)))] = pick(REJECTED_VALUES + ["1.5", "x"])
        lines[i] = ",".join(fields)
    elif kind == 3:    # nan/inf in the telemetry or in ride_length/label
        i = data_line()
        fields = lines[i].split(",")
        at = 4 + int(r.integers(2)) if i in meta_at else int(r.integers(N_FEATURES))
        fields[at] = pick(NON_FINITE_VALUES)
        lines[i] = ",".join(fields)
    elif kind == 4:    # a repeated order id
        i, j = sorted(pick(meta_at) for _ in range(2))
        fields = lines[j].split(",")
        fields[0] = lines[i].split(",")[0]
        lines[j] = ",".join(fields)
    elif kind == 5:    # truncation
        del lines[1 + int(r.integers(len(lines) - 2)):]
    elif kind == 6:    # a negative label
        i = pick(meta_at)
        fields = lines[i].split(",")
        fields[5] = "-1.0"
        lines[i] = ",".join(fields)
    elif kind == 7:    # a line dropped or a blank line added
        i = data_line()
        if r.integers(2):
            del lines[i]
        else:
            lines.insert(i, "")
    else:    # metadata that int() and float() still take
        i = pick(meta_at)
        fields = lines[i].split(",")
        fields[1] = f" {fields[1]}"
        fields[5] += "\r"
        lines[i] = ",".join(fields)
        return True
    return False


@pytest.fixture(scope="module")
def seven_orders(tmp_path_factory):
    orders, _ = generate(GeneratorConfig(n_orders=7, n_users=6, n_batteries=4,
                                         n_stations=2, horizon=3, seed=5))
    path = tmp_path_factory.mktemp("io") / "orders.seb"
    write_orders(orders, path)
    return path.read_text().split("\n")[:-1]


def test_block_reader_agrees_with_line_reader(tmp_path, monkeypatch, seven_orders):
    # Blocks of 2 orders put the 7 orders in 4 blocks, the last one short.
    monkeypatch.setattr(dg, "_BLOCK_ORDERS", 2)
    r = Rng(91)
    path = tmp_path / "orders.seb"
    errors = accepted = 0
    for _ in range(100):
        lines = list(seven_orders)
        must_parse = all([corrupt(r, lines) for _ in range(1 + int(r.integers(2)))])
        path.write_text("\n".join(lines) + ("\n" if r.integers(3) else ""))
        expect = outcome(reference_read_orders, path)
        assert_same_outcome(outcome(read_orders, path), expect)
        if must_parse:
            assert not isinstance(expect, Exception)
            accepted += 1
        errors += isinstance(expect, Exception)
    assert errors >= 50 and accepted >= 5


def test_first_of_two_bad_lines_wins(tmp_path, seven_orders):
    path = tmp_path / "orders.seb"
    for first, second in [(5, 70), (70, 5), (140, 200), (3, 66)]:
        lines = list(seven_orders)
        for i in (first, second):
            lines[i] = lines[i].replace(",", ",oops", 1)
        path.write_text("\n".join(lines) + "\n")
        expect = outcome(reference_read_orders, path)
        assert expect.line_no == min(first, second) + 1
        assert_same_outcome(outcome(read_orders, path), expect)


@pytest.mark.parametrize("line", [2 + 64 * 65 + 3, 2 + 2 * 64 * 65, 2 + 2 * 64 * 65 + 9])
def test_bad_line_in_a_later_block(tmp_path, line):
    # 130 orders fill two whole blocks and start a third.
    orders, _ = generate(GeneratorConfig(n_orders=130, n_users=40, n_batteries=30,
                                         n_stations=3, horizon=5, seed=8))
    path = tmp_path / "orders.seb"
    write_orders(orders, path)
    lines = path.read_text().split("\n")
    clean = outcome(read_orders, path)
    assert_same_outcome(clean, orders)
    lines[line - 1] = lines[line - 1].replace(",", ",1e999,", 1)
    path.write_text("\n".join(lines))
    expect = outcome(reference_read_orders, path)
    assert isinstance(expect, ParseError) and expect.line_no == line
    assert_same_outcome(outcome(read_orders, path), expect)


def test_duplicate_id_across_blocks(tmp_path, monkeypatch, seven_orders):
    monkeypatch.setattr(dg, "_BLOCK_ORDERS", 2)
    lines = list(seven_orders)
    meta = lines[1 + 5 * (1 + SEQ_LEN)].split(",")
    meta[0] = "0"
    lines[1 + 5 * (1 + SEQ_LEN)] = ",".join(meta)
    path = tmp_path / "orders.seb"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=f":{2 + 5 * (1 + SEQ_LEN)}: duplicate order id 0"):
        read_orders(path)


def test_blank_telemetry_is_an_error_without_warnings(tmp_path, seven_orders):
    lines = seven_orders[:2] + [""] * SEQ_LEN
    path = tmp_path / "orders.seb"
    path.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outcome(read_orders, path)
    assert_same_outcome(got, outcome(reference_read_orders, path))
    assert got.line_no == 3


@pytest.mark.parametrize("text, message", [
    ("", "found '<empty file>'"),
    ("\n", "found ''"),
    ("#seb-orders v1 F=x\n", "bad feature count"),
    ("#seb-orders v1 F=5", "unsupported feature count 5"),
])
def test_header_errors_unchanged(tmp_path, text, message):
    path = tmp_path / "orders.seb"
    path.write_text(text)
    expect = outcome(reference_read_orders, path)
    with pytest.raises(VersionError, match=message) as info:
        read_orders(path)
    assert str(info.value) == str(expect) and info.value.line_no == 1


def test_write_and_read_peaks_stay_far_below_the_file(tmp_path, traced):
    # The writer streams one order at a time and the reader holds one block,
    # so neither may buffer the whole file (about 14 MB at 2,000 orders).
    orders, _ = generate(GeneratorConfig(n_orders=2000))
    path = tmp_path / "orders.seb"
    _, _, write_peak = traced(write_orders, orders, path)
    read, kept, read_peak = traced(read_orders, path)
    size = path.stat().st_size
    assert len(read) == len(orders)
    assert write_peak < 0.25 * size, f"write_orders peaked at {write_peak} bytes"
    transient = read_peak - kept
    assert transient < 0.25 * size, f"read_orders held {transient} bytes beyond its result"


@pytest.mark.parametrize("block_orders", [2, 64])
def test_non_utf8_byte_is_a_parse_error_at_its_line(tmp_path, monkeypatch, seven_orders,
                                                    block_orders):
    # Index 1 is order 0's metadata, 70 a telemetry row of order 1 and 200
    # one of order 3; "oops" makes a line bad without a stray byte.
    monkeypatch.setattr(dg, "_BLOCK_ORDERS", block_orders)
    path = tmp_path / "orders.seb"
    for byte_at, oops_at, first in [(1, None, 1), (70, None, 70), (200, None, 200),
                                    (200, 70, 70), (70, 200, 70), (131, 130, 130)]:
        lines = [line.encode() for line in seven_orders]
        lines[byte_at] = lines[byte_at].replace(b",", b",\xfe", 1)
        if oops_at is not None:
            lines[oops_at] = lines[oops_at].replace(b",", b",oops", 1)
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ParseError) as info:
            read_orders(path)
        assert info.value.line_no == first + 1
        if first == byte_at:
            assert str(info.value).endswith(f":{first + 1}: invalid UTF-8 byte 0xfe")

