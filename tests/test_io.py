import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tomoforge import (
    Reading,
    ValidationError,
    assemble_design,
    format_density,
    format_readings,
    params_to_matrix,
    parse_density,
    parse_readings,
    read_density,
    read_readings,
    simulate_readings,
    write_density,
    write_readings,
)
from conftest import density_text, random_hermitian

import goldens


def test_parse_single_reading():
    records = parse_readings("1,left,0.3100,0.0000\n")
    assert records == [Reading(1, "left", complex(0.31, 0.0))]


def test_parse_readings_skips_comments_and_blanks():
    text = "# noise_sigma=0.01\n# seed=42\n\n2,right,-0.5,0.25\n"
    records = parse_readings(text)
    assert records == [Reading(2, "right", complex(-0.5, 0.25))]


@pytest.mark.parametrize(
    "line,match",
    [
        ("19,left,0,0", "out of range"),
        ("0,left,0,0", "out of range"),
        ("x,left,0,0", "not an integer"),
        ("1,top,0,0", "peak"),
        ("1,left,abc,0", "could not parse"),
        ("1,left,nan,0", "line 1: value is not finite"),
        ("1,left,0,inf", "line 1: value is not finite"),
        ("1,left,-1e999,0", "line 1: value is not finite"),
        ("1,left,0", "expected"),
        # int() and float() would read 1_0 as 10 and the Arabic-Indic digit as 3
        ("1_0,left,1_0.5,0", "line 1: expected ASCII text without '_'"),
        ("1,left,0,0_1", "line 1: expected ASCII text without '_'"),
        ("\u0663,left,0,0", "line 1: expected ASCII text without '_'"),
        ("1,left,\u0663,0", "line 1: expected ASCII text without '_'"),
    ],
)
def test_parse_readings_rejects_bad_lines(line, match):
    with pytest.raises(ValidationError, match=match):
        parse_readings(line + "\n")


def test_readers_refuse_a_file_that_is_not_utf8_text(tmp_path):
    path = tmp_path / "binary.dat"
    path.write_bytes(b"1,left,0.5,0\n\xff\xfe\x00\x81\n")
    for read in (read_readings, read_density):
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
            read(path)


def test_parse_readings_reports_line_number():
    with pytest.raises(ValidationError, match="line 3"):
        parse_readings("# header\n1,left,0,0\n1,bad,0,0\n")


def test_parse_readings_rejects_duplicates():
    with pytest.raises(ValidationError, match="duplicate"):
        parse_readings("1,left,0,0\n1,left,0.1,0\n")


def test_readings_round_trip_is_bit_exact(tmp_path, rng):
    rho = goldens.RHO_PREDICTED / np.trace(goldens.RHO_PREDICTED).real
    readings = simulate_readings(rho, range(1, 19), noise_sigma=0.013, seed=77)
    path = tmp_path / "readings.csv"
    write_readings(path, readings, metadata={"noise_sigma": 0.013, "seed": 77, "source": "test"})
    assert read_readings(path) == readings


def test_readings_metadata_cannot_add_lines(tmp_path):
    readings = [Reading(1, "left", 0.5 + 0j)]
    for metadata in ({"source": "x\n1,left,0,0"}, {"source": "x\r"}, {"a\u2028b": 1},
                     {"source": "x\x0c"}, {"seed\n2": 3}):
        with pytest.raises(ValidationError, match="line break"):
            format_readings(readings, metadata=metadata)
    assert format_readings(readings, metadata={"source": ""}).splitlines()[0] == "# source="


def test_failed_write_leaves_existing_file_unchanged(tmp_path):
    dens = tmp_path / "rho.txt"
    write_density(dens, goldens.RHO_PREDICTED)
    before = dens.read_bytes()
    with pytest.raises(ValidationError, match="4x4"):
        write_density(dens, np.eye(3))
    assert dens.read_bytes() == before
    nan_matrix = np.eye(4) / 4
    nan_matrix[1, 2] = np.nan
    with pytest.raises(ValidationError, match="non-finite"):
        write_density(dens, nan_matrix)
    assert dens.read_bytes() == before
    with pytest.raises(ValidationError, match=r"not Hermitian: elements \(1,4\) and \(4,1\)"):
        write_density(dens, goldens.RHO_SIX_READOUTS)  # 0.05 defect, above the 1e-9 cut
    assert dens.read_bytes() == before
    path = tmp_path / "readings.csv"
    readings = simulate_readings(np.eye(4) / 4, [1, 2])
    write_readings(path, readings, metadata={"seed": 0})
    before = path.read_bytes()
    with pytest.raises(ValidationError, match="line break"):
        write_readings(path, readings, metadata={"source": "a\nb"})
    assert path.read_bytes() == before


def test_density_round_trip_exact(tmp_path, rng):
    for _ in range(20):
        m = random_hermitian(rng)
        assert np.array_equal(parse_density(format_density(m)), m)
    path = tmp_path / "rho.txt"
    write_density(path, np.eye(4) / 4)
    np.testing.assert_array_equal(read_density(path), np.eye(4) / 4)


def test_density_parse_golden_predicted_state():
    text = format_density(goldens.RHO_PREDICTED)
    np.testing.assert_array_equal(parse_density(text), goldens.RHO_PREDICTED)


@pytest.mark.filterwarnings("error")
def test_density_hermiticity_defect_above_the_cut_is_refused():
    m = goldens.RHO_PREDICTED.copy()
    m[0, 1] += 5e-4
    pair = r"not Hermitian: elements \(1,2\) and \(2,1\) differ by 5\.000e-04 \(tolerance 1\.0e-09\)"
    with pytest.raises(ValidationError, match=pair):
        parse_density(density_text(m))
    with pytest.raises(ValidationError, match=pair):
        format_density(m)


def test_density_hermiticity_error_above_band():
    # 0.05 defect as transcribed, which format_density refuses
    text = density_text(goldens.RHO_SIX_READOUTS)
    with pytest.raises(ValidationError, match="not Hermitian"):
        parse_density(text)
    with pytest.raises(ValidationError, match=r"elements \(1,4\) and \(4,1\) differ by 5\.000e-02"):
        parse_density(text)


def test_density_shape_and_literal_errors():
    with pytest.raises(ValidationError, match="4 matrix rows"):
        parse_density("0+0i 0+0i 0+0i 0+0i\n" * 3)
    with pytest.raises(ValidationError, match="4 entries"):
        parse_density("0+0i 0+0i 0+0i\n" * 4)
    bad = "1+0i 0+0i 0+0i 0+$i\n" + "0+0i 1+0i 0+0i 0+0i\n" * 3
    with pytest.raises(ValidationError, match="unparseable"):
        parse_density(bad)
    overflow = "1e999+0i 0+0i 0+0i 0+0i\n" + "0+0i 1+0i 0+0i 0+0i\n" * 3
    with pytest.raises(ValidationError, match="line 1: .*not finite"):
        parse_density(overflow)
    for token in ("\u0663+0i", "0+\u0663i", "0.\u0663+0i", "1_0+0i", "1+0_0i"):  # read as 3, 0.3 or 10
        with pytest.raises(ValidationError, match="^line 1: unparseable complex literal"):
            parse_density(token + " 0+0i 0+0i 0+0i\n" + "0+0i 1+0i 0+0i 0+0i\n" * 3)


def test_density_format_examples():
    assert format_density(np.eye(4) / 4).splitlines()[0] == "0.25+0.0i 0.0+0.0i 0.0+0.0i 0.0+0.0i"
    header = format_readings([Reading(1, "left", 0.31 + 0j)], metadata={"seed": 3})
    assert header.splitlines()[0] == "# seed=3"
    assert header.splitlines()[1] == "1,left,0.31,0.0"


def _bits(readings):
    return [(r.readout, r.peak, struct.pack("<dd", r.value.real, r.value.imag)) for r in readings]


def _reading_lists(ids, peaks, floats, **kwargs):
    value = st.builds(complex, floats, floats)
    return st.lists(st.builds(Reading, ids, peaks, value), max_size=6, **kwargs)


# Half the lists hold distinct valid records, so the round trip is
# exercised, half range over bad ids, peaks and values; either may then
# repeat a record.
_VALID_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_READINGS = st.one_of(
    _reading_lists(st.integers(1, 18), st.sampled_from(("left", "right")), _VALID_FLOATS,
                   unique_by=lambda r: (r.readout, r.peak)),
    _reading_lists(st.integers(-1, 20), st.sampled_from(("left", "right", "top", "left\n")), st.floats()),
).flatmap(lambda rs: st.lists(st.sampled_from(rs), max_size=1).map(rs.__add__) if rs else st.just(rs))


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(_READINGS)
def test_format_readings_writes_only_what_parse_reads_back(readings):
    try:
        text = format_readings(readings, metadata={"seed": 1})
    except ValidationError:
        return
    assert _bits(parse_readings(text)) == _bits(readings)


@pytest.mark.parametrize(
    "readings,match",
    [
        ([Reading(19, "left", 0j)], "read-out id"),
        ([Reading(1, "top", 0j)], "peak"),
        ([Reading(1, "left", complex("nan"))], "not finite"),
        ([Reading(1, "left", 0j), Reading(1, "left", 0.5 + 0j)], "duplicate"),
        ([Reading(2, "left\n3,right,9", 0j)], "peak"),
        ([Reading(1, "left", None)], "not a number"),
        ([Reading(1, "left", "x")], "not a number"),
        ([Reading(1, "left", "1")], "not a number"),
        ([Reading(1, "left", b"1")], "not a number"),
        ([Reading(1, "left", 10**400)], "not finite"),
    ],
)
def test_format_readings_rejects_what_parse_rejects(readings, match):
    with pytest.raises(ValidationError, match=match):
        format_readings(readings)


@pytest.mark.parametrize(
    "readings,match",
    [
        ([(1, "left", 0j), (1, "right", 0j)], r"readings must be Reading records, got \(1, 'left', 0j\)"),
        ([Reading(1, "left", 0j), None], "readings must be Reading records, got None"),
        (5, "readings must be iterable, got 5"),
    ],
)
def test_readings_that_are_not_reading_records_are_bad_input(readings, match, tmp_path):
    path = tmp_path / "readings.csv"
    for call in (
        lambda: assemble_design([1], readings=readings),
        lambda: format_readings(readings),
        lambda: write_readings(path, readings),
    ):
        with pytest.raises(ValidationError, match=match):
            call()
    assert not path.exists()


def test_format_readings_accepts_numbers_and_numpy_scalars():
    values = (1, 2.5, 1 - 2j, True, np.int64(3), np.float32(0.5), np.complex128(1j), np.bool_(True))
    readings = [Reading(rid, "left", v) for rid, v in enumerate(values, start=1)]
    assert [r.value for r in parse_readings(format_readings(readings))] == [complex(v) for v in values]


_ENTRIES = st.one_of(st.floats(), st.floats(-1, 1), st.just(0.0), st.just(-0.0))
# Half the matrices are arbitrary, half Hermitian up to an entrywise defect
# that straddles the writer's and parser's 1e-9 cut.
_MATRICES = st.one_of(
    st.lists(st.builds(complex, _ENTRIES, _ENTRIES), min_size=16, max_size=16).map(
        lambda v: np.array(v).reshape(4, 4)),
    st.tuples(
        st.lists(st.floats(-10, 10), min_size=16, max_size=16),
        st.lists(st.floats(-2e-9, 2e-9), min_size=16, max_size=16),
    ).map(lambda pair: params_to_matrix(pair[0]) + np.array(pair[1]).reshape(4, 4)),
)


@pytest.mark.filterwarnings("error")
@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(_MATRICES)
def test_format_density_writes_only_what_parse_reads_back(m):
    try:
        text = format_density(m)
    except ValidationError:
        return
    parsed = parse_density(text)
    assert parsed.tobytes() == np.asarray(m, dtype=complex).tobytes()
