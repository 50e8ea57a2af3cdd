"""Code construction, exhaustive correction/detection guarantees, and the
linearity property the in-array XOR check leans on."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from sttcim.cimarray import ArrayConfig
from sttcim.ecc import DecodeStatus, Ec3Ed4, Secded, make_code


def test_secded_geometry():
    assert Secded(4).n == 8
    assert Secded(8).n == 13
    assert Secded(32).n == 39
    code = Secded(32)
    assert code.check_bits == 6
    assert len(code.data_positions) == 32
    assert set(code.check_positions) == {0, 1, 3, 7, 15, 31}


def test_secded_frozen_codewords():
    # Hand-derived from the position masks.
    assert Secded(8).encode(0xB2) == 2962
    assert Secded(32).encode(1) == 7 + (1 << 38)


def test_secded_roundtrip():
    code = Secded(8)
    for data in range(256):
        cw = code.encode(data)
        res = code.decode(cw)
        assert res.status is DecodeStatus.CLEAN
        assert res.data == data
        assert res.codeword == cw


def test_secded_corrects_all_singles_exhaustive():
    code = Secded(8)
    for data in range(256):
        cw = code.encode(data)
        for pos in range(code.n):
            res = code.decode(cw ^ (1 << pos))
            assert res.status is DecodeStatus.CORRECTED
            assert res.data == data
            assert res.error_positions == (pos,)


def test_secded_detects_all_doubles_exhaustive():
    code = Secded(8)
    rng = random.Random(11)
    for data in [rng.randrange(256) for _ in range(16)]:
        cw = code.encode(data)
        for a, b in itertools.combinations(range(code.n), 2):
            res = code.decode(cw ^ (1 << a) ^ (1 << b))
            assert res.status is DecodeStatus.DETECTED_UNCORRECTABLE
            assert res.data is None


def test_secded_32_sampled():
    code = Secded(32)
    rng = random.Random(7)
    for _ in range(200):
        data = rng.getrandbits(32)
        cw = code.encode(data)
        pos = rng.randrange(code.n)
        res = code.decode(cw ^ (1 << pos))
        assert res.status is DecodeStatus.CORRECTED and res.data == data
        a, b = rng.sample(range(code.n), 2)
        res2 = code.decode(cw ^ (1 << a) ^ (1 << b))
        assert res2.status is DecodeStatus.DETECTED_UNCORRECTABLE


def test_ec3ed4_geometry_and_generator():
    code = Ec3Ed4(32)
    assert code.n == 51
    assert code.check_bits == 18
    # Degree-18 product of the minimal polynomials of alpha, alpha^3,
    # alpha^5 over GF(2^6); frozen after independent table lookup.
    assert code.generator == 0b1111000001011001111
    assert Ec3Ed4(8).n == 27


def test_ec3ed4_codewords_satisfy_checks():
    code = Ec3Ed4(32)
    rng = random.Random(3)
    for _ in range(100):
        data = rng.getrandbits(32)
        cw = code.encode(data)
        assert cw >> code.n == 0
        assert bin(cw).count("1") % 2 == 0
        assert code.extract(cw) == data
        res = code.decode(cw)
        assert res.status is DecodeStatus.CLEAN and res.data == data


def test_ec3ed4_minimum_distance_exhaustive_k8():
    code = Ec3Ed4(8)
    words = [code.encode(d) for d in range(256)]
    best = code.n
    for a, b in itertools.combinations(words, 2):
        best = min(best, bin(a ^ b).count("1"))
    assert best >= 8


def test_ec3ed4_corrects_up_to_three_exhaustive_k8():
    code = Ec3Ed4(8)
    rng = random.Random(5)
    datas = [0, 255] + [rng.randrange(256) for _ in range(3)]
    for data in datas:
        cw = code.encode(data)
        for weight in (1, 2, 3):
            for pattern in itertools.combinations(range(code.n), weight):
                noisy = cw
                for p in pattern:
                    noisy ^= 1 << p
                res = code.decode(noisy)
                assert res.status is DecodeStatus.CORRECTED, (data, pattern)
                assert res.data == data
                assert res.codeword == cw
                assert res.error_positions == pattern


def test_ec3ed4_detects_all_weight4_exhaustive_k8():
    code = Ec3Ed4(8)
    cw = code.encode(0x5A)
    for pattern in itertools.combinations(range(code.n), 4):
        noisy = cw
        for p in pattern:
            noisy ^= 1 << p
        res = code.decode(noisy)
        assert res.status is DecodeStatus.DETECTED_UNCORRECTABLE, pattern


def test_ec3ed4_k32_sampled():
    code = Ec3Ed4(32)
    rng = random.Random(9)
    for _ in range(300):
        data = rng.getrandbits(32)
        cw = code.encode(data)
        weight = rng.randint(1, 3)
        pattern = rng.sample(range(code.n), weight)
        noisy = cw
        for p in pattern:
            noisy ^= 1 << p
        res = code.decode(noisy)
        assert res.status is DecodeStatus.CORRECTED
        assert res.data == data
        assert res.error_positions == tuple(sorted(pattern))
    for _ in range(300):
        data = rng.getrandbits(32)
        cw = code.encode(data)
        pattern = rng.sample(range(code.n), 4)
        noisy = cw
        for p in pattern:
            noisy ^= 1 << p
        assert code.decode(noisy).status is DecodeStatus.DETECTED_UNCORRECTABLE


def test_xor_closure_both_codes():
    rng = random.Random(1)
    for code in (Secded(32), Ec3Ed4(32)):
        for _ in range(100):
            a = rng.getrandbits(32)
            b = rng.getrandbits(32)
            assert code.encode(a) ^ code.encode(b) == code.encode(a ^ b)


def test_decode_input_validation():
    code = Secded(8)
    with pytest.raises(ValueError):
        code.encode(256)
    with pytest.raises(ValueError):
        code.decode(1 << 13)
    with pytest.raises(ValueError):
        Ec3Ed4(46)
    with pytest.raises(ValueError):
        Ec3Ed4(0)


def test_secded_width_limit():
    # 120 data bits is the widest secded word whose codeword fits in 128
    # bits; wider codes are refused before any table is built.
    assert Secded(120).n == 128
    for width in (0, 121):
        with pytest.raises(ValueError, match=r"data_bits must be in 1\.\.120"):
            Secded(width)
    with pytest.raises(ValueError):
        make_code("secded", 121)
    with pytest.raises(ValueError):
        ArrayConfig(code="secded", word_width=121)


def test_make_code():
    assert make_code("secded", 32).n == 39
    assert make_code("EC3ED4", 32).n == 51
    assert make_code(" ec3ed4", 32) is make_code("EC3ED4", 32)
    assert make_code("ec3ed4", 8) is not make_code("ec3ed4", 32)
    with pytest.raises(ValueError):
        make_code("hamming", 32)


# -- reference decoder ---------------------------------------------------------


def _radius(code):
    return 3 if isinstance(code, Ec3Ed4) else 1


def _bounded_distance_decode(code, codebook, word):
    """Brute force: the unique codeword within distance t of word, else a
    refusal.  codebook maps every codeword to its data."""
    near = [cw for cw in codebook if (cw ^ word).bit_count() <= _radius(code)]
    if not near:
        return DecodeStatus.DETECTED_UNCORRECTABLE, None, None, ()
    (cw,) = near  # distance >= 2t + 1 leaves at most one
    positions = tuple(i for i in range(code.n) if (cw ^ word) >> i & 1)
    status = DecodeStatus.CORRECTED if positions else DecodeStatus.CLEAN
    return status, codebook[cw], cw, positions


def _outcome(res):
    return res.status, res.data, res.codeword, res.error_positions


def test_secded8_matches_bounded_distance_on_every_word():
    code = Secded(8)
    codebook = {code.encode(d): d for d in range(256)}
    for word in range(1 << code.n):
        assert _outcome(code.decode(word)) == _bounded_distance_decode(code, codebook, word), word


def test_ec3ed4_8_matches_bounded_distance_at_every_weight():
    code = Ec3Ed4(8)
    codebook = {code.encode(d): d for d in range(256)}
    rng = random.Random(2718)
    for weight in range(code.n + 1):
        for _ in range(40):
            word = code.encode(rng.getrandbits(8))
            for p in rng.sample(range(code.n), weight):
                word ^= 1 << p
            want = _bounded_distance_decode(code, codebook, word)
            assert _outcome(code.decode(word)) == want, (weight, word)


def _decode_digest(code, words, seed):
    rng = random.Random(seed)
    h = hashlib.sha256()
    for i in range(words):
        word = code.encode(rng.getrandbits(code.data_bits))
        for p in rng.sample(range(code.n), i % 10):
            word ^= 1 << p
        res = code.decode(word)
        h.update(repr((res.status.value, res.data, res.codeword, res.error_positions)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name, digest", [
    ("ec3ed4", "76f74707cf256b7b7c4765e8f90774a949fe804b010d1c109485801f9014db98"),
    ("secded", "4c008ed3c91a8c9651b36eb9d1d4c79353d8f97bc7c9b88c6e65904989bdecd1"),
])
def test_decode_outcomes_pinned(name, digest):
    # Recorded with the Berlekamp-Massey / Chien decoder this one replaced:
    # 20k words with 0-9 flipped bits, miscorrections included.
    assert _decode_digest(make_code(name, 32), 20_000, 2024) == digest


# -- every 11-bit field boundary ------------------------------------------------

# Encoding and Secded's extraction cut their input into 11-bit fields: these
# widths end a field exactly, one bit short of it and one bit past it.
_FIELD_WIDTHS = (1, 10, 11, 12, 21, 22, 23, 32, 33, 44, 45)


@st.composite
def _code_case(draw):
    name = draw(st.sampled_from(("ec3ed4", "secded")))
    widths = _FIELD_WIDTHS + ((64,) if name == "secded" else ())
    code = make_code(name, draw(st.sampled_from(widths)))
    data = draw(st.integers(0, (1 << code.data_bits) - 1))
    # t + 1 distinct positions: the first w of them are the weight-w pattern.
    positions = draw(st.lists(st.integers(0, code.n - 1), min_size=_radius(code) + 1,
                              max_size=_radius(code) + 1, unique=True))
    # How far an out-of-range input lies below 0 or past the top bit.
    overshoot = draw(st.integers(1, 1 << 80)) * draw(st.sampled_from((-1, 1)))
    return code, data, positions, overshoot


def _out_of_range(bits, overshoot):
    return overshoot if overshoot < 0 else (1 << bits) - 1 + overshoot


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(_code_case())
def test_decode_at_every_field_boundary(case):
    code, data, positions, overshoot = case
    t = _radius(code)
    cw = code.encode(data)
    want = 0
    for j in range(code.data_bits):
        if data >> j & 1:
            want ^= code.encode(1 << j)
    assert cw == want and code.extract(cw) == data
    for weight in range(t + 1):
        pattern = tuple(sorted(positions[:weight]))
        word = cw
        for p in pattern:
            word ^= 1 << p
        res = code.decode(word)
        status = DecodeStatus.CORRECTED if weight else DecodeStatus.CLEAN
        assert (res.status, res.data, res.codeword, res.error_positions) == (
            status, data, cw, pattern)
    word = cw
    for p in positions:
        word ^= 1 << p
    assert code.decode(word).status is DecodeStatus.DETECTED_UNCORRECTABLE
    # A table index never sees such an input: no IndexError, no alias.
    with pytest.raises(ValueError):
        code.decode(_out_of_range(code.n, overshoot))
    with pytest.raises(ValueError):
        code.encode(_out_of_range(code.data_bits, overshoot))


# -- batch encode ------------------------------------------------------------------


@pytest.mark.parametrize("name, width", [("ec3ed4", w) for w in (1, 8, 16, 32, 45)]
                         + [("secded", w) for w in (1, 4, 8, 32, 57, 58, 120)])
def test_encode_many_matches_encode(name, width):
    code = make_code(name, width)
    rng = random.Random(width)
    top = (1 << width) - 1
    words = [0, top] + [rng.getrandbits(width) for _ in range(300)]
    got = code.encode_many(words)
    assert got == [code.encode(w) for w in words]
    assert all(type(w) is int for w in got)
    assert code.encode_many([]) == []
    for bad in (-1, -(1 << 70), top + 1, 1 << max(63, width), 1 << 130):
        with pytest.raises(ValueError, match="^data out of range$"):
            code.encode_many([0, bad, top])
