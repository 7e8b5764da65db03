"""The parsed-block representation against the reference decoder.

``decode_block`` / ``search_block`` below are the engine's former block
codec, kept verbatim as the oracle: they parse eagerly into value-copying
4-tuples, which is slow and obviously right.  ``Block`` must agree with
them on every valid block and fail as they do on every damaged one, in
both layouts: the entries alone (blocks written before the offset
trailer) and the entries followed by the trailer (what the builder
writes now).

The two property tests run 150 and 60 examples a commit, and the active
Hypothesis profile's budget under ``--hypothesis-profile=soak``: ``Block``
parses offsets read from storage.
"""

import bisect
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.env.mem import MemEnv
from repro.errors import CorruptionError, InvalidArgumentError
from repro.lsm.block import (
    BLOCK_OFFSETS,
    Block,
    encode_entry,
    encode_offsets,
    parse_block,
    stored_raw_entries,
    unwrap_block,
    wrap_block,
)
from repro.lsm.dbformat import MAX_SEQUENCE, TYPE_DELETE, TYPE_PUT
from repro.lsm.envelope import FILE_KIND_SST
from repro.lsm.filecrypto import PlaintextCryptoProvider
from repro.lsm.options import Options
from repro.lsm.sst import SSTBuilder
from repro.util.coding import (
    decode_length_prefixed,
    decode_varint64,
    encode_varint64,
)

Entry = tuple[bytes, int, int, bytes]  # (key, seq, vtype, value)


def decode_block(buf: bytes) -> list[Entry]:
    """Parse a decrypted block into its entry list."""
    entries: list[Entry] = []
    offset = 0
    total = len(buf)
    while offset < total:
        key, offset = decode_length_prefixed(buf, offset)
        seq, offset = decode_varint64(buf, offset)
        if offset >= total:
            raise CorruptionError("truncated block entry")
        vtype = buf[offset]
        offset += 1
        value, offset = decode_length_prefixed(buf, offset)
        entries.append((key, seq, vtype, value))
    return entries


def search_block(entries: list[Entry], key: bytes, max_seq: int):
    """Find the newest visible version of ``key`` in a parsed block.

    Returns (vtype, value) or None.  Entries are sorted (key asc, seq desc),
    so the first entry for ``key`` with seq <= max_seq wins.
    """
    keys = [entry[0] for entry in entries]
    index = bisect.bisect_left(keys, key)
    while index < len(entries) and entries[index][0] == key:
        __, seq, vtype, value = entries[index]
        if seq <= max_seq:
            return (vtype, value)
        index += 1
    return None


# Sizes on both sides of every varint width the format meets in practice:
# 1- and 2-byte key lengths (>= 128 B), 1- to 3-byte value lengths
# (>= 16 KiB), and sequence numbers of 1, 2, 3 (>= 2^14), 4 (>= 2^21) and
# 8 bytes.
_keys = st.one_of(
    st.binary(max_size=24),
    st.binary(min_size=128, max_size=300),
)
_values = st.one_of(
    st.binary(max_size=40),
    st.binary(min_size=128, max_size=400),
    st.binary(min_size=1, max_size=3).map(lambda seed: seed * 16384),
)
_seqs = st.one_of(
    st.integers(0, 127),
    st.integers(128, (1 << 14) - 1),
    st.integers(1 << 14, (1 << 21) - 1),
    st.integers(1 << 21, 1 << 30),
    st.just(MAX_SEQUENCE),
)


@st.composite
def _blocks(draw) -> list[Entry]:
    """Entries in block order: key ascending, sequence descending."""
    versions = draw(st.dictionaries(
        _keys, st.sets(_seqs, min_size=1, max_size=4), max_size=8,
    ))
    return [
        (key, seq, draw(st.sampled_from((TYPE_PUT, TYPE_DELETE))), draw(_values))
        for key in sorted(versions)
        for seq in sorted(versions[key], reverse=True)
    ]


def _encode(entries: list[Entry]) -> bytes:
    return b"".join(encode_entry(*entry) for entry in entries)


def _starts(entries: list[Entry]) -> array:
    """Where each entry of ``_encode(entries)`` starts."""
    starts, size = array("I"), 0
    for entry in entries:
        starts.append(size)
        size += len(encode_entry(*entry))
    return starts


LAYOUTS = ("legacy", "trailer")


def _stored(entries: list[Entry], layout: str, compression: str = "none") -> bytes:
    offsets = _starts(entries) if layout == "trailer" else None
    return wrap_block(_encode(entries), compression, offsets)


def _budget(examples: int) -> int:
    """``examples`` a commit; the ``soak`` profile's budget when it is loaded."""
    if settings.get_current_profile_name() == "soak":
        return settings.default.max_examples
    return examples


def _read_whole(block: Block) -> list[Entry]:
    """Every entry, by both full walks: a damaged entry fails each."""
    entries = list(block.entries())
    assert len(list(block.raw_entries())) == len(entries)
    return entries


@settings(max_examples=_budget(150), deadline=None)
@given(_blocks(), st.sampled_from(("none", "zlib")))
def test_block_agrees_with_reference_decoder(entries, compression):
    raw = _encode(entries)
    reference = decode_block(raw)
    assert reference == entries
    for layout in LAYOUTS:
        stored = _stored(entries, layout, compression)
        trailer = encode_offsets(_starts(entries)) if layout == "trailer" else b""
        assert unwrap_block(stored) == raw + trailer
        block = parse_block(stored)
        _agrees_with_reference(block, reference, raw)
        # Compaction's path, without a Block, forwards the same tuples.
        assert list(stored_raw_entries(stored)) == list(block.raw_entries())


def _agrees_with_reference(block, reference, raw):
    assert block.keys == [entry[0] for entry in reference]
    assert list(block.entries()) == reference

    # entries(start_key): starts at, between, before and after the keys.
    probes = {entry[0] for entry in reference} | {b"", b"\xff" * 301, b"absent"}
    for start in probes | {entry[0] + b"\x00" for entry in reference}:
        assert list(block.entries(start)) == [
            entry for entry in reference if entry[0] >= start
        ]

    # get: every key at every snapshot that separates two versions.
    snapshots = {MAX_SEQUENCE, 0}
    for __, seq, ___, ____ in reference:
        snapshots.update((seq, max(seq - 1, 0)))
    for key in probes:
        for snapshot in snapshots:
            assert block.get(key, snapshot) == search_block(
                reference, key, snapshot
            )
        assert block.get(key) == search_block(reference, key, MAX_SEQUENCE)

    # raw_entries: the stored bytes, re-decoded, are the same entries; the
    # tuples sort in block order without a key function.
    raw_entries = list(block.raw_entries())
    assert raw_entries == sorted(raw_entries)
    assert b"".join(encoded for *__, encoded in raw_entries) == raw
    for (key, inverted, vtype, encoded), entry in zip(raw_entries, reference):
        assert (key, MAX_SEQUENCE - inverted, vtype) == entry[:3]
        assert decode_block(encoded) == [entry]


@settings(max_examples=_budget(60), deadline=None)
@given(_blocks().filter(bool))
def test_every_cut_inside_an_entry_is_corruption(entries):
    """A proper prefix either ends on an entry boundary (and is the shorter
    block) or raises CorruptionError -- never IndexError, never garbage.
    With a trailer, the prefix carries the offsets of every entry that
    starts in it, so a cut entry runs into the trailer."""
    raw = _encode(entries)
    starts = _starts(entries)
    boundaries = {0: 0}
    for count, entry in enumerate(entries, 1):
        boundaries[len(_encode(entries[:count]))] = count
    # Every cut for small blocks; a spread plus each entry's first and last
    # 12 bytes (where the varints live) for the 16 KiB-value ones.
    cuts = set(range(len(raw))) if len(raw) <= 2048 else {
        edge + delta
        for edge in boundaries for delta in range(-12, 13)
        if 0 <= edge + delta < len(raw)
    } | set(range(0, len(raw), 997))
    for cut in cuts:
        prefix = raw[:cut]
        with_trailer = prefix + encode_offsets(
            array("I", [start for start in starts if start < cut])
        )
        if cut in boundaries:
            expected = entries[:boundaries[cut]]
            assert list(Block(prefix).entries()) == expected
            assert _read_whole(Block(with_trailer, indexed=True)) == expected
        else:
            with pytest.raises(CorruptionError):
                decode_block(prefix)
            with pytest.raises(CorruptionError):
                Block(prefix)
            with pytest.raises(CorruptionError):
                _read_whole(Block(with_trailer, indexed=True))


#: A block of four keys, two versions of one, for the damaged trailers.
_TRAILED = [
    (b"apple", 9, TYPE_PUT, b"red" * 5),
    (b"fig", 12, TYPE_PUT, b"purple"),
    (b"fig", 4, TYPE_DELETE, b""),
    (b"kiwi", 300, TYPE_PUT, b"green" * 30),
    (b"plum", 7, TYPE_PUT, b"dark"),
]


def _damaged_trailers():
    """(case, block bytes) for each way a trailer can lie."""
    raw, starts = _encode(_TRAILED), _starts(_TRAILED)

    def trailed(offsets, entries=raw, count=None):
        trailer = encode_offsets(array("I", offsets))
        if count is not None:
            trailer = trailer[:-4] + count.to_bytes(4, "little")
        return entries + trailer

    for count in (len(starts) + 1 + len(raw) // 4, 0xFFFFFFFF):
        yield "count past the buffer", trailed(starts, count=count)
    yield "first offset not 0", trailed([1, *starts[1:]])
    for first, second in ((1, 2), (2, 3)):  # two versions of "fig"; keys
        swapped = list(starts)
        swapped[first], swapped[second] = starts[second], starts[first]
        yield "offsets out of order", trailed(swapped)
    for inside in range(starts[3] + 1, starts[4]):  # every byte of "kiwi"
        yield "offset inside an entry", trailed(
            [*starts[:3], inside, *starts[4:]]
        )
    yield "last entry runs into the trailer", trailed(starts, entries=raw[:-1])


#: The trailers the constructor refuses before it slices a key, and why.
_REFUSED_AT_PARSE = {
    "count past the buffer": "offset count runs past",
    "first offset not 0": "offsets out of order",
    "offsets out of order": "offsets out of order",
}


@pytest.mark.parametrize("case", [
    "count past the buffer", "first offset not 0", "offsets out of order",
    "offset inside an entry", "last entry runs into the trailer",
])
def test_a_damaged_trailer_is_corruption(case):
    """Each damage is a CorruptionError, from the constructor or from a
    walk over the whole block, never an IndexError; and no get or scan
    answers from a damaged block with anything but the block's true
    answer."""
    blocks = [buf for name, buf in _damaged_trailers() if name == case]
    assert blocks
    for buf in blocks:
        if case in _REFUSED_AT_PARSE:
            with pytest.raises(CorruptionError, match=_REFUSED_AT_PARSE[case]):
                Block(buf, indexed=True)
        with pytest.raises(CorruptionError):
            _read_whole(Block(buf, indexed=True))
        with pytest.raises(CorruptionError):
            list(stored_raw_entries(bytes([BLOCK_OFFSETS]) + buf))
        try:
            block = Block(buf, indexed=True)
        except CorruptionError:
            continue
        for key in (b"", b"apple", b"fig", b"g", b"kiwi", b"plum", b"zz"):
            for snapshot in (MAX_SEQUENCE, 5):
                try:
                    found = block.get(key, snapshot)
                except CorruptionError:
                    continue
                assert found == search_block(_TRAILED, key, snapshot), key
            try:
                scanned = list(block.entries(key))
            except CorruptionError:
                continue
            assert scanned == [entry for entry in _TRAILED if entry[0] >= key]


@pytest.mark.parametrize("layout", LAYOUTS)
def test_keys_that_do_not_sort_are_corruption(layout):
    """A block whose entries are out of key order, with offsets that agree
    with them, cannot be bisected: the constructor refuses it."""
    entries = [_TRAILED[3], *_TRAILED[:3], _TRAILED[4]]
    with pytest.raises(CorruptionError, match="keys out of order"):
        parse_block(_stored(entries, layout))


@pytest.mark.parametrize("value_len", [127, 128, 16383, 16384])
def test_value_lengths_at_the_varint_width_edges(value_len):
    """1-, 2-, 2- and 3-byte value lengths: the two-byte form is decoded
    inline.  Every cut from the length prefix's first byte to the value's
    first is corruption, and whole blocks agree with the reference."""
    entries = [
        (b"a", 7, TYPE_PUT, bytes(range(256)) * (value_len // 256)
         + b"z" * (value_len % 256)),
        (b"b", 300, TYPE_DELETE, b""),
        (b"c", 5, TYPE_PUT, b"tail"),
    ]
    raw = _encode(entries)
    assert decode_block(raw) == entries
    block = Block(raw)
    assert list(block.entries()) == entries
    assert block.get(b"a") == search_block(entries, b"a", MAX_SEQUENCE)
    # key lp (2 bytes) | seq (1) | vtype (1), then the value's length.
    width = len(encode_varint64(value_len))
    for cut in range(4, 4 + width + 1):
        with pytest.raises(CorruptionError):
            decode_block(raw[:cut])
        with pytest.raises(CorruptionError):
            Block(raw[:cut])


@pytest.mark.parametrize("damaged", [
    b"\x80",  # key length varint runs off the end
    b"\x03ab",  # key runs off the end
    b"\x01a\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01\x00",  # seq > 2^56
    b"\x01a\x05",  # no type byte
    b"\x01a\x05\x01",  # no value length
    b"\x01a\x05\x01\x80",  # value length varint runs off the end
    b"\x01a\x05\x01\x04abc",  # value runs off the end
])
def test_damaged_blocks_raise_corruption(damaged):
    with pytest.raises(CorruptionError):
        Block(damaged)


def _builder() -> SSTBuilder:
    provider = PlaintextCryptoProvider()
    return SSTBuilder(
        MemEnv(), "/1.sst", provider.for_new_file(FILE_KIND_SST, "/1.sst"),
        Options(),
    )


@pytest.mark.parametrize("second", [
    (b"a", 9),   # key goes backwards
    (b"b", 5),   # duplicate (key, seq)
    (b"b", 6),   # same key, newer sequence after an older one
])
def test_add_encoded_rejects_what_add_rejects(second):
    key, seq = second
    by_add, by_encoded = _builder(), _builder()
    by_add.add(b"b", 5, TYPE_PUT, b"v")
    by_encoded.add_encoded(b"b", 5, encode_entry(b"b", 5, TYPE_PUT, b"v"))
    with pytest.raises(InvalidArgumentError):
        by_add.add(key, seq, TYPE_PUT, b"w")
    with pytest.raises(InvalidArgumentError):
        by_encoded.add_encoded(key, seq, encode_entry(key, seq, TYPE_PUT, b"w"))


def test_add_encoded_accepts_what_add_accepts():
    by_add, by_encoded = _builder(), _builder()
    for key, seq in ((b"b", 5), (b"b", 4), (b"c", 900), (b"d", 1)):
        by_add.add(key, seq, TYPE_PUT, b"v")
        by_encoded.add_encoded(key, seq, encode_entry(key, seq, TYPE_PUT, b"v"))
    first, second = by_add.finish(), by_encoded.finish()
    assert first == second
    assert (first.smallest_seq, first.largest_seq) == (1, 900)
