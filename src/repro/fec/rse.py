"""Systematic Reed-Solomon erasure coder (Rizzo-style).

Codewords are indexed 0..254: indices ``0..k-1`` are the original data
packets (the code is systematic), indices ``k..254`` are parity packets.
Any ``k`` received codeword packets — data or parity, in any mix —
recover the ``k`` originals.

Construction: let ``V`` be the 255 x k Vandermonde matrix with
``V[i, j] = x_i^j`` where ``x_i = g^i`` for the field generator ``g``
(all ``x_i`` distinct and non-zero).  The systematic generator is
``G = V @ inv(V[:k])``: its top k x k block is the identity, and every
k x k row-selection of ``G`` stays invertible because the corresponding
rows of ``V`` form a (generalised) Vandermonde system.

The coder supports *incremental* parity: the protocol's later multicast
rounds send ``amax[i]`` **new** parity packets per block, which are just
further rows of ``G`` (indices continuing where the first round
stopped).

Two interchangeable implementations share the generator matrix:

- :class:`RSECoder` — the coder everything runs.  Generator rows are
  compiled once into per-coefficient 256-byte multiplication tables;
  applying a row to a packet is a single :meth:`bytes.translate`, and
  the XOR accumulation across the block is one vectorised reduction
  over all rows at once.
- :class:`ReferenceRSECoder` — the original scalar path (per-coefficient
  ``gf_matmul`` loops and per-element Gauss-Jordan inversion), retained
  as the differential-testing oracle and for golden-vector generation;
  only ``tests/fec`` and ``tests/transport`` construct it.

Both produce bit-identical codewords; ``tests/fec`` enforces this with
exact equality, never statistical tolerance.
"""

from __future__ import annotations

from itertools import cycle

import numpy as np

from repro.errors import FECError, NotEnoughPacketsError
from repro.fec.gf256 import (
    GF_EXP,
    gf_encode_stacked,
    gf_matmul,
    gf_matmul_dense,
    gf_matrix_invert,
    gf_matrix_invert_fast,
    gf_mul_table_rows,
    gf_pow,
)
from repro.obs.recorder import NULL
from repro.util.validation import check_non_negative, check_positive

#: Maximum codeword index + 1.  With distinct non-zero evaluation points
#: in GF(256) there are 255 usable rows.
MAX_CODEWORDS = 255

_GENERATOR_CACHE = {}

#: Decode inversions are cached per erasure pattern; NACK-driven repair
#: rounds hit the same few patterns over and over, so this is a large
#: win for the fleet simulations.  Bounded so adversarial pattern churn
#: cannot grow memory without limit.
_DECODE_CACHE_LIMIT = 512


def _generator_matrix(k):
    """Full 255 x k systematic generator for block size ``k`` (cached).

    Vectorised construction: with ``x_i = 2^i`` the Vandermonde entry is
    ``V[i, j] = 2^(i*j mod 255)``, one exp-table gather for the whole
    matrix.  Byte-identical to :func:`_reference_generator_matrix` (the
    original scalar construction), which ``tests/fec`` verifies.
    """
    matrix = _GENERATOR_CACHE.get(k)
    if matrix is None:
        i = np.arange(MAX_CODEWORDS, dtype=np.int64)[:, None]
        j = np.arange(k, dtype=np.int64)[None, :]
        vandermonde = GF_EXP[(i * j) % 255]
        top_inverse = gf_matrix_invert_fast(vandermonde[:k])
        matrix = gf_matmul_dense(vandermonde, top_inverse)
        matrix.setflags(write=False)
        _GENERATOR_CACHE[k] = matrix
    return matrix


def _reference_generator_matrix(k):
    """The original loop-based generator construction (uncached).

    Kept as the oracle for the vectorised builder; only tests call it.
    """
    from repro.fec.gf256 import gf_mul

    points = [gf_pow(2, i) for i in range(MAX_CODEWORDS)]
    vandermonde = np.zeros((MAX_CODEWORDS, k), dtype=np.uint8)
    for i, x in enumerate(points):
        value = 1
        for j in range(k):
            vandermonde[i, j] = value
            value = gf_mul(value, x)
    top_inverse = gf_matrix_invert(vandermonde[:k])
    rows, inner = vandermonde.shape
    out = np.zeros((rows, k), dtype=np.uint8)
    for i in range(rows):
        for j in range(k):
            acc = 0
            for t in range(inner):
                acc ^= gf_mul(
                    int(vandermonde[i, t]), int(top_inverse[t, j])
                )
            out[i, j] = acc
    return out


def encoding_cost_units(k, n_parity):
    """Modelled FEC encoding cost: ``k`` units per parity packet.

    Rizzo's coder encodes one parity packet in time linear in the block
    size, so a rekey message costs ``k * (total parity packets)`` units
    — the quantity plotted in the paper's "relative FEC encoding time"
    figure (E03).
    """
    check_positive("k", k, integral=True)
    check_non_negative("n_parity", n_parity, integral=True)
    return k * n_parity


class _RSECoderBase:
    """Shared contract: validation, parity-row bookkeeping, decoding
    plumbing.  Subclasses supply ``_apply`` (rows x packets product) and
    ``_invert`` (k x k inversion)."""

    def __init__(self, k):
        check_positive("block size k", k, integral=True)
        if k >= MAX_CODEWORDS:
            raise FECError(
                "block size %d exceeds the GF(256) limit of %d"
                % (k, MAX_CODEWORDS - 1)
            )
        self._k = int(k)
        self._generator = _generator_matrix(self._k)
        #: observability recorder (repro.obs); spans are emitted only
        #: when a real recorder is attached — the ``enabled`` guard
        #: keeps the per-block cost at one attribute load otherwise
        self.obs = NULL

    @property
    def k(self):
        """Block size: number of data packets per block."""
        return self._k

    def max_parity(self):
        """How many distinct parity packets this block size supports."""
        return MAX_CODEWORDS - self._k

    # -- encoding -------------------------------------------------------

    def _check_block(self, data_packets):
        if len(data_packets) != self._k:
            raise FECError(
                "expected %d data packets, got %d"
                % (self._k, len(data_packets))
            )
        lengths = {len(p) for p in data_packets}
        if len(lengths) != 1:
            raise FECError(
                "all packets in a block must have equal length, got %s"
                % sorted(lengths)
            )

    def parity(self, data_packets, n_parity, first_parity_index=0):
        """Generate ``n_parity`` parity packets for the block.

        ``first_parity_index`` selects where in the parity row space to
        start (0 for the proactive round; subsequent rounds continue
        from where the previous round stopped so every parity packet
        ever sent for a block is distinct and equally useful).
        """
        check_non_negative("n_parity", n_parity, integral=True)
        check_non_negative(
            "first_parity_index", first_parity_index, integral=True
        )
        if n_parity == 0:
            return []
        first_row = self._k + first_parity_index
        last_row = first_row + n_parity
        if last_row > MAX_CODEWORDS:
            raise FECError(
                "parity rows %d..%d exceed the GF(256) limit of %d"
                % (first_row, last_row - 1, MAX_CODEWORDS - 1)
            )
        self._check_block(data_packets)
        obs = self.obs
        if obs.enabled:
            with obs.span(
                "fec.encode", k=self._k, n_parity=int(n_parity)
            ):
                return self._apply_generator_rows(
                    first_row, last_row, data_packets
                )
        return self._apply_generator_rows(first_row, last_row, data_packets)

    def _apply_generator_rows(self, first_row, last_row, data_packets):
        return self._apply(
            self._generator[first_row:last_row], data_packets
        )

    def encode(self, data_packets, n_parity):
        """Return the full codeword prefix: data then ``n_parity`` parity."""
        return [bytes(p) for p in data_packets] + self.parity(
            data_packets, n_parity
        )

    def parity_blocks(self, blocks, n_parity, first_parity_index=0):
        """Parity for *every* block of a message in one call.

        ``blocks`` is a sequence of blocks, each a sequence of ``k``
        equal-length data packets (all blocks of a rekey message share
        one packet size, so one fused kernel can encode the whole
        interval).  Returns one parity list per block — element ``b`` is
        exactly ``self.parity(blocks[b], n_parity, first_parity_index)``.

        This base implementation is the per-block oracle loop; the
        matrix coder overrides it with the stacked GF(256) kernel
        (:func:`repro.fec.gf256.gf_encode_stacked`), which ``tests/fec``
        pins to the loop — and to committed golden bytes.
        """
        return [
            self.parity(block, n_parity, first_parity_index)
            for block in blocks
        ]

    # -- decoding -------------------------------------------------------

    def decode(self, received):
        """Recover the ``k`` data packets from any ``k`` codeword packets.

        ``received`` maps codeword index -> packet bytes.  Extra packets
        beyond ``k`` are ignored (the first ``k`` lowest indices are
        used).  Raises :class:`NotEnoughPacketsError` with the shortfall
        recorded when fewer than ``k`` packets are present.
        """
        if not isinstance(received, dict):
            raise FECError("received must map codeword index -> bytes")
        if len(received) < self._k:
            missing = self._k - len(received)
            raise NotEnoughPacketsError(
                "need %d packets, have %d (%d more required)"
                % (self._k, len(received), missing)
            )
        for index in received:
            if not 0 <= index < MAX_CODEWORDS:
                raise FECError("codeword index %r out of range" % (index,))

        indices = sorted(received)[: self._k]
        if indices == list(range(self._k)):
            # All data packets arrived; no algebra needed.
            return [bytes(received[i]) for i in indices]

        lengths = {len(received[i]) for i in indices}
        if len(lengths) != 1:
            raise FECError(
                "received packets have differing lengths: %s"
                % sorted(lengths)
            )
        packets = [received[i] for i in indices]
        obs = self.obs
        if obs.enabled:
            with obs.span(
                "fec.decode", k=self._k, erased=self._k - sum(
                    1 for i in indices if i < self._k
                ),
            ):
                return self._decode_packets(indices, packets)
        return self._decode_packets(indices, packets)

    def _decode_packets(self, indices, packets):
        submatrix = self._generator[indices].copy()
        inverse = self._invert(submatrix)
        return self._apply(inverse, packets)

    def parity_needed(self, n_received):
        """How many more packets a user must request (the NACK ``a``).

        By the property of Reed-Solomon encoding this is simply
        ``k - received`` (never negative).
        """
        check_non_negative("n_received", n_received, integral=True)
        return max(0, self._k - n_received)

    def __repr__(self):
        return "%s(k=%d)" % (type(self).__name__, self._k)


class ReferenceRSECoder(_RSECoderBase):
    """The original scalar encoder/decoder, kept as the oracle.

    Applies generator rows with :func:`gf_matmul` (a per-coefficient
    Python loop over packet arrays) and inverts decode systems with the
    per-element :func:`gf_matrix_invert`.  Slow but transparently
    correct; :class:`RSECoder` must match it byte for byte.
    """

    def _apply(self, rows, packets):
        stacked = np.stack(
            [np.frombuffer(bytes(p), dtype=np.uint8) for p in packets]
        )
        return [bytes(p) for p in gf_matmul(rows, stacked)]

    def _invert(self, submatrix):
        return gf_matrix_invert(submatrix)


class RSECoder(_RSECoderBase):
    """Matrix-form encoder/decoder for one block size ``k``.

    All packets in a block must share one length (ENC packets are padded
    to a fixed size for exactly this reason).

    Fast path: each generator coefficient is compiled once into a
    256-byte translation table (:func:`gf_mul_table_rows`); applying
    ``h`` rows to a ``k``-packet block is then ``h*k`` calls to
    :meth:`bytes.translate` fused into a single buffer, followed by one
    vectorised XOR reduction — no per-coefficient numpy round trips.
    Parity-row tables are cached per coder, and decode inversions are
    memoised per erasure pattern.
    """

    def __init__(self, k):
        super().__init__(k)
        self._row_tables = {}
        self._decode_cache = {}

    # -- table compilation ---------------------------------------------

    def _tables_for_rows(self, first_row, last_row):
        """Translation tables for generator rows [first_row, last_row),
        flattened row-major: k tables per row."""
        missing = [
            row for row in range(first_row, last_row)
            if row not in self._row_tables
        ]
        if missing:
            coefficients = self._generator[missing].reshape(-1)
            compiled = gf_mul_table_rows(coefficients)
            for position, row in enumerate(missing):
                base = position * self._k
                self._row_tables[row] = tuple(
                    compiled[base + column].tobytes()
                    for column in range(self._k)
                )
        tables = []
        for row in range(first_row, last_row):
            tables.extend(self._row_tables[row])
        return tables

    @staticmethod
    def _compile_matrix(matrix):
        compiled = gf_mul_table_rows(np.asarray(matrix).reshape(-1))
        return [compiled[i].tobytes() for i in range(compiled.shape[0])]

    def _translate_apply(self, tables, packets, n_rows):
        """XOR-accumulate translated packets: the fused hot loop.

        ``tables`` holds ``n_rows * k`` translation tables row-major.
        Every (row, column) term is translated into one contiguous
        buffer; a single reshape + XOR reduction collapses the block
        dimension.
        """
        data = [bytes(p) for p in packets]
        length = len(data[0])
        joined = b"".join(
            packet.translate(table)
            for table, packet in zip(tables, cycle(data))
        )
        combined = np.frombuffer(joined, dtype=np.uint8)
        out = np.bitwise_xor.reduce(
            combined.reshape(n_rows, self._k, length), axis=1
        )
        return [row.tobytes() for row in out]

    # -- hot-path overrides --------------------------------------------

    def _apply_generator_rows(self, first_row, last_row, data_packets):
        tables = self._tables_for_rows(first_row, last_row)
        return self._translate_apply(
            tables, data_packets, last_row - first_row
        )

    def _apply(self, rows, packets):
        rows = np.asarray(rows, dtype=np.uint8)
        return self._translate_apply(
            self._compile_matrix(rows), packets, rows.shape[0]
        )

    def _invert(self, submatrix):
        return gf_matrix_invert_fast(submatrix)

    def parity_blocks(self, blocks, n_parity, first_parity_index=0):
        """Stacked-block parity: one fused kernel for the whole message.

        Byte-identical to the base class's per-block loop (pinned by
        ``tests/fec`` golden vectors); blocks with differing packet
        lengths fall back to the loop, since the fused kernel needs one
        rectangular array.
        """
        check_non_negative("n_parity", n_parity, integral=True)
        check_non_negative(
            "first_parity_index", first_parity_index, integral=True
        )
        blocks = [list(block) for block in blocks]
        if n_parity == 0 or not blocks:
            return [[] for _ in blocks]
        first_row = self._k + first_parity_index
        last_row = first_row + n_parity
        if last_row > MAX_CODEWORDS:
            raise FECError(
                "parity rows %d..%d exceed the GF(256) limit of %d"
                % (first_row, last_row - 1, MAX_CODEWORDS - 1)
            )
        for block in blocks:
            self._check_block(block)
        if len({len(block[0]) for block in blocks}) != 1:
            return super().parity_blocks(
                blocks, n_parity, first_parity_index
            )
        length = len(blocks[0][0])
        stacked = np.frombuffer(
            b"".join(
                bytes(packet) for block in blocks for packet in block
            ),
            dtype=np.uint8,
        ).reshape(len(blocks), self._k, length)
        rows = self._generator[first_row:last_row]
        obs = self.obs
        if obs.enabled:
            with obs.span(
                "fec.encode_batch",
                k=self._k,
                n_blocks=len(blocks),
                n_parity=int(n_parity),
            ):
                encoded = gf_encode_stacked(rows, stacked)
        else:
            encoded = gf_encode_stacked(rows, stacked)
        return [
            [row.tobytes() for row in block_rows]
            for block_rows in encoded
        ]

    def _decode_packets(self, indices, packets):
        pattern = tuple(indices)
        tables = self._decode_cache.get(pattern)
        if tables is None:
            inverse = gf_matrix_invert_fast(self._generator[indices].copy())
            tables = self._compile_matrix(inverse)
            if len(self._decode_cache) >= _DECODE_CACHE_LIMIT:
                self._decode_cache.clear()
            self._decode_cache[pattern] = tables
        return self._translate_apply(tables, packets, self._k)
