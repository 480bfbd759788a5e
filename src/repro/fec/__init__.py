"""Forward-error-correction substrate: Reed-Solomon erasure coding.

The key server groups ENC packets into blocks of ``k`` and generates
PARITY packets with a Reed-Solomon Erasure (RSE) coder in the style of
L. Rizzo's classic implementation: a systematic code over GF(2^8) built
from a Vandermonde matrix, so that *any* ``k`` of the ``n`` codeword
packets recover the ``k`` originals.

- :mod:`repro.fec.gf256` — arithmetic over GF(2^8), scalar and
  vectorised (translation-table compilation, dense matmul, fast
  Gauss-Jordan inversion).
- :mod:`repro.fec.rse` — the coder, with support for generating extra
  parity packets incrementally (the protocol sends ``amax[i]`` *new*
  parity packets per block each round).  :class:`RSECoder` is the
  coder; ``rse.ReferenceRSECoder``, the original scalar implementation,
  is the differential-testing oracle and is not exported here.
"""

from repro.fec.gf256 import (
    FIELD_SIZE,
    gf_add,
    gf_div,
    gf_inv,
    gf_mul,
    gf_mul_bytes,
    gf_pow,
)
from repro.fec.rse import MAX_CODEWORDS, RSECoder, encoding_cost_units

__all__ = [
    "FIELD_SIZE",
    "MAX_CODEWORDS",
    "RSECoder",
    "encoding_cost_units",
    "gf_add",
    "gf_div",
    "gf_inv",
    "gf_mul",
    "gf_mul_bytes",
    "gf_pow",
]
