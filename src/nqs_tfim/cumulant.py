"""Cumulant (coupled-cluster) expansion of a state via Walsh-Hadamard.

log Psi(s) = sum_A c_A S_A(s), where A runs over subset bitmasks and
S_A(s) = prod_{i in A} s_i is a monomial of +-1 spin variables. The
coefficients are the Walsh-Hadamard transform of log Psi up to a per-order
sign: S_A(s) = (-1)^|A| (-1)^{A.b} for the bit vector b of s, so
c_A = (-1)^|A| fwht(log Psi)[A] / 2^L. They are held as a plain (2^L,)
complex array indexed by A, whose length gives L.

Truncation keeps the N by-magnitude largest coefficients (not the lowest
orders), magnitude_ranking(c)[:N], re-exponentiates and renormalizes. An
infidelity curve computes the coefficients, their ranking and the signed
vector (-1)^|A| c_A once and keeps one masked copy of it; each N then
costs one scatter of the entries kept or dropped since the previous N and
one FWHT. For a complex signed vector each N takes its own FWHT and one
real exp and one tan per amplitude: with log a = x + iy and t = tan(y/2),
a = e^x ((1 - t^2) + 2it) / (1 + t^2), the half-angle form
`rbm.log_psi_and_tanh` uses. A sign-free state (all phases equal, such as
the ground state of a stoquastic H) has a real signed vector, so every
truncation has real log-amplitudes: two N then share one FWHT, one in
each plane of the masked vector, and each costs one real exp per
amplitude. The curve values are the same bit for bit either way.
"""

import numpy as np

from . import exact

AMPLITUDE_FLOOR = 1e-30
COEFF_FLOOR = 1e-300   # below this an exact coefficient has no relative error
N_GRID_POINTS = 200   # log-spaced N of default_n_grid above L = 10


def fwht(v: np.ndarray) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform; fwht(fwht(v)) = len(v)*v.

    Stage k adds and subtracts the pairs of entries whose indices differ in
    bit k, for k = 0, 1, 2, ... in order, as the textbook in-place loop
    does, so each output is the same sum bit for bit. Each stage reads the
    even and odd entries of one buffer and writes the sums to the first
    half of another and the differences to its second half. That moves
    bit k to the top of the index and bit k + 1 to the bottom, so every
    stage pairs neighbours, and after the last one the index is back in
    place.
    """
    src = np.array(v, dtype=complex)
    shape, n = src.shape, src.size
    if n == 0 or n & (n - 1):
        raise ValueError(f"length {n} is not a power of two")
    src = src.ravel()
    dst = np.empty_like(src)
    half = n // 2
    for _ in range(n.bit_length() - 1):
        np.add(src[0::2], src[1::2], out=dst[:half])
        np.subtract(src[0::2], src[1::2], out=dst[half:])
        src, dst = dst, src
    return src.reshape(shape)


def subset_orders(L: int) -> np.ndarray:
    """|A| for every subset bitmask A in [0, 2^L)."""
    return np.bitwise_count(np.arange(1 << L, dtype=np.uint64)).astype(np.int64)


def cumulant_coefficients(psi: np.ndarray) -> np.ndarray:
    """Expansion coefficients c_A of log Psi for a phase-fixed state, as a
    (2^L,) complex array indexed by subset bitmask A.

    Amplitudes below AMPLITUDE_FLOOR in magnitude are clamped before the
    log, so states with exact zeros give regularization-dependent results.
    """
    psi = np.asarray(psi, dtype=complex)
    n = psi.size
    L = int(n).bit_length() - 1
    if n != 1 << L:
        raise ValueError("state length is not a power of two")
    mags = np.abs(psi)
    if np.all(mags < AMPLITUDE_FLOOR):
        raise ValueError("all amplitudes below the clamp floor")
    log_amp = np.log(np.maximum(mags, AMPLITUDE_FLOOR)) + 1j * np.angle(psi)
    signs = 1.0 - 2.0 * (subset_orders(L) & 1)
    return signs * fwht(log_amp) / n


def magnitude_ranking(c: np.ndarray) -> np.ndarray:
    """Subset bitmasks ordered by descending |c_A|, ties by ascending mask."""
    return np.argsort(-np.abs(c), kind="stable")


def default_n_grid(L: int) -> np.ndarray:
    """All N in [1, 2^L] for L <= 10, ~N_GRID_POINTS log-spaced above."""
    total = 1 << L
    if L <= 10:
        return np.arange(1, total + 1)
    return np.unique(np.geomspace(1, total, N_GRID_POINTS).round().astype(int))


def infidelity_curve(source: np.ndarray, reference: np.ndarray, ns) -> list:
    """(N, infidelity(truncated source, reference)) for each N in ns.

    source and reference must be 1-D and of one length. Each N in ns must
    lie in [1, 2^L]; ns may come in any order and repeat. A sign-free
    source, whose signed coefficients have no nonzero imaginary part, has
    real log-amplitudes at every N: consecutive N of ns then share one
    transform, the first in the real plane of the masked vector and the
    second in its imaginary plane, each plane with its own kept count. The
    FWHT adds and subtracts the two planes separately, so each comes out
    bit for bit as if transformed alone. Other sources take one transform
    per N.
    """
    source, reference = np.asarray(source), np.asarray(reference, dtype=complex)
    exact.check_state_pair(source, reference)
    c = cumulant_coefficients(exact.fix_phase(exact.normalize(source)))
    ns = [int(n) for n in ns]
    for n in ns:
        if not 1 <= n <= c.size:
            raise ValueError(f"N={n} outside [1, {c.size}]")
    ref_norm = np.linalg.norm(reference)
    if ref_norm == 0:
        raise ValueError("infidelity undefined for a zero vector")
    ranking = magnitude_ranking(c)
    signed = (1.0 - 2.0 * (subset_orders(c.size.bit_length() - 1) & 1)) * c
    masked = np.zeros_like(c)
    if np.any(signed.imag):
        planes, values = (masked,), signed
    else:
        planes, values = (masked.real, masked.imag), signed.real
    kept = [0] * len(planes)
    # reused for every N; the complex one, whose imaginary part stays 0,
    # holds real amplitudes for the overlap
    buffers = (*(np.empty(c.size) for _ in range(3)), np.zeros(c.size, dtype=complex))
    out = []
    for start in range(0, len(ns), len(planes)):
        chunk = ns[start:start + len(planes)]
        for p, n in enumerate(chunk):
            if n > kept[p]:
                added = ranking[kept[p]:n]
                planes[p][added] = values[added]
            else:
                planes[p][ranking[n:kept[p]]] = 0
            kept[p] = n
        log_amps = fwht(masked)
        parts = [log_amps] if len(planes) == 1 else [log_amps.real, log_amps.imag]
        for n, log_a in zip(chunk, parts):
            out.append((n, _truncation_infidelity(log_a, reference, ref_norm, buffers)))
    return out


def _truncation_infidelity(log_a, reference, ref_norm, buffers) -> float:
    """Infidelity of the amplitudes e^(log_a) against the reference.

    A real log_a = x gives a = e^(x - max x). A complex log_a = x + iy is
    overwritten with a = e^(x - max x) ((1 - t^2) + 2it) / (1 + t^2), where
    t = tan(y/2): one real exp and one tan per amplitude, the half-angle
    form `rbm.log_psi_and_tanh` uses. The overlap is taken on these
    unnormalized amplitudes, since the infidelity does not depend on norm
    or global phase; their norm comes from the real magnitudes e^x. Real
    amplitudes are copied into the real part of the complex buffer, so
    `np.vdot` makes no complex copy of them.
    """
    mag, t, q, real_amps = buffers
    np.subtract(log_a.real, np.max(log_a.real), out=mag)
    np.exp(mag, out=mag)                             # |a| = e^x
    if np.iscomplexobj(log_a):
        amps = log_a
        np.multiply(amps.imag, 0.5, out=t)
        np.tan(t, out=t)
        np.multiply(t, t, out=q)
        np.subtract(1.0, q, out=amps.real)
        q += 1.0
        np.divide(mag, q, out=q)                     # |a| / (1 + t^2)
        amps.real *= q                               # |a| cos y
        q += q
        np.multiply(q, t, out=amps.imag)             # |a| sin y
    else:
        amps = real_amps
        amps.real = mag
    overlap = np.abs(np.vdot(reference, amps)) / (np.linalg.norm(mag) * ref_norm)
    return float(max(0.0, 1.0 - overlap**2))


def coefficient_relative_errors(c_model: np.ndarray, c_exact: np.ndarray):
    """Per-coefficient relative errors ranked by descending |c_exact|.

    Returns (ranked bitmasks, errors); entries where |c_exact| < COEFF_FLOOR
    are NaN (relative error undefined).
    """
    if c_model.shape != c_exact.shape:
        raise ValueError("coefficient sets live on different chains")
    ranking = magnitude_ranking(c_exact)
    ref = np.abs(c_exact[ranking])
    err = np.abs(c_model[ranking] - c_exact[ranking])
    out = np.full(ref.shape, np.nan)
    ok = ref >= COEFF_FLOOR
    out[ok] = err[ok] / ref[ok]
    return ranking, out
