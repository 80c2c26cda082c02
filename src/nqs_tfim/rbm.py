"""Complex-parameter restricted Boltzmann machine wavefunction.

Psi(s) = exp(sum_i a_i s_i) * prod_j cosh(b_j + sum_i W_ij s_i), with all
parameters complex. The flat parameter vector is ordered
[a_0..a_{L-1}, b_0..b_{M-1}, W_00, W_01, ..] with W row-major (site-major);
the SR matrix indexing relies on this order.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import exact, hilbert

DEFAULT_INIT_SCALE = 0.01
LOG2 = np.log(2.0)
# Rows per block of the fused kernels here and in sr: their temporaries stay
# in cache, and the result does not depend on the BLAS thread count.
ROW_BLOCK = 512


@dataclass(frozen=True)
class RbmParameters:
    a: np.ndarray   # (L,) complex
    b: np.ndarray   # (M,) complex
    W: np.ndarray   # (L, M) complex

    def __post_init__(self):
        L, M = self.W.shape
        if self.a.shape != (L,) or self.b.shape != (M,):
            raise ValueError("inconsistent parameter shapes")

    @property
    def L(self) -> int:
        return self.W.shape[0]

    @property
    def M(self) -> int:
        return self.W.shape[1]

    @property
    def n_var(self) -> int:
        L, M = self.W.shape
        return L + M + L * M

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.a, self.b, self.W.reshape(-1)])

    @classmethod
    def from_vector(cls, vec: np.ndarray, L: int, M: int) -> "RbmParameters":
        vec = np.asarray(vec, dtype=complex)
        if vec.shape != (L + M + L * M,):
            raise ValueError("flat vector length does not match (L, M)")
        return cls(vec[:L].copy(), vec[L:L + M].copy(), vec[L + M:].reshape(L, M).copy())


def n_hidden(L: int, alpha: float) -> int:
    M = int(round(alpha * L))
    if M < 1:
        raise ValueError(f"alpha={alpha} gives no hidden units at L={L}")
    return M


def init_random(L: int, alpha: float, seed: int, scale: float = DEFAULT_INIT_SCALE) -> RbmParameters:
    """Parameters with i.i.d. normal(0, scale^2) real and imaginary parts."""
    if scale <= 0:
        raise ValueError("init scale must be positive")
    hilbert.check_sites(L)
    M = n_hidden(L, alpha)
    rng = np.random.default_rng(seed)
    n = L + M + L * M
    vec = rng.normal(0.0, scale, n) + 1j * rng.normal(0.0, scale, n)
    return RbmParameters.from_vector(vec, L, M)


def log_psi_and_tanh(w: RbmParameters, s: np.ndarray):
    """log Psi and tanh theta, theta = s W + b, for the spin rows s (n, L).

    Both come from one exponential per (row, hidden unit), in real
    arithmetic on blocks of ROW_BLOCK rows. With z = sigma theta, sigma = +-1
    chosen so that Re z >= 0, e^{-2z} = u e^{iy}, u = exp(-2 Re z) <= 1,
    y = -2 Im z, and d = 1 + e^{-2z} = 2 + expm1(-2z):

        log cosh theta = z - log 2 + log d,
        tanh theta = sigma (1 - u^2 - 2i Im d) / |d|^2.

    cos y and sin y come from tan(y/2), so Re d = (1 + u - expm1(-2 Re z)
    tan^2) / (1 + tan^2) and 1 - u^2 = -expm1(-2 Re z) (1 + u) are sums and
    products of same-signed terms: tanh keeps a few ulp at any |theta|, and
    |d| is not small except near the poles theta = i pi (k + 1/2), so no
    row's log underflows. The imaginary part of log Psi sums principal
    arguments, as sum_j log cosh theta_j does.
    """
    M = w.M
    # one real product gives [Re(s a), Re(s W), Im(s a), Im(s W)]
    coef = np.hstack([w.a.real[:, None], w.W.real, w.a.imag[:, None], w.W.imag])
    lp = np.empty(len(s), dtype=complex)
    t = np.empty((len(s), M), dtype=complex)
    for lo in range(0, len(s), ROW_BLOCK):
        rows = slice(lo, lo + ROW_BLOCK)
        x = s[rows] @ coef
        theta_re = x[:, 1:M + 1] + w.b.real
        sigma = np.copysign(1.0, theta_re)
        zr = theta_re * sigma
        zi = (x[:, M + 2:] + w.b.imag) * sigma
        tn = np.tan(zi)                       # tan(y/2) = -tn
        tn2 = tn * tn
        em1 = np.expm1(-2.0 * zr)
        u = np.exp(-2.0 * zr)
        q = 1.0 / (1.0 + tn2)
        d_re = (1.0 + u - em1 * tn2) * q
        v = 2.0 * u * tn * q                  # -Im d
        d2 = d_re * d_re + v * v
        lp[rows].real = x[:, 0] - M * LOG2 + np.sum(zr + 0.5 * np.log(d2), axis=1)
        lp[rows].imag = x[:, M + 1] + np.sum(zi - np.arctan2(v, d_re), axis=1)
        sigma /= d2
        np.multiply(-em1 * (1.0 + u), sigma, out=t[rows].real)
        np.multiply(2.0 * v, sigma, out=t[rows].imag)
    return lp, t


def log_psi_all(w: RbmParameters) -> np.ndarray:
    """log Psi for every configuration, shape (2^L,)."""
    return log_psi_and_tanh(w, hilbert.all_spins(w.L))[0]


def log_psi(w: RbmParameters, index: int) -> complex:
    """log Psi(s) for a single configuration index."""
    hilbert.check_config(index, w.L)
    s = np.array([[1.0 if (index >> i) & 1 else -1.0 for i in range(w.L)]])
    return complex(log_psi_and_tanh(w, s)[0][0])


def log_derivatives(w: RbmParameters, index: int) -> np.ndarray:
    """O_k(s) = d log Psi / d omega_k in flat parameter order."""
    hilbert.check_config(index, w.L)
    s = np.array([1.0 if (index >> i) & 1 else -1.0 for i in range(w.L)])
    t = np.tanh(s @ w.W + w.b)
    return np.concatenate([s.astype(complex), t, (s[:, None] * t[None, :]).reshape(-1)])


def log_derivatives_all(w: RbmParameters) -> np.ndarray:
    """(2^L, n_var) matrix of log-derivatives for every configuration."""
    s = hilbert.all_spins(w.L)
    t = np.tanh(s @ w.W + w.b)
    sw = s[:, :, None] * t[:, None, :]
    return np.concatenate(
        [s.astype(complex), t, sw.reshape(s.shape[0], -1)], axis=1
    )


def full_state_vector(w: RbmParameters) -> np.ndarray:
    """Normalized, phase-fixed amplitudes over all 2^L configurations."""
    lp = log_psi_all(w)
    amps = np.exp(lp - np.max(lp.real))
    norm = np.linalg.norm(amps)
    if norm == 0 or not np.isfinite(norm):
        raise ValueError("state vector degenerate: amplitudes underflowed")
    return exact.fix_phase(amps / norm)


def apply_pi_rotation(w: RbmParameters, j: int) -> RbmParameters:
    """Parameter map realizing i*sigma^y_j on the represented state.

    a_j -> -(a_j + i pi/2) and W_j* -> -W_j*; everything else unchanged.
    """
    if not 0 <= j < w.L:
        raise ValueError(f"site index {j} outside [0, {w.L})")
    a = w.a.copy()
    W = w.W.copy()
    a[j] = -(a[j] + 1j * np.pi / 2)
    W[j, :] = -W[j, :]
    return RbmParameters(a, w.b.copy(), W)


def to_json(w: RbmParameters, meta: dict | None = None) -> str:
    """Checkpoint serialization: arrays of [re, im] pairs plus metadata."""
    def pairs(x):
        x = np.asarray(x)
        return np.stack([x.real, x.imag], axis=-1).tolist()

    doc = {
        "L": w.L,
        "M": w.M,
        "a": pairs(w.a),
        "b": pairs(w.b),
        "W": pairs(w.W),
    }
    if meta:
        doc["meta"] = meta
    return json.dumps(doc, indent=1)


def from_json(text: str) -> RbmParameters:
    doc = json.loads(text)

    def arr(x):
        x = np.asarray(x, dtype=float)
        return x[..., 0] + 1j * x[..., 1]

    return RbmParameters(arr(doc["a"]), arr(doc["b"]), arr(doc["W"]))
