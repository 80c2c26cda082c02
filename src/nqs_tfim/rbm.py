"""Complex-parameter restricted Boltzmann machine wavefunction.

Psi(s) = exp(sum_i a_i s_i) * prod_j cosh(b_j + sum_i W_ij s_i), with all
parameters complex. The flat parameter vector is ordered
[a_0..a_{L-1}, b_0..b_{M-1}, W_00, W_01, ..] with W row-major (site-major);
the SR matrix indexing relies on this order.

log Psi and tanh theta, theta = s W + b, come from one fused kernel,
log_psi_and_tanh_into: per block of ROW_BLOCK configurations it forms
theta^T = coef^T s^T by one real product and works in place on (M, block)
real rows of a caller's workspace, so it allocates nothing of block size.
It writes tanh theta hidden-major, (M, n), the layout the SR moment build
reads row by row; log_psi_and_tanh returns it as an (n, M) transposed
view.
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


def kernel_work_shape(M: int, n: int) -> tuple:
    """Shape of the real workspace of log_psi_and_tanh_into for n rows and M
    hidden units: the (2M+2)-row product block and seven (M, block)
    temporaries."""
    return (9 * M + 2, min(n, ROW_BLOCK))


def log_psi_and_tanh(w: RbmParameters, s: np.ndarray):
    """log Psi (n,) and tanh theta (n, M), theta = s W + b, for the spin
    rows s (n, L). tanh theta is a transposed view of a hidden-major
    (M, n) array; see log_psi_and_tanh_into."""
    lp = np.empty(len(s), dtype=complex)
    t = np.empty((w.M, len(s)), dtype=complex)
    log_psi_and_tanh_into(w, s, lp, t, np.empty(kernel_work_shape(w.M, len(s))))
    return lp, t.T


def log_psi_and_tanh_into(w: RbmParameters, s: np.ndarray, lp: np.ndarray,
                          t: np.ndarray, work: np.ndarray) -> None:
    """Write log Psi of the spin rows s (n, L) into lp (n,) and tanh theta,
    theta = s W + b, hidden-major into t (M, n); work is a real array of
    shape kernel_work_shape(M, n).

    Both come from one exponential per (hidden unit, row), in real
    arithmetic on blocks of ROW_BLOCK rows: theta^T = coef^T s^T is one
    real product per block, and every step after it runs in place on
    (M, block) rows of work. With z = sigma theta, sigma = +-1 chosen so
    that Re z >= 0, e^{-2z} = u e^{iy}, u = exp(-2 Re z) <= 1, y = -2 Im z,
    and d = 1 + e^{-2z} = 2 + expm1(-2z):

        log cosh theta = z - log 2 + log d,
        tanh theta = sigma (1 - u^2 - 2i Im d) / |d|^2.

    cos y and sin y come from tan(y/2), so Re d = (1 + u - expm1(-2 Re z)
    tan^2) / (1 + tan^2) and 1 - u^2 = -expm1(-2 Re z) (1 + u) are sums and
    products of same-signed terms: tanh keeps a few ulp at any |theta|, and
    |d| is not small except near the poles theta = i pi (k + 1/2), so no
    row's log underflows. The imaginary part of log Psi sums principal
    arguments, as sum_j log cosh theta_j does; the sums over the hidden
    units run over the rows of a block in order.
    """
    M = w.M
    # one real product gives the rows [Re(s a), Re(s W), Im(s a), Im(s W)]
    coef_t = np.empty((2 * M + 2, w.L))
    coef_t[0], coef_t[M + 1] = w.a.real, w.a.imag
    coef_t[1:M + 1], coef_t[M + 2:] = w.W.real.T, w.W.imag.T
    b_re, b_im = w.b.real[:, None], w.b.imag[:, None]
    for lo in range(0, len(s), ROW_BLOCK):
        rows = slice(lo, lo + ROW_BLOCK)
        n = min(ROW_BLOCK, len(s) - lo)
        x = work[:2 * M + 2, :n]
        sigma, tn, t2, em1, u, q, one_u = work[2 * M + 2:, :n].reshape(7, M, n)
        np.matmul(coef_t, s[rows].T, out=x)
        zr, zi = x[1:M + 1], x[M + 2:]
        zr += b_re                              # Re theta
        zi += b_im                              # Im theta
        np.copysign(1.0, zr, out=sigma)
        zr *= sigma
        zi *= sigma
        np.tan(zi, out=tn)                      # tan(y/2) = -tn
        np.multiply(tn, tn, out=t2)
        np.multiply(zr, -2.0, out=em1)
        np.exp(em1, out=u)                      # u
        np.expm1(em1, out=em1)                  # expm1(-2 Re z)
        np.add(t2, 1.0, out=q)
        np.divide(1.0, q, out=q)                # q = 1 / (1 + tn^2)
        np.add(u, 1.0, out=one_u)
        t2 *= em1
        np.subtract(one_u, t2, out=t2)
        d_re = np.multiply(t2, q, out=t2)       # (1 + u - em1 tn^2) q
        u *= 2.0
        u *= tn
        v = np.multiply(u, q, out=u)            # -Im d = 2 u tn q
        np.multiply(d_re, d_re, out=tn)
        np.multiply(v, v, out=q)
        d2 = np.add(tn, q, out=tn)              # |d|^2
        lp_b = lp[rows]
        np.log(d2, out=q)
        q *= 0.5
        q += zr                                 # Re log cosh theta + log 2
        np.add.reduce(q, axis=0, out=lp_b.real)
        lp_b.real += x[0] - M * LOG2
        np.arctan2(v, d_re, out=q)
        np.subtract(zi, q, out=q)               # Im log cosh theta
        np.add.reduce(q, axis=0, out=lp_b.imag)
        lp_b.imag += x[M + 1]
        sigma /= d2
        np.negative(em1, out=em1)
        em1 *= one_u                            # 1 - u^2
        np.multiply(em1, sigma, out=t[:, rows].real)
        v *= 2.0
        np.multiply(v, sigma, out=t[:, rows].imag)


def log_psi_all(w: RbmParameters) -> np.ndarray:
    """log Psi for every configuration, shape (2^L,)."""
    return log_psi_and_tanh(w, hilbert.all_spins(w.L))[0]


def full_state_vector(w: RbmParameters) -> np.ndarray:
    """Normalized, phase-fixed amplitudes over all 2^L configurations, with
    no numpy warning: all NaN for a log amplitude of +inf or NaN, as after an
    aborted run (`exact.fix_phase`), and 0 where a log amplitude is -inf."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lp = log_psi_all(w)
        return exact.fix_phase(exact.normalize(np.exp(lp - np.max(lp.real))))


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
