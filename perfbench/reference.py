"""Independent numpy references, input generators and probes for the benchmark.

Nothing here imports ``entmono``: every expected value is computed from the
definitions (partial transpose by reshape/transpose, ``np.linalg.eigvalsh``,
the full Tavis-Cummings Hamiltonian), so a defect in the library cannot
hide in its own reference.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Same cutoffs the library documents: negative PT eigenvalues above
# -NEG_TOL * max(1, |lambda|_max) are zero, state eigenvalues below RANK_TOL
# are null space.
NEG_TOL = 1e-10
RANK_TOL = 1e-10


def random_state(rng: np.random.Generator, dims) -> np.ndarray:
    """Full-rank, entangled density matrix on ``dims``, built in O(D^2).

    A near-maximally-mixed part ``(I + H/2)/D`` with ``|H|_F = 1`` (so it is
    positive definite) mixed with a random pure state, which makes the
    partial transpose non-positive. Avoids the O(D^3) product ``G G^H``,
    which would dominate set-up at D = 1024.
    """
    d = dims[0] * dims[1]
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = h + h.conj().T
    h /= np.linalg.norm(h)
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    w = rng.uniform(0.2, 0.8)
    rho = (1.0 - w) * (np.eye(d) + 0.5 * h) / d + w * np.outer(psi, psi.conj())
    rho = 0.5 * (rho + rho.conj().T)
    return rho / rho.trace().real


def isotropic(d: int, fidelity: float) -> np.ndarray:
    """Isotropic state ``(1 - lam)/d^2 I + lam |Phi><Phi|`` of the given fidelity."""
    lam = (d * d * fidelity - 1.0) / (d * d - 1.0)
    phi = np.zeros(d * d, dtype=np.complex128)
    phi[:: d + 1] = 1.0 / np.sqrt(d)
    return (1.0 - lam) / (d * d) * np.eye(d * d) + lam * np.outer(phi, phi.conj())


def state_json(mat: np.ndarray, dims) -> str:
    """State file text in the library's documented JSON format."""
    return json.dumps({"d_a": dims[0], "d_b": dims[1], "kind": "density",
                       "re": mat.real.tolist(), "im": mat.imag.tolist()})


def partial_transpose_b(mat: np.ndarray, dims) -> np.ndarray:
    d_a, d_b = dims
    d = d_a * d_b
    return mat.reshape(d_a, d_b, d_a, d_b).transpose(0, 3, 2, 1).reshape(d, d)


def negative_spectrum(mat: np.ndarray, dims) -> np.ndarray:
    """Negative eigenvalues of the B-partial transpose, descending."""
    w = np.linalg.eigvalsh(partial_transpose_b(mat, dims))[::-1]
    scale = max(1.0, float(np.abs(w).max()))
    return w[w < -NEG_TOL * scale]


def monotones(mat: np.ndarray, dims) -> dict:
    """Negativity, concurrence bound and the p = 1, 2, 3 reports."""
    neg = negative_spectrum(mat, dims)
    mag = np.abs(neg)
    out = {"negativity": float(mag.sum()),
           "concurrence_bound": 2.0 * float(np.sqrt(np.sum(mag * mag))),
           "negative_eigenvalues": neg}
    for p in (1, 2, 3):
        psum = float(np.sum(mag ** p))
        out[p] = {"pnorm": psum ** (1.0 / p) if neg.size else 0.0, "power_sum": psum}
    return out


def tangle_bound(mat: np.ndarray, dims) -> float:
    neg = negative_spectrum(mat, dims)
    return 4.0 * float(np.sum(neg * neg))


class CavityReference:
    """Two atoms and one truncated field mode, by one dense eigensolve.

    Basis index ``(2 s1 + s2) (n_max + 1) + n`` with ``s = 1`` excited, the
    library's documented ordering. ``H = sum_k a sigma_k^+ + h.c.`` at unit
    coupling, so times are effective times ``gt``.
    """

    def __init__(self, nbar: float, n_max: int):
        fock = n_max + 1
        a = np.diag(np.sqrt(np.arange(1.0, fock)), 1)
        up = np.array([[0.0, 0.0], [1.0, 0.0]])
        eye2 = np.eye(2)
        h = np.kron(np.kron(up, eye2), a) + np.kron(np.kron(eye2, up), a)
        self.w, self.v = np.linalg.eigh(h + h.T)
        n = np.arange(fock)
        log_amp = (-0.5 * nbar + n * 0.5 * math.log(nbar)
                   - 0.5 * np.array([math.lgamma(k + 1.0) for k in n]))
        amps = np.exp(log_amp)
        psi0 = np.zeros(4 * fock)
        psi0[3 * fock:] = amps / np.linalg.norm(amps)
        self.y0 = self.v.T @ psi0
        self.fock = fock

    def atom_field(self, gt: float) -> np.ndarray:
        """Atom-2 plus field density matrix after tracing out atom 1."""
        psi = self.v @ (np.exp(-1j * self.w * gt) * self.y0)
        m = psi.reshape(2, 2 * self.fock)
        return m.T @ m.conj()

    def point(self, gt: float) -> tuple[float, int, float]:
        """``(n2pt, rank, purity)`` at effective time ``gt``."""
        rho = self.atom_field(gt)
        spec = np.linalg.eigvalsh(rho)
        dims = (2, self.fock)
        return tangle_bound(rho, dims), int(np.sum(spec > RANK_TOL)), float(spec @ spec)


def eig_probe(sizes, reps):
    """A fixed LAPACK kernel: eigenvalues of fixed Hermitian matrices."""
    rng = np.random.default_rng(0)
    mats = []
    for n in sizes:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mats.append(a + a.conj().T)

    def probe():
        for _ in range(reps):
            for m in mats:
                np.linalg.eigvalsh(m)
    return probe


def roof_step_probe(iters, m, r, dims):
    """A fixed small-matrix kernel shaped like one step of a roof search:
    an ``m x r`` isometry acting on ``r`` members of a ``dims`` system,
    member Gram matrices and traces, and a polar retraction."""
    rng = np.random.default_rng(0)
    z = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
    s = rng.standard_normal((r, dims[0] * dims[1])) + 1j * rng.standard_normal((r, dims[0] * dims[1]))

    def probe():
        u = z
        for _ in range(iters):
            mats = (u @ s).reshape(m, *dims)
            g = mats @ mats.conj().transpose(0, 2, 1)
            np.einsum("ikk->i", g)
            (g @ mats).reshape(m, -1)
            left, _, right = np.linalg.svd(u, full_matrices=False)
            u = left @ right
    return probe


def json_probe(sizes):
    """A fixed parsing kernel: state-file text for each ``d x d`` size, parsed."""
    rng = np.random.default_rng(0)
    texts = [state_json(random_state(rng, (d, d)), (d, d)) for d in sizes]

    def probe():
        for text in texts:
            obj = json.loads(text)
            np.array(obj["re"]) + 1j * np.array(obj["im"])
    return probe
