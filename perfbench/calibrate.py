"""Calibration kernels: how fast the machine runs right now.

On a small shared host the same pass of a workload slows by a third or more
for seconds to minutes at a time, when other tenants load the cores it runs
on.  A run that falls in such a phase reads slow whatever statistic it
reports.  Each kernel below does fixed work on fixed inputs that are part of
the benchmark, not of the program, so its time changes only with the speed
of the machine.  run.py times the kernels right before and right after each
pass and divides the pass's time by the slowdown they saw, which gives the
pass's time at the reference speed.

``REFERENCE_S`` holds each kernel's median time on the host the benchmark
was defined on (2-core Intel Xeon, BLAS on one thread); it only sets the
scale of calibrated times, so that they read as seconds on that host.

    python3 perfbench/calibrate.py     # print each kernel's time, 50 samples
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.optimize

_rng = np.random.default_rng(20160503)


def _hermitian(n: int) -> np.ndarray:
    a = _rng.standard_normal((n, n)) + 1j * _rng.standard_normal((n, n))
    return a + a.conj().T


_SMALL = [_hermitian(4) for _ in range(40)]
_LARGE = _hermitian(200)
_TERMS = _SMALL[:3]


def _small_numpy() -> None:
    """NumPy call overhead on 4x4 matrices, as in the small-dims experiments."""
    for _ in range(8):
        for m in _SMALL:
            np.linalg.eigvalsh(m)
            np.kron(m, m).trace()


def _entropy_of_mix(x: np.ndarray) -> float:
    w = np.linalg.eigvalsh(x[0] * _TERMS[0] + x[1] * _TERMS[1] + x[2] * _TERMS[2])
    p = np.exp(-w)
    p /= p.sum()
    return float(-(p * np.log(p)).sum() + 0.01 * (x**2).sum())


def _nelder_mead() -> None:
    """SciPy's Nelder-Mead over a 4x4 eigenvalue objective, as in search."""
    scipy.optimize.minimize(
        _entropy_of_mix,
        np.array([0.3, -0.2, 0.5]),
        method="Nelder-Mead",
        options={"maxfev": 400, "xatol": 1e-12, "fatol": 1e-14},
    )


def _lapack() -> None:
    """A dense complex eigendecomposition, as in the large-dims experiments."""
    np.linalg.eigh(_LARGE)


KERNELS = {"small_numpy": _small_numpy, "nelder_mead": _nelder_mead, "lapack": _lapack}
REFERENCE_S = {"small_numpy": 0.013, "nelder_mead": 0.017, "lapack": 0.014}


def slowdown(kernels: tuple[str, ...]) -> float:
    """Mean over ``kernels`` of their time now / their reference time."""
    ratios = []
    for name in kernels:
        start = time.perf_counter()
        KERNELS[name]()
        ratios.append((time.perf_counter() - start) / REFERENCE_S[name])
    return sum(ratios) / len(ratios)


if __name__ == "__main__":
    for name, kernel in KERNELS.items():
        samples = []
        for _ in range(50):
            start = time.perf_counter()
            kernel()
            samples.append(time.perf_counter() - start)
        q1, median, q3 = statistics.quantiles(samples, n=4)
        print(f"{name:12s} median {median:.6f} s  q1 {q1:.6f}  q3 {q3:.6f}")
