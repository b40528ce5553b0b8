"""Host-speed probe: a fixed piece of work, timed from inside.

    python3 perfbench/probe.py KIND

Prints the seconds the work took.  KIND ``vector`` is a Python loop of
numpy calls on a 16-element complex vector (elementwise product, dot
product, update, norm), the interpreter-bound kind of work the
tiny-vector workloads do; KIND ``blas`` is dense linear algebra like the
full engine's (complex row times real matrix, symmetric eigh), run with
the process's OpenBLAS threads.  Neither touches darkfilter, so a change to
the package cannot move them; they move only with the speed the host
gives this process.  run.py starts one in a fresh process beside every
run and scales the run's times by it (see README.md, "Host-speed
scaling").
"""

import sys
import time

import numpy as np


def vector_work():
    rng = np.random.default_rng(0)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 16))
    other = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    other /= 4.0 * np.linalg.norm(other)
    vec = np.ones(16, dtype=complex)
    start = time.perf_counter()
    for _ in range(200_000):
        vec *= phases
        vec -= other * np.vdot(other, vec)
        norm = float(np.real(np.vdot(vec, vec)))
        if norm < 1e-100:
            vec /= np.sqrt(norm)
    return time.perf_counter() - start


def blas_work():
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((1100, 1100))
    row = rng.standard_normal((1, 1100)) + 1j * rng.standard_normal((1, 1100))
    sym = rng.standard_normal((500, 500))
    sym += sym.T
    start = time.perf_counter()
    for _ in range(150):
        row @ matrix.T
    for _ in range(10):
        np.linalg.eigh(sym)
    return time.perf_counter() - start


def main():
    kind = sys.argv[1]
    if kind == "vector":
        print(vector_work())
    elif kind == "blas":
        print(blas_work())
    else:
        raise SystemExit(f"unknown probe kind {kind!r}")


if __name__ == "__main__":
    main()
