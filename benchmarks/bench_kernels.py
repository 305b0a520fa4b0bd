"""Compare the compiled and pure-Python kernel backends.

Runs the same workloads against both implementations in one process
(they are plain modules with an identical contract), checks that the
results agree, and prints a timing table.  An end-to-end stabilizer-chain
workload is run in subprocesses so each side goes through its own
import-time backend selection.

Usage: python3 benchmarks/bench_kernels.py [--repeat N] [--degree D]
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import subprocess
import sys
import time

from amalgamlab import _purekernels

try:
    from amalgamlab import _fastkernels
except ImportError:
    _fastkernels = None


def random_perm(rng: random.Random, degree: int) -> tuple[int, ...]:
    images = list(range(degree))
    rng.shuffle(images)
    return tuple(images)


def timeit(fn, repeat: int) -> float:
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def bench_backend(impl, degree: int, repeat: int) -> dict[str, float]:
    rng = random.Random(20240814)
    perms = [random_perm(rng, degree) for _ in range(200)]
    out: dict[str, float] = {}

    def compose_all():
        acc = tuple(range(degree))
        for p in perms:
            acc = impl.compose(acc, p)
        return acc

    def inverse_all():
        return [impl.inverse(p) for p in perms]

    def order_all():
        return [impl.perm_order(p) for p in perms]

    def conjugate_all():
        return [impl.conjugate(p, q) for p, q in zip(perms, reversed(perms))]

    cycle = tuple(list(range(1, degree)) + [0])
    swap = tuple([1, 0] + list(range(2, degree)))

    def orbit():
        return impl.orbit_transversal([cycle, swap], 0, degree)

    out["compose x200"] = timeit(compose_all, repeat)
    out["inverse x200"] = timeit(inverse_all, repeat)
    out["perm_order x200"] = timeit(order_all, repeat)
    out["conjugate x200"] = timeit(conjugate_all, repeat)
    out[f"orbit_transversal (degree {degree})"] = timeit(orbit, repeat)

    # Correctness spot checks against the same inputs.
    assert compose_all() == _reference_compose(perms, degree)
    return out


def _reference_compose(perms, degree):
    acc = tuple(range(degree))
    for p in perms:
        acc = tuple(p[a] for a in acc)
    return acc


def bench_end_to_end(backend: str) -> float:
    """A full pair-stabilizer verification run, one subprocess per backend."""
    code = (
        "import time; t=time.perf_counter();"
        "from amalgamlab.pairs import verify_approximation;"
        "assert verify_approximation(7).overall == 'pass';"
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, AMALGAMLAB_BACKEND=backend)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return float(proc.stdout.strip())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--degree", type=int, default=1000)
    args = parser.parse_args()

    if _fastkernels is None:
        print("compiled backend is not built; showing pure-Python only")
        backends = [("python", _purekernels)]
    else:
        backends = [("c", _fastkernels), ("python", _purekernels)]

    results = {
        name: bench_backend(impl, args.degree, args.repeat)
        for name, impl in backends
    }
    names = list(results[backends[0][0]])
    width = max(len(n) for n in names) + 2
    header = f"{'workload':<{width}}" + "".join(
        f"{name:>12}" for name, _ in backends
    )
    if len(backends) == 2:
        header += f"{'speedup':>10}"
    print(header)
    print("-" * len(header))
    for n in names:
        row = f"{n:<{width}}"
        for name, _ in backends:
            row += f"{results[name][n] * 1e3:>10.3f}ms"
        if len(backends) == 2:
            ratio = results["python"][n] / results["c"][n]
            row += f"{ratio:>9.1f}x"
        print(row)

    print()
    for name, _ in backends:
        elapsed = bench_end_to_end(name)
        print(f"end-to-end chain, backend={name:<7} {elapsed * 1e3:9.1f}ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
