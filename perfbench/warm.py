"""Import bergmanlab from this checkout and warm the state requests share.

Run as a script, it times that set-up in a fresh process and prints the
seconds on stdout; ``run.py`` starts it twice to sample ``setup_s``.
Importing this module imports nothing numeric, so the caller can time the
import of bergmanlab itself.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# BLAS/OpenMP pools are pinned to one thread: the workloads are elementwise
# numpy and tiny LAPACK solves, and idle pool threads only add jitter.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class MissingSource(RuntimeError):
    """The checkout holds no ``src/bergmanlab`` to benchmark."""


def use_checkout_source():
    """Put this checkout's ``src`` first on the import path.

    Raises MissingSource when the package is absent, so the benchmark never
    measures some other installed copy.
    """
    if not (SRC / "bergmanlab" / "__init__.py").is_file():
        raise MissingSource(f"no bergmanlab package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def warm():
    """Import bergmanlab and build what every workload shares across requests.

    That is the default lattice, the default-size quadrature rules of the
    bundled suite's weights, and their reference disk constants.
    """
    import bergmanlab
    from bergmanlab.carleson import cached_lattice, reference_disk_constant
    from bergmanlab.suite import SUITE_ALPHAS, SUITE_R

    config = bergmanlab.CertifyConfig()
    lat = cached_lattice(SUITE_R, config.lattice_epsilon)
    for alpha in SUITE_ALPHAS:
        bergmanlab.build_quadrature(alpha, config.quad.n_radial, config.quad.n_angular)
        reference_disk_constant(alpha, SUITE_R, lat, config.quad)
    imported = Path(bergmanlab.__file__).resolve()
    if SRC not in imported.parents:
        raise MissingSource(f"bergmanlab was imported from {imported}, not {SRC}")


def timed_warm():
    """Seconds taken by ``warm()`` in this process, import included."""
    use_checkout_source()
    t0 = time.perf_counter()
    warm()
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(repr(timed_warm()))
