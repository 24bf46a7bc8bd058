"""Compare the two exact-rational backends on a representative workload.

Run directly:

    python3 benchmarks/bench_backend.py [N]

The workload builds a deformed system with D={1,2}, extracts the
recurrence table for Y=1 and solves the closure relation; these steps
dominate real verification runs.  The backend is chosen per-process via
DUALRACAH_BACKEND, so each candidate runs in a fresh subprocess with the
checkout's ``src`` on its path.  An absent gmpy2 is reported as skipped.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_WORK = r"""
import time
from dualracah.backend import BACKEND, rat
from dualracah.closure import verify_closure
from dualracah.params import make_params, R
from dualracah.pipeline import Pipeline
from dualracah.poly import Poly

N = {N}
Y = Poly([rat(1)])
t0 = time.perf_counter()
pipe = Pipeline(make_params(R, N, b=N + 5, c=rat(1, 2), d=rat(2, 5)), (1, 2))
if not verify_closure(pipe.hamiltonian(Y), pipe.closure(Y)).is_zero():
    raise SystemExit(f"{{BACKEND}}: closure residual is not zero")
print(f"{{BACKEND}}: {{time.perf_counter() - t0:.3f}}s")
"""


def run(backend: str, n: int) -> None:
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, DUALRACAH_BACKEND=backend, PYTHONPATH=os.pathsep.join(path))
    subprocess.run([sys.executable, "-c", _WORK.format(N=n)], env=env, check=True)


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    print(f"workload: R family, N={n}, D={{1,2}}, build+recurrence+closure")
    failed = False
    for backend in ("gmpy2", "fraction"):
        if backend == "gmpy2" and importlib.util.find_spec("gmpy2") is None:
            print("gmpy2: skipped (not installed)")
            continue
        try:
            run(backend, n)
        except subprocess.CalledProcessError as e:
            print(f"{backend}: failed (exit status {e.returncode})")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
