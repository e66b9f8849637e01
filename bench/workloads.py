"""The four benchmark workloads.

All run on the built-in boundary data on [-1,1]^2 with the solver defaults;
none draws a random number, so the inputs are the same whatever the seed.
Library workloads call one solver in a child process; CLI workloads run one
`python -m segsolve bench` sweep with PYTHONPATH pointing at `src`.
"""

NINE_BCS = tuple(f"bc{k}" for k in range(1, 10))


def _sweep(algo: str, n: int, jobs: int, *extra: str) -> dict:
    """A `segsolve bench` sweep of one algorithm over bc1..bc9."""
    args = ("bench", "--algos", algo, "--n", str(n), *extra, "--deterministic", "--jobs", str(jobs))
    return {"kind": "cli", "n": n, "bcs": NINE_BCS, "args": args}


WORKLOADS = {
    # pgd_run on ex41 to its default tolerance: stencil, projection, energy, step norm
    "pgd-ex41": {"kind": "lib", "n": 61, "bcs": ("ex41",)},
    # nine FISTA cells one after another, with every artifact the CLI writes
    "fista-sweep": _sweep("fista", 31, 1),
    # run_penalty, picard, eps ladder 1e-2 -> 1e-5: Jacobi-PCG solves
    "penalty-ex41": {"kind": "lib", "n": 51, "bcs": ("ex41",)},
    # nine Gauss-Seidel penalty cells in two pool workers; the same sweep at
    # --jobs 1 must write byte-identical artifacts
    "penalty-sweep-jobs2": {**_sweep("penalty-gs", 41, 2, "--eps", "1e-4"), "check_jobs1": True},
}

PENALTY_LADDER = (1e-2, 1e-3, 1e-4, 1e-5)
