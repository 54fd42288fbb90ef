"""Digest of the CLI's JSON reports, one line per request.

Prints ``label seed sha256`` for each request, the hash taken over its exit
code and its ``--json`` stdout, or ``label seed crash <ExceptionType>`` for a
request that raised an untyped exception:

- every request of the three perfbench pools (``workloads.build``) at seeds
  7 and 11, in pool order;
- a sweep over the random mixed polynomials
  ``helpers.random_mixed_poly(default_rng(s), n=2 + s % 2, max_terms=3)``
  for s < 150: one ``nondeg`` report and one ``tame`` report per vanishing
  coordinate subspace, each at budget 8 and seed s;
- with ``--wide``, the wide sweep, the same requests on
  ``helpers.random_mixed_poly(default_rng(1000 + s), n=2 + s % 3,
  max_terms=5)`` for s < 150, and then one summary line starting with
  ``#``: its wall time, and the ``minimize`` calls and objective
  evaluations that its float searches made, counted through
  ``degeneracy.minimize``.

Requests run in-process through ``mixedmilnor.cli.main`` with BLAS on one
thread, from the ``src/`` beside this file.  To check that a change leaves
every report byte-identical, run it in both checkouts and diff the outputs:

    python3 tools/report_digest.py > after.txt

With ``--verdicts``, each line gives the request's exit code and verdicts
instead of the hash: per face status of a ``nondeg`` report, and per
subspace status with its per face statuses of a ``tame`` report (a
``certified_by`` label after each status that has one); any other report
keeps its hash.  Where a change legitimately moves a report's bytes (a new
witness, a new label), diffing these lines shows whether a verdict moved:

    python3 tools/report_digest.py --verdicts > after.txt

The flags combine: ``--wide --verdicts`` prints verdicts for both sweeps.
``tools/digest_verdicts.txt`` holds those lines without the ``#`` line and
without the ``transversality`` and ``openness`` hashes, which follow numpy's
version and SIMD level; CI diffs against it, so a change that moves a verdict
or an exact report rewrites it:

    python3 tools/report_digest.py --verdicts --wide \
        | grep -v -e '^#' -e '^transversality:' -e '^openness:' > tools/digest_verdicts.txt
"""

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[var] = "1"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from helpers import random_mixed_poly  # noqa: E402
from mixedmilnor import cli, degeneracy, newton  # noqa: E402

POOL_SEEDS = (7, 11)
SWEEP = 150
SWEEP_BUDGET = "8"
# sweep name: (offset of the rng seed, n cycles through 2 .. 1 + this, max_terms)
SWEEPS = {"sweep": (0, 2, 3), "wide": (1000, 3, 5)}


def digest(argv, verdicts=False):
    """sha256 of the exit code and stdout of one --json request, or with
    verdicts, the exit code and the statuses its report holds; "crash" and
    the exception's type for a request that raised."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main([*argv, "--json"])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is this request's digest, not the run's end
            return f"crash {type(exc).__name__}"
    if verdicts and code == 0:
        result = json.loads(out.getvalue())["result"]
        if "verdicts" in result:
            return f"{code} " + " ".join(map(_status, result["verdicts"]))
        if "subspaces" in result:
            return f"{code} " + " ".join(
                f"{entry['I']}:{_status(entry)}({','.join(map(_status, entry['faces']))})"
                for entry in result["subspaces"]
            ).replace(" ", "")
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


def _status(entry):
    label = entry.get("certified_by")
    return entry["status"] + (f"[{label}]" if label else "")


def sweep(s, name="sweep"):
    """(label, argv) of the named sweep's requests on its s-th polynomial."""
    offset, spread, max_terms = SWEEPS[name]
    f = random_mixed_poly(np.random.default_rng(offset + s), n=2 + s % spread, max_terms=max_terms)
    common = ["--poly", f.to_text(), "--budget", SWEEP_BUDGET, "--seed", str(s)]
    yield f"{name}:nondeg", ["nondeg", *common]
    for I in sorted(newton.vanishing_subsets(f).vanishing, key=sorted):
        subset = ",".join(map(str, sorted(I)))
        yield f"{name}:tame[{subset}]", ["tame", *common, "--subset", subset]


def counting_minimize(counts):
    """degeneracy.minimize, adding one call and each result's nfev to counts."""
    real = degeneracy.minimize

    def counted(*args, **kwargs):
        counts["calls"] += 1
        result = real(*args, **kwargs)
        counts["evals"] += int(result.nfev)
        return result

    return counted


def main(argv):
    if not set(argv) <= {"--verdicts", "--wide"}:
        sys.exit("usage: report_digest.py [--verdicts] [--wide]")
    verdicts, wide = "--verdicts" in argv, "--wide" in argv
    for workload in workloads.WORKLOADS:
        for seed in POOL_SEEDS:
            for req in workloads.build(workload, seed):
                print(req.label, seed, digest(req.argv, verdicts), flush=True)
    for s in range(SWEEP):
        for label, request in sweep(s):
            print(label, s, digest(request, verdicts), flush=True)
    if wide:
        counts = {"calls": 0, "evals": 0}
        degeneracy.minimize = counting_minimize(counts)
        start = perf_counter()
        for s in range(SWEEP):
            for label, request in sweep(s, "wide"):
                print(label, s, digest(request, verdicts), flush=True)
        print(f"# wide sweep: {perf_counter() - start:.1f} s, {counts['calls']} minimize calls, "
              f"{counts['evals']} objective evaluations", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
