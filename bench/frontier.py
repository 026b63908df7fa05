"""Float frontier probe: how far `verify --backend float` passes per measure.

Each probe measure has a fixed, ascending list of levels N.  The probe runs
them in order and stops at the first that fails (a non-zero exit or an
exception); the measure contributes the largest probed N below that
failure.  The lists bracket the frontier found at the first benchmarked
commit, so the probe costs a few seconds and not a full sweep; circle N=12
alone takes about 5 s on a 2-core x86 VM.  The sample cloud uses a fixed
seed, independent of the workload seed, so the count repeats exactly.
"""

import json

from workloads import seeded_samples

PROBE_SEED = 0
PROBES = (
    # (label, CLI input arguments, levels probed)
    ("gaussian_product d=1", ["--measure", "gaussian_product", "--d", "1"], range(1, 12)),
    ("exponential_product d=1", ["--measure", "exponential_product", "--d", "1"], range(1, 9)),
    ("uniform_box d=2", ["--measure", "uniform_box", "--d", "2"], (9, 10)),
    ("circle_uniform d=2", ["--measure", "circle_uniform", "--d", "2"], (11, 12)),
    ("samples d=2 n=40 seed 0", None, (4, 5, 6, 7)),
)


def _failure_label(outcome):
    if outcome.rc is None:
        return outcome.error
    try:
        report = json.loads(outcome.stdout)
    except ValueError:
        report = None
    for name, sub in sorted((report or {}).get("reports", {}).items()):
        for check in sub["checks"]:
            if not check["ok"]:
                return f"{name}: {check['label']}"
    tail = outcome.stderr.strip().splitlines()[-1:] or [""]
    return f"exit {outcome.rc}: {tail[0][:160]}"


def probe(invoke, workdir):
    """Returns (frontier level sum, one table row per probe measure)."""
    samples = workdir / "probe-samples.json"
    samples.write_text(json.dumps({"points": seeded_samples(PROBE_SEED)}))
    rows = []
    for label, source, levels in PROBES:
        source = source or ["--samples", str(samples)]
        row = {"measure": label, "probed": list(levels), "largest_pass": 0}
        for N in levels:
            outcome = invoke(["verify", "--backend", "float", *source, "--N", str(N)])
            if outcome.rc != 0:
                row["first_fail"] = N
                row["failure"] = _failure_label(outcome)
                break
            row["largest_pass"] = N
        rows.append(row)
    return sum(r["largest_pass"] for r in rows), rows
