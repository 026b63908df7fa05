"""Workloads of the favard benchmark: seeded inputs, case lists and output checks.

Every reference here comes from outside the code under test: recorded
sha256 digests of Jacobi files, closed-form moments computed in this file,
or exit codes and report flags of the command itself.  Nothing is imported
from favard or from its tests.
"""

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent / "fixtures"

WORKLOADS = ("exact", "verify-float")

# sha256 of the Jacobi files `decompose` writes for the exact catalog cases,
# recorded from the first benchmarked commit.  The fixtures `reconstruct`
# reads are these same files, so a digest mismatch there means a damaged
# fixture.
JACOBI_SHA256 = {
    "gaussian_product-d4-N3": "656ec56f6fcf8b6249847b11ed30770d1a9b117938a179f383e7a325fdd7651a",
    "uniform_box-d3-N4": "edc9a7fe7a232978189facbb6c833cf01db3ac7d9e1df3a06961ace8c6fe0b4e",
    "circle_uniform-d2-N7": "a276e2eb7901849bcb539ea6b0225adf5f1bafaad3d70dd8d55ba3f3f6120b64",
    "exponential_product-d1-N20": "f2f1e53cdb5fb2600af7129b9d9bfd62f136ebe6bb223af3e07f8f13f5905fab",
}

# (measure, d, N); reconstructing the first is the heaviest case of exact
EXACT_CASES = (
    ("gaussian_product", 4, 3),
    ("uniform_box", 3, 4),
    ("circle_uniform", 2, 7),
    ("exponential_product", 1, 20),
)
# the first entry is the heaviest case of verify-float
FLOAT_CASES = (
    ("circle_uniform", 2, 11),
    ("uniform_box", 2, 9),
    ("gaussian_product", 3, 5),
    ("gaussian_product", 4, 3),
)
ATOMS = {"d": 2, "count": 12, "N": 4}
SAMPLES = {"d": 2, "count": 40, "N": 4}


@dataclass
class Outcome:
    """What one command invocation returned: exit code (None when it raised)."""

    rc: object
    stdout: str
    stderr: str
    error: str = ""


@dataclass
class Case:
    name: str
    argv: list
    check: object  # (Outcome) -> failure label, or None when the output is right
    output: Path = None  # the file the command writes, if any

    def output_bytes(self, outcome):
        """The bytes the traced/untraced self-test compares."""
        if self.output is not None:
            return self.output.read_bytes() if self.output.exists() else b""
        return outcome.stdout.encode()


# ------------------------------------------------------------ seeded inputs


def seeded_atoms(seed):
    """Distinct points on the grid (Z/4)^2 with integer weights, as CLI --atoms JSON."""
    rng = random.Random(f"atoms-{seed}")
    points = set()
    while len(points) < ATOMS["count"]:
        points.add(tuple(Fraction(rng.randint(-8, 8), 4) for _ in range(ATOMS["d"])))
    return [(p, Fraction(rng.randint(1, 5))) for p in sorted(points)]


def atoms_json(atoms):
    return json.dumps([[[str(x) for x in p], str(w)] for p, w in atoms])


def seeded_samples(seed):
    """A standard gaussian point cloud in the plane, as floats."""
    rng = random.Random(f"samples-{seed}")
    return [[rng.gauss(0.0, 1.0) for _ in range(SAMPLES["d"])] for _ in range(SAMPLES["count"])]


# -------------------------------------------------------- closed-form moments


def _double_factorial(k):
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def _product_moment(one_d):
    def moment(m):
        out = Fraction(1)
        for k in m:
            out *= one_d(k)
        return out

    return moment


def _circle_moment(m):
    a, b = m
    if a % 2 or b % 2:
        return Fraction(0)
    return Fraction(_double_factorial(a - 1) * _double_factorial(b - 1), _double_factorial(a + b))


CLOSED_FORMS = {
    "gaussian_product": _product_moment(
        lambda k: Fraction(_double_factorial(k - 1)) if k % 2 == 0 else Fraction(0)
    ),
    "uniform_box": _product_moment(lambda k: Fraction(1, k + 1) if k % 2 == 0 else Fraction(0)),
    "exponential_product": _product_moment(lambda k: Fraction(factorial(k))),
    "circle_uniform": _circle_moment,
}


def atom_moments(atoms):
    total = sum(w for _, w in atoms)

    def moment(m):
        acc = Fraction(0)
        for p, w in atoms:
            term = w
            for x, k in zip(p, m):
                term *= x**k
            acc += term
        return acc / total

    return moment


# ------------------------------------------------------------------- checks


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _command_failure(outcome):
    if outcome.rc is None:
        return f"raised {outcome.error}"
    if outcome.rc != 0:
        tail = outcome.stderr.strip().splitlines()[-1:] or [""]
        return f"exit {outcome.rc}: {tail[0][:120]}"
    return None


def digest_check(path, want):
    def check(outcome):
        bad = _command_failure(outcome)
        if bad:
            return bad
        return None if _sha256(path) == want else "Jacobi file digest differs from the record"

    return check


def bytes_check(path, want):
    def check(outcome):
        bad = _command_failure(outcome)
        if bad:
            return bad
        if want is None:
            return "no validated reference (the round trip failed)"
        return None if path.read_bytes() == want else "Jacobi file bytes differ from the validated run"

    return check


def moment_file_failure(path, d, max_degree, moment):
    """None when the moment file holds exactly the moments moment(m), |m| <= max_degree."""
    doc = json.loads(path.read_text())
    if (doc.get("d"), doc.get("max_degree"), doc.get("scalar")) != (d, max_degree, "rational"):
        return f"header {doc.get('d')}, {doc.get('max_degree')}, {doc.get('scalar')}"
    entries = doc["moments"]
    if len(entries) != comb(max_degree + d, d):
        return f"{len(entries)} moments, expected {comb(max_degree + d, d)}"
    seen = set()
    for entry in entries:
        m = tuple(entry["m"])
        if len(m) != d or sum(m) > max_degree or m in seen:
            return f"bad or repeated multi-index {list(m)}"
        seen.add(m)
        if Fraction(entry["v"]) != moment(m):
            return f"moment {list(m)} is {entry['v']}, expected {moment(m)}"
    return None


def moments_check(path, d, max_degree, moment):
    def check(outcome):
        return _command_failure(outcome) or moment_file_failure(path, d, max_degree, moment)

    return check


def report_ok_check(outcome):
    bad = _command_failure(outcome)
    if bad:
        return bad
    try:
        ok = json.loads(outcome.stdout).get("ok")
    except ValueError:
        return "report is not JSON"
    return None if ok is True else "report not ok"


# ----------------------------------------------------------------- workloads


def _catalog_name(measure, d, N):
    return f"{measure}-d{d}-N{N}"


def build(workload, seed, workdir, invoke):
    """Generate the seeded inputs of a workload in workdir and return its cases.

    invoke(argv) runs one favard command in process and returns an Outcome;
    exact uses it to decompose the seeded atoms into the Jacobi file that
    its atoms reconstruct case reads.  The atoms decompose case comes last
    and fails its check until validate_atoms has given it a reference.
    The heaviest case comes first.
    """
    atoms = seeded_atoms(seed)
    atoms_argv = ["--measure", "atoms", "--d", str(ATOMS["d"]), "--atoms", atoms_json(atoms)]
    atoms_argv += ["--N", str(ATOMS["N"])]
    cases = []
    if workload == "exact":
        # converse direction: Jacobi file -> moments, checked against closed forms
        for measure, d, N in EXACT_CASES:
            name = _catalog_name(measure, d, N)
            src = FIXTURES / f"{name}.jacobi.json"
            if _sha256(src) != JACOBI_SHA256[name]:
                raise RuntimeError(f"fixture {src.name} does not match its recorded digest")
            out = workdir / f"{name}.moments.json"
            argv = ["reconstruct", "--jacobi", str(src), "--out", str(out)]
            check = moments_check(out, d, 2 * N + 1, CLOSED_FORMS[measure])
            cases.append(Case(f"reconstruct {name}", argv, check, out))
        src = workdir / "atoms-input.jacobi.json"
        made = invoke(["decompose", *atoms_argv, "--out", str(src)])
        if made.rc != 0:
            raise RuntimeError(f"decomposing the seeded atoms failed: {_command_failure(made)}")
        out = workdir / "atoms.moments.json"
        argv = ["reconstruct", "--jacobi", str(src), "--out", str(out)]
        check = moments_check(out, ATOMS["d"], 2 * ATOMS["N"] + 1, atom_moments(atoms))
        cases.append(Case(f"reconstruct atoms-d2-N{ATOMS['N']}", argv, check, out))
        # forward direction: measure -> Jacobi file, checked against recorded bytes
        for measure, d, N in EXACT_CASES:
            name = _catalog_name(measure, d, N)
            out = workdir / f"{name}.jacobi.json"
            argv = ["decompose", "--measure", measure, "--d", str(d), "--N", str(N), "--out", str(out)]
            cases.append(Case(f"decompose {name}", argv, digest_check(out, JACOBI_SHA256[name]), out))
        out = workdir / "atoms.jacobi.json"
        check = bytes_check(out, None)
        cases.append(Case(f"decompose atoms-d2-N{ATOMS['N']}", ["decompose", *atoms_argv, "--out", str(out)], check, out))
    elif workload == "verify-float":
        for measure, d, N in FLOAT_CASES:
            argv = ["verify", "--backend", "float", "--measure", measure, "--d", str(d), "--N", str(N)]
            cases.append(Case(_catalog_name(measure, d, N), argv, report_ok_check))
        samples = workdir / "samples.json"
        samples.write_text(json.dumps({"points": seeded_samples(seed)}))
        argv = ["verify", "--backend", "float", "--samples", str(samples), "--N", str(SAMPLES["N"])]
        cases.append(Case(f"samples-d2-n{SAMPLES['count']}-N{SAMPLES['N']}", argv, report_ok_check))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return cases, atoms


def validate_atoms(case, atoms, workdir, invoke):
    """Run decompose -> reconstruct -> decompose on the seeded atoms once.

    The reconstructed moments must equal the atom sums, and the second
    Jacobi file must repeat the first byte for byte.  Those first bytes
    become the reference every timed decompose of the atoms is held to.
    Returns (failure label or None, reference bytes or None).
    """
    first = invoke(case.argv)
    reference = case.output.read_bytes() if first.rc == 0 else None
    failure = _command_failure(first)
    if failure is None:
        moments = workdir / "atoms-roundtrip.moments.json"
        rebuilt = invoke(["reconstruct", "--jacobi", str(case.output), "--out", str(moments)])
        failure = _command_failure(rebuilt) or moment_file_failure(
            moments, ATOMS["d"], 2 * ATOMS["N"] + 1, atom_moments(atoms)
        )
    if failure is None:
        again = workdir / "atoms-roundtrip.jacobi.json"
        redone = invoke(["decompose", "--moments", str(moments), "--N", str(ATOMS["N"]), "--out", str(again)])
        failure = _command_failure(redone)
        if failure is None and again.read_bytes() != reference:
            failure = "decompose -> reconstruct -> decompose changed the Jacobi file"
    return failure, reference if failure is None else None
