#!/usr/bin/env python3
"""File formats and the moment <-> sequence round trip, end to end.

The two JSON formats are the persistent interface: a moment file is the
dense list of moments up to a degree, a Jacobi file is the per-level
(Gomega_n, alpha_{j,n}) data.  The CLI wraps exactly this flow; here it is
driven through the library so the intermediate objects are visible.

The closing check is the strongest one the formats offer: decompose,
reconstruct, decompose again, and the two Jacobi files agree byte for
byte.
"""

import json
import tempfile
from pathlib import Path

from favard import (
    build_fock,
    from_catalog,
    from_file,
    jacobi_file_text,
    load_jacobi_file,
    moment_file_text,
    moment_of_word,
    save_jacobi_file,
    save_moment_file,
)
from favard.cap import extract_cap
from favard.gradation import build_gradation
from favard.jacobi import extract_jacobi
from favard.mindex import enumerate_level

workdir = Path(tempfile.mkdtemp(prefix="favard-demo-"))
N = 3

# 1. a measure enters as moments and leaves as a Jacobi file
phi = from_catalog("exponential_product", 1, 2 * N + 1)
moment_path = workdir / "exponential.moments.json"
save_moment_file(phi, str(moment_path))
print(f"moment file -> {moment_path}")
print("  first lines:", json.dumps(json.loads(moment_path.read_text())["moments"][:3]))

gb = build_gradation(phi, N)
js = extract_jacobi(gb, extract_cap(gb))
jacobi_path = workdir / "exponential.jacobi.json"

save_jacobi_file(js, str(jacobi_path))
print(f"\njacobi file -> {jacobi_path}")
doc = json.loads(jacobi_path.read_text())
print(f"  conventions: order={doc['order']!r} metric={doc['metric']!r}")
for lv in doc["levels"]:
    print(f"  level {lv['n']}: Gomega={lv['Gomega']} alpha={lv.get('alpha')}")

# 2. the file alone rebuilds the operators and with them every moment
js2 = load_jacobi_file(str(jacobi_path))
ops = build_fock(js2)
top = js2.max_word_length()
rebuilt = {}
for k in range(top + 1):
    for m in enumerate_level(1, k):
        rebuilt[m] = moment_of_word(ops, (1,) * k)
print(f"\nreconstructed m_k for k <= {top}: {[str(rebuilt[(k,)]) for k in range(top + 1)]}")
print(f"  (k! expected; matches source: "
      f"{all(rebuilt[m] == phi.moment(m) for m in rebuilt)})")

# 3. byte-level closure of the full cycle
phi2 = from_file(moment_file_text(phi), is_text=True)
gb2 = build_gradation(phi2, N)
js3 = extract_jacobi(gb2, extract_cap(gb2))
print(f"\ndecompose(reconstruct(decompose(phi))) fixes the Jacobi file: "
      f"{jacobi_file_text(js3) == jacobi_file_text(js)}")

# 4. the same cycle through float scalars stays within reporting tolerance
fphi_vals = {m: float(v) for m, v in phi.values.items()}
from favard.moments import MomentFunctional

fphi = MomentFunctional(1, 2 * N + 1, fphi_vals, backend="float")
fgb = build_gradation(fphi, N)
fjs = extract_jacobi(fgb, extract_cap(fgb))
fops = build_fock(fjs)
worst = max(
    abs(moment_of_word(fops, (1,) * k) - float(phi.moment((k,))))
    for k in range(2 * N + 2)
)
print(f"float backend round trip, worst deviation: {worst:.3e}")
