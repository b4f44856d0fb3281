"""SHA-256 digests of the frozen seed-42 run's final weights and test
residuals, pinned beside its MAEs in ``tests/data/frozen_seed42.json``.

The test reads the acceptance suite's frozen run when it has already run, so
a full suite trains the five models once. Run this file as a script to pin
the MAEs, histories and digests of the current tree in the current float
environment, replacing that environment's entry in place. It prints each
value and digest that differs from the entry it replaces. On an x86-64
machine with AVX-512 and glibc 2.36, these three commands re-pin the three
entries:

- two native BLAS threads, as written on a 2-CPU machine:
  ``PYTHONPATH=src python tests/test_frozen_digests.py``;
- one BLAS thread:
  ``OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src python
  tests/test_frozen_digests.py``;
- the portable entry, numpy's dispatch capped at X86_V3 and OpenBLAS's
  core at Haswell: ``NPY_ENABLE_CPU_FEATURES=X86_V3
  OPENBLAS_CORETYPE=Haswell OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1
  PYTHONPATH=src python tests/test_frozen_digests.py``.
"""

import json
import time

import pytest

from sebrange.benchmark import run_benchmark
from sebrange.config import RunConfig
from sebrange.datagen import generate
from test_acceptance import FROZEN_PIN, _float_environment, _frozen_values


def frozen_run():
    """The seed-42 default benchmark, as ``test_acceptance.py`` runs it."""
    rc = RunConfig.load()
    start = time.perf_counter()
    orders, graph = generate(rc.generator_config())
    result = run_benchmark(orders, graph, rc.model_config(), rc.train_config())
    return result, time.perf_counter() - start, orders, graph


def frozen_digests(result):
    """Each model's weights digest (``params()`` order) and test-residuals
    digest."""
    return {row.model: {"weights": row.weights_sha256,
                        "residuals": row.residuals_sha256}
            for row in result.rows}


def test_frozen_seed42_digests(frozen_seed42_run):
    env = _float_environment()
    pinned = [p["digests"] for p in json.loads(FROZEN_PIN.read_text())["pins"]
              if p["environment"] == env]
    if not pinned:
        print("\n[acceptance] frozen seed-42 digests: SKIP (tolerance: "
              "environment not pinned)")
        pytest.skip("float environment not pinned; test_frozen_seed42_pin "
                    "checks the MAEs within its tolerance")
    assert frozen_digests(frozen_seed42_run[0]) == pinned[0]
    print("\n[acceptance] frozen seed-42 digests: PASS (exact: every weight "
          "and residual digest)")


def leaves(tree, path=()):
    """``{path: value}`` for each string at the bottom of nested dicts and
    lists, the path a tuple of keys and indices."""
    if isinstance(tree, list):
        tree = dict(enumerate(tree))
    if not isinstance(tree, dict):
        return {path: tree}
    found = {}
    for key, sub in tree.items():
        found.update(leaves(sub, path + (key,)))
    return found


if __name__ == "__main__":
    result = frozen_run()[0]
    env = _float_environment()
    pins = json.loads(FROZEN_PIN.read_text())["pins"] if FROZEN_PIN.exists() else []
    old = next((p for p in pins if p["environment"] == env), None)
    new = {"environment": env, "values": _frozen_values(result),
           "digests": frozen_digests(result)}
    print(f"environment: {json.dumps(env)}")
    if old is None:
        print("new entry")
    else:
        before = leaves({"values": old["values"], "digests": old["digests"]})
        after = leaves({"values": new["values"], "digests": new["digests"]})
        changed = [k for k in {**before, **after} if before.get(k) != after.get(k)]
        for key in changed:
            print(f"{'/'.join(map(str, key))}: {before.get(key)} -> {after.get(key)}")
        print(f"{len(changed)} of {len(after)} values and digests changed")
    pins = [new if p is old else p for p in pins] if old else pins + [new]
    FROZEN_PIN.parent.mkdir(exist_ok=True)
    FROZEN_PIN.write_text(json.dumps({"pins": pins}, indent=1) + "\n")
