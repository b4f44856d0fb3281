"""SHA-256 digests of the frozen seed-42 run's final weights and test
residuals, pinned beside its MAEs in ``tests/data/frozen_seed42.json``.

The test reads the acceptance suite's frozen run when it has already run, so
a full suite trains the five models once. Run this file as a script to pin
the MAEs, histories and digests of the current tree in the current float
environment, replacing that environment's entry:
``PYTHONPATH=src python tests/test_frozen_digests.py``.
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


if __name__ == "__main__":
    result = frozen_run()[0]
    env = _float_environment()
    pins = json.loads(FROZEN_PIN.read_text())["pins"] if FROZEN_PIN.exists() else []
    pins = [p for p in pins if p["environment"] != env]
    pins.append({"environment": env, "values": _frozen_values(result),
                 "digests": frozen_digests(result)})
    FROZEN_PIN.parent.mkdir(exist_ok=True)
    FROZEN_PIN.write_text(json.dumps({"pins": pins}, indent=1) + "\n")
