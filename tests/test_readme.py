"""The README's library sketch runs, and its comments hold."""

import re
from pathlib import Path

import numpy as np

from monoconv import KTransform, embedding_test, k_transform, validate_k

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_sketch() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library sketch", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_sketch_runs_as_commented():
    ns = {}
    exec(compile(_library_sketch(), str(README), "exec"), ns)

    # uniform on the 4th roots of unity: moments 1 at multiples of 4, else 0
    m = ns["conv"].moments(16)
    assert np.allclose(m, [1.0 if k % 4 == 0 else 0.0 for k in range(1, 17)], rtol=0, atol=1e-12)
    k = k_transform(ns["conv"])  # order omitted: the 16 stored moments
    assert k.order == 16
    assert validate_k(k).all_ok

    values = ns["evolve"](ns["gen"], [0.0, 0.7, 1.4], ns["ring"])
    assert values.shape == (3, 64)
    assert values[0].tobytes() == ns["ring"].tobytes()

    k_t = ns["k_t"]
    z = 0.3 + 0.2j
    assert abs(ns["evolve_pointwise"](ns["gen"], 0.7, z) - k_t(z)) <= 1e-9
    assert embedding_test(KTransform(k_t)).embeddable
