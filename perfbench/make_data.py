"""Regenerate the fixed benchmark inputs in ``data/`` from the package.

Run from the repository root: ``PYTHONPATH=src python3 perfbench/make_data.py``.
The benchmark itself only reads the stored files (and checks their digest),
so its inputs do not change when the census or search code changes.
"""

from __future__ import annotations

import json
from pathlib import Path

from avnproofs import classify_all, format_distribution, format_graph, min_party_distributions

DATA = Path(__file__).resolve().with_name("data")


def lc8_classes() -> list:
    out = []
    for rec in classify_all(8):
        m, _ = min_party_distributions(rec.representative)
        out.append({"edges": [list(e) for e in rec.representative.edges()], "m_min": m})
    return out


def witness_pairs() -> list:
    out = []
    for n in range(3, 7):
        for rec in classify_all(n):
            g = rec.representative
            _, reports = min_party_distributions(g)
            for r in reports:
                out.append(
                    {"graph": format_graph(g), "dist": format_distribution(r.distribution)}
                )
    return out


def main() -> None:
    DATA.mkdir(exist_ok=True)
    for name, rows in (
        ("lc8_classes", lc8_classes()),
        ("witness_pairs", witness_pairs()),
    ):
        text = "[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n"
        (DATA / f"{name}.json").write_text(text)
        print(f"{name}: {len(rows)} rows")


if __name__ == "__main__":
    main()
