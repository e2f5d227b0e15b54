"""The bundled-scenario CLI outputs, pinned: every number to 1e-12 relative,
every boolean, string and null exactly.

tests/data/bundled_outputs.json holds the JSON that `qsl-lab <task>
--format json` writes for each bundled scenario and for the default
`reproduce` suite. Regenerate it with `python tests/test_bundled_outputs.py`
only for a change that is meant to move a number, and list each moved cell
in CHANGES.md.
"""

import json
import math
import pathlib
import sys

import pytest

from qsl_lab.cli import main
from qsl_lab.scenarios import bundled_scenario

GOLDEN = pathlib.Path(__file__).parent / "data" / "bundled_outputs.json"
REL_TOL = 1e-12
# output name -> (task, bundled scenario, or None for the default suite)
RUNS = {
    "bound_case1": ("bound", "case1"),
    "bound_case2": ("bound", "case2"),
    "compare_case3": ("compare", "case3"),
    "evolve_markovian": ("evolve", "markovian"),
    "interfere": ("interfere", "interfere"),
    "sweep": ("sweep", "sweep"),
    "reproduce": ("reproduce", None),
}


def cli_output(name: str, out_dir: pathlib.Path) -> dict:
    task, scenario = RUNS[name]
    out = out_dir / f"{name}.json"
    argv = [task, "--format", "json", "--out", str(out)]
    if scenario is not None:
        argv += ["--scenario", bundled_scenario(scenario)]
    assert main(argv) == 0
    return json.loads(out.read_text(encoding="utf-8"))


def _mismatches(got, want, where: str):
    """Paths at which got differs from want beyond the pinned tolerance."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r}"]
        return [m for k in want for m in _mismatches(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r} vs {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{where}[{i}]")]
    if isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
            return [f"{where}: {got!r} vs {want!r}"]
        return []
    if type(got) is not type(want) or got != want:
        return [f"{where}: {got!r} vs {want!r}"]
    return []


@pytest.mark.parametrize("name", list(RUNS))
def test_bundled_output_is_reproduced(name, tmp_path):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert _mismatches(cli_output(name, tmp_path), want, name) == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        outputs = {name: cli_output(name, pathlib.Path(tmp)) for name in RUNS}
    # one table row per line, so a moved cell shows as a one-line diff
    blocks = []
    for name, payload in outputs.items():
        rows = ",\n    ".join(json.dumps(row) for row in payload["rows"])
        blocks.append(f'  "{name}": {{\n'
                      f'   "metadata": {json.dumps(payload["metadata"])},\n'
                      f'   "columns": {json.dumps(payload["columns"])},\n'
                      f'   "rows": [\n    {rows}\n   ]\n  }}')
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")
    sys.stdout.write(f"wrote {GOLDEN}\n")
