"""Golden CLI outputs on small systems.

Each case runs `starkband.cli.main` in-process and compares its stdout with
the file of the same name under `tests/golden/`.  CSV outputs must match byte
for byte.  The revival-report JSON is compared key by key: strings and nulls
exactly, floats within 1e-12 relative, because `json.dumps` prints all 17
significant digits.  A golden file is regenerated from the CLI itself, e.g.

    python -m starkband dims --n 3 --l 3 > tests/golden/dims.csv

and any change to one must be explained where the change is recorded.
"""

import json
from pathlib import Path

import pytest

from starkband.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

SMALL = ["--preset", "v0_4", "--n", "3", "--l", "3", "--g", "0.2"]
SINGLE = ["single-particle", "--preset", "v0_4", "--window", "10",
          "--t-final-tb", "2", "--sample-per-tb", "8"]

CSV_CASES = {
    "dims.csv": ["dims", "--n", "3", "--l", "3"],
    "evolve_continuous.csv": ["evolve", *SMALL, "--t-final-tb", "4"],
    "evolve_stroboscopic.csv": ["evolve", *SMALL, "--mode", "stroboscopic",
                                "--t-final-tb", "20"],
    "evolve_lower_band_ground.csv": ["evolve", *SMALL, "--initial", "lower-band-ground",
                                     "--t-final-tb", "2"],
    "floquet_spectrum.csv": ["floquet-spectrum", *SMALL],
    "sweep_g.csv": ["sweep-g", "--preset", "v0_4", "--n", "3", "--l", "3",
                    "--g-grid", "0.1,0.2"],
    "single_particle_rabi.csv": SINGLE,
    "single_particle_order2.csv": [*SINGLE, "--order", "2"],
}


@pytest.mark.parametrize("name", sorted(CSV_CASES))
def test_csv_matches_golden(name, capsys):
    assert main(CSV_CASES[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


def test_revival_report_matches_golden(capsys):
    assert main(["revival-report", *SMALL]) == 0
    got = json.loads(capsys.readouterr().out)
    want = json.loads((GOLDEN / "revival_report.json").read_text())
    assert list(got) == list(want)
    for key, value in want.items():
        if isinstance(value, float):
            assert got[key] == pytest.approx(value, rel=1e-12, abs=0.0), key
        else:
            assert got[key] == value, key
