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
from dataclasses import replace
from pathlib import Path

import pytest

import starkband as sb
import starkband.propagation as propagation
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
    "evolve_vectors.csv": ["evolve", "--preset", "v0_4", "--n", "4", "--l", "4", "--g", "0.2",
                           "--t-final-tb", "1.7", "--sample-per-tb", "8"],
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


def test_vector_golden_takes_the_vector_route():
    # the other evolve goldens build S; evolve_vectors.csv pins the bytes of
    # the vector route and of the short integration to an off-grid t_final:
    # samples 0..13 on the grid of 8 per period, then 1.7 T_B
    params = replace(sb.preset_v0_4(0.2), n_particles=4, n_sites=4)
    parts = sb.build_interaction_picture(params, sb.build_k0_sector(4, 4))
    assert not propagation._propagator_pays(parts, 13, 8)


def test_continuous_golden_builds_its_window_starts_before_its_windows():
    # evolve_continuous.csv takes S (4 periods at 32 samples per period at
    # N = L = 3, dim 20) and builds its 5 window starts before the first
    # block of windows, 5 <= min(dim, FLOQUET_CHUNK_COPIES * FLOQUET_CHUNK);
    # the starts streamed from S past that are checked against the lab frame
    # in tests/test_propagation.py
    params = replace(sb.preset_v0_4(0.2), n_particles=3, n_sites=3)
    parts = sb.build_interaction_picture(params, sb.build_k0_sector(3, 3))
    assert propagation._propagator_pays(parts, 4 * 32, 32)
    assert 4 + 1 <= min(parts.basis_dim,
                        propagation.FLOQUET_CHUNK_COPIES * propagation.FLOQUET_CHUNK)


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
