"""Shared fixtures: the expensive dim-402 builds are cached per session so the
acceptance suite and the unit tests do not repeat one-period integrations."""

import math
import tracemalloc

import pytest

import starkband as sb


def peak_copies(run, size):
    """tracemalloc's peak during run(), in complex arrays of `size` entries.
    Arrays allocated before the call do not count; memory that LAPACK
    allocates for numpy.linalg is not seen."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / (16 * size)
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def sector55():
    return sb.build_k0_sector(5, 5)


@pytest.fixture(scope="session")
def psi0_unit(sector55):
    return sb.project_initial_state("unit-filling-lower", sector55)


class PresetRuns:
    """Lazily built Floquet spectra and stroboscopic traces for preset_v0_4."""

    def __init__(self, sector, psi0):
        self.sector = sector
        self.psi0 = psi0
        self._parts = {}
        self._spectra = {}
        self._traces = {}

    def params(self, g):
        return sb.preset_v0_4(g)

    def parts(self, g, mask_key="full"):
        key = (g, mask_key)
        if key not in self._parts:
            # interactions other than "full" reduced to 2 g W_x n^a n^b
            mask = (sb.TermMask() if mask_key == "full"
                    else sb.TermMask(int_a=False, int_b=False, int_x_pair=False))
            self._parts[key] = sb.build_interaction_picture(self.params(g), self.sector, mask)
        return self._parts[key]

    def spectrum(self, g, mask_key="full"):
        key = (g, mask_key)
        if key not in self._spectra:
            parts = self.parts(g, mask_key)
            s = sb.floquet_operator(parts)
            self._spectra[key] = sb.diagonalize_floquet(s, parts.boost_order, parts.t_bloch,
                                                        self.psi0)
        return self._spectra[key]

    def trace(self, g, mask_key="full"):
        """Stroboscopic N_b out to ~1.8x the universal revival estimate."""
        key = (g, mask_key)
        if key not in self._traces:
            p = self.params(g)
            if g > 0:
                n_tb = int(math.ceil(1.8 * sb.revival_estimate_universal(p) / p.t_bloch))
            else:
                n_tb = 6000
            self._traces[key] = sb.stroboscopic_occupations(
                self.spectrum(g, mask_key), self.sector, n_tb
            )
        return self._traces[key]


@pytest.fixture(scope="session")
def preset_runs(sector55, psi0_unit):
    return PresetRuns(sector55, psi0_unit)

