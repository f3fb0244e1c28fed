"""Many-body Hamiltonian assembly on the kappa = 0 sector, plus the
single-particle dressed-site ladder used to check the closed-form
predictions of `model` against the inter-band dynamics.

In the interaction picture with respect to the tilt the Hamiltonian is
time-periodic:

    H(t) = h_static + exp(+i F t) h_hop + exp(-i F t) h_hop^dag

where h_static holds the band energies +-delta/2, the on-site inter-band
coupling c0*F, and all interaction terms, while h_hop holds the l -> l+1
hopping of both bands with their printed signs (-t_a/2 lower, +t_b/2 upper).
The phase convention is exactly exp(+iFt) on a^dag_{l+1} a_l; changing it
shifts the resonances.
"""

import logging
import math
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np
import scipy.sparse as sparse
from scipy.special import jv

from .fock import FockState, SymmetrySector, state_rank
from .model import ModelParams

__all__ = [
    "TermMask",
    "HamiltonianParts",
    "build_interaction_picture",
    "build_static_tilted",
    "build_single_particle_transformed",
    "hermiticity_defect",
]

log = logging.getLogger(__name__)

# Couplings J_m(delta_x) for delta_x ~ 0.3 drop below 1e-12 beyond m ~ 8.
DEFAULT_BESSEL_CUTOFF = 8

_MASK_ALIASES = {"c0": "coupling_c0"}


@dataclass(frozen=True)
class TermMask:
    """Per-term toggles for Hamiltonian assembly.

    `tilt` only matters for the static (untransformed) form; the interaction
    picture removes the tilt by construction.  The band-gap diagonal
    +-delta/2 is not a term of its own and is always present.
    """

    hop_a: bool = True
    hop_b: bool = True
    coupling_c0: bool = True
    int_a: bool = True
    int_b: bool = True
    int_x_density: bool = True
    int_x_pair: bool = True
    tilt: bool = True

    @classmethod
    def from_names(cls, names) -> "TermMask":
        """Mask with exactly the named terms on (e.g. from a CLI comma list)."""
        if isinstance(names, str):
            names = [n.strip() for n in names.split(",") if n.strip()]
        valid = {f.name for f in fields(cls)}
        flags = dict.fromkeys(valid, False)
        for name in names:
            key = _MASK_ALIASES.get(name, name)
            if key not in valid:
                raise ValueError(f"unknown Hamiltonian term {name!r}")
            flags[key] = True
        mask = cls(**flags)
        if not mask.any():
            raise ValueError("term mask selects nothing; at least one term is required")
        return mask

    @classmethod
    def density_cross_only(cls) -> "TermMask":
        """All one-body terms on, interactions reduced to 2 g W_x n^a n^b."""
        return cls(int_a=False, int_b=False, int_x_pair=False)

    def any(self) -> bool:
        return any(getattr(self, f.name) for f in fields(self))

    def names(self) -> tuple:
        return tuple(f.name for f in fields(self) if getattr(self, f.name))


class _FusedBlocks:
    """One CSR matrix holding the stored entries of several blocks.

    Entries that share a (row, col) position are kept apart, not summed, so
    the matrix can be rephased per block by rewriting its data: a weighted
    sum of the blocks then costs one sparse product instead of one per block.
    """

    def __init__(self, blocks, dim: int):
        coos = [sparse.coo_matrix(b) for b in blocks]
        rows = np.concatenate([c.row for c in coos])
        cols = np.concatenate([c.col for c in coos])
        order = np.lexsort((cols, rows))
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=dim))))
        self.values = np.concatenate([c.data for c in coos]).astype(complex)[order]
        self.block = np.concatenate([np.full(c.nnz, k) for k, c in enumerate(coos)])[order]
        self.matrix = sparse.csr_matrix(
            (self.values.copy(), cols[order], indptr), shape=(dim, dim)
        )

    def apply(self, weights, y):
        """(sum_k weights[k] * block_k) @ y."""
        np.multiply(self.values, np.asarray(weights)[self.block], out=self.matrix.data)
        return self.matrix @ y


@dataclass(frozen=True)
class HamiltonianParts:
    """Time-independent blocks of the interaction-picture Hamiltonian."""

    h_static: sparse.csr_matrix
    h_hop: sparse.csr_matrix
    h_hop_dag: sparse.csr_matrix
    basis_dim: int
    force: float
    _fused: _FusedBlocks = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        blocks = (self.h_static, self.h_hop, self.h_hop_dag)
        object.__setattr__(self, "_fused", _FusedBlocks(blocks, self.basis_dim))

    @property
    def t_bloch(self) -> float:
        return 2.0 * math.pi / self.force

    def apply(self, t: float, y):
        """H(t) @ y for a coordinate vector or a matrix of column vectors.

        One sparse product with all three blocks fused into a single CSR
        matrix whose data is rephased to [1, p, conj(p)], p = exp(iFt), on
        each call.  The rephasing writes shared state, so one instance must
        not be applied from two threads at once.
        """
        phase = np.exp(1j * self.force * t)
        return self._fused.apply((1.0, phase, np.conj(phase)), y)

    def dense_at(self, t: float) -> np.ndarray:
        phase = np.exp(1j * self.force * t)
        return (self.h_static + phase * self.h_hop + np.conj(phase) * self.h_hop_dag).toarray()


def hermiticity_defect(matrix) -> float:
    """max |M - M^dag| over all entries (0 for an empty matrix)."""
    if sparse.issparse(matrix):
        diff = (matrix - matrix.getH()).tocoo()
        return float(np.abs(diff.data).max()) if diff.nnz else 0.0
    m = np.asarray(matrix)
    return float(np.abs(m - m.conj().T).max())


def _diagonal_energy(lo, up, params: ModelParams, mask: TermMask, tilted: bool) -> float:
    g = params.g
    e = 0.0
    for l, (na, nb) in enumerate(zip(lo, up), start=1):
        e += 0.5 * params.delta * (nb - na)
        if tilted and mask.tilt:
            e += l * params.force * (na + nb)
        if mask.int_a:
            e += 0.5 * g * params.w_a * na * (na - 1)
        if mask.int_b:
            e += 0.5 * g * params.w_b * nb * (nb - 1)
        if mask.int_x_density:
            e += 2.0 * g * params.w_x * na * nb
    return e


def _onsite_offdiagonal(rep: FockState, params: ModelParams, mask: TermMask):
    """(target state, amplitude) pairs for the on-site band-changing terms.

    Both Hermitian partners are generated explicitly, so collecting these
    for every column yields a Hermitian matrix.
    """
    lo, up = rep.lower, rep.upper
    L = len(lo)
    cf = params.c0 * params.force
    gwx = params.g * params.w_x
    for l in range(L):
        na, nb = lo[l], up[l]
        if mask.coupling_c0 and cf != 0.0:
            if na > 0:  # b^dag_l a_l
                new_lo = lo[:l] + (na - 1,) + lo[l + 1:]
                new_up = up[:l] + (nb + 1,) + up[l + 1:]
                yield FockState(new_lo, new_up), cf * math.sqrt(na * (nb + 1))
            if nb > 0:  # a^dag_l b_l
                new_lo = lo[:l] + (na + 1,) + lo[l + 1:]
                new_up = up[:l] + (nb - 1,) + up[l + 1:]
                yield FockState(new_lo, new_up), cf * math.sqrt(nb * (na + 1))
        if mask.int_x_pair and gwx != 0.0:
            if na >= 2:  # b^dag_l b^dag_l a_l a_l
                new_lo = lo[:l] + (na - 2,) + lo[l + 1:]
                new_up = up[:l] + (nb + 2,) + up[l + 1:]
                amp = math.sqrt(na * (na - 1) * (nb + 1) * (nb + 2))
                yield FockState(new_lo, new_up), 0.5 * gwx * amp
            if nb >= 2:  # a^dag_l a^dag_l b_l b_l
                new_lo = lo[:l] + (na + 2,) + lo[l + 1:]
                new_up = up[:l] + (nb - 2,) + up[l + 1:]
                amp = math.sqrt(nb * (nb - 1) * (na + 1) * (na + 2))
                yield FockState(new_lo, new_up), 0.5 * gwx * amp


def _hop_forward(rep: FockState, params: ModelParams, mask: TermMask, ring: bool):
    """(target, amplitude) pairs for the directed l -> l+1 hopping sum."""
    lo, up = rep.lower, rep.upper
    L = len(lo)
    if L < 2:
        return  # a single site has no distinct neighbour to hop to
    bonds = range(L) if ring else range(L - 1)
    for src in bonds:
        dst = (src + 1) % L
        if mask.hop_a and lo[src] > 0:
            new = list(lo)
            new[src] -= 1
            new[dst] += 1
            amp = -0.5 * params.t_a * math.sqrt(lo[src] * (lo[dst] + 1))
            yield FockState(tuple(new), up), amp
        if mask.hop_b and up[src] > 0:
            new = list(up)
            new[src] -= 1
            new[dst] += 1
            amp = +0.5 * params.t_b * math.sqrt(up[src] * (up[dst] + 1))
            yield FockState(lo, tuple(new)), amp


def _to_csr(rows, cols, vals, dim) -> sparse.csr_matrix:
    # duplicate (row, col) entries are summed; CSR conversion sorts indices,
    # so the stored matrix is independent of generation order
    m = sparse.coo_matrix((vals, (rows, cols)), shape=(dim, dim), dtype=complex)
    m = m.tocsr()
    m.sum_duplicates()
    return m


def build_interaction_picture(
    params: ModelParams, sector: SymmetrySector, mask: TermMask = TermMask()
) -> HamiltonianParts:
    """Assemble h_static and h_hop directly in kappa = 0 sector coordinates.

    Matrix elements follow the second-quantized rules a_l|..n..> =
    sqrt(n)|..n-1..>; an element between symmetrized states i <- j carries
    the orbit factor sqrt(orbit_j / orbit_i) because the operator is applied
    to the representative of column j only.
    """
    if (sector.n_particles, sector.n_sites) != (params.n_particles, params.n_sites):
        raise ValueError(
            f"sector built for (N={sector.n_particles}, L={sector.n_sites}) does not match "
            f"params (N={params.n_particles}, L={params.n_sites})"
        )
    if mask.coupling_c0 and params.c0 == 0.0:
        log.info("coupling_c0 requested but c0 = 0; the bands stay uncoupled")

    sizes = sector.orbit_sizes
    dim = sector.dim
    s_rows, s_cols, s_vals = [], [], []
    h_rows, h_cols, h_vals = [], [], []
    for j, rep in enumerate(sector.representatives):
        diag = _diagonal_energy(rep.lower, rep.upper, params, mask, tilted=False)
        if diag != 0.0:
            s_rows.append(j)
            s_cols.append(j)
            s_vals.append(diag)
        for target, amp in _onsite_offdiagonal(rep, params, mask):
            i, _ = sector.lookup(target)
            s_rows.append(i)
            s_cols.append(j)
            s_vals.append(amp * math.sqrt(sizes[j] / sizes[i]))
        for target, amp in _hop_forward(rep, params, mask, ring=True):
            i, _ = sector.lookup(target)
            h_rows.append(i)
            h_cols.append(j)
            h_vals.append(amp * math.sqrt(sizes[j] / sizes[i]))

    h_static = _to_csr(s_rows, s_cols, s_vals, dim)
    h_hop = _to_csr(h_rows, h_cols, h_vals, dim)

    defect = hermiticity_defect(h_static)
    scale = float(np.abs(h_static.data).max()) if h_static.nnz else 1.0
    if defect > 1e-12 * scale:
        raise AssertionError(f"h_static lost hermiticity: defect {defect:.3e} vs scale {scale:.3e}")

    return HamiltonianParts(
        h_static=h_static,
        h_hop=h_hop,
        h_hop_dag=h_hop.getH().tocsr(),
        basis_dim=dim,
        force=params.force,
    )


def build_static_tilted(params: ModelParams, basis, mask: TermMask = TermMask()) -> sparse.csr_matrix:
    """Time-independent Hamiltonian with the explicit tilt l*F, on the full
    Fock basis with open boundary conditions (a tilt on a ring is ill-defined).

    Sites are numbered 1..L, so the single-particle diagonal is
    +-delta/2 + l*F.  Used to cross-validate the interaction picture and the
    dressed-site model on small systems.
    """
    dim = len(basis)
    rows, cols, vals = [], [], []
    for state in basis:
        j = state_rank(state)
        diag = _diagonal_energy(state.lower, state.upper, params, mask, tilted=True)
        if diag != 0.0:
            rows.append(j)
            cols.append(j)
            vals.append(diag)
        for target, amp in _onsite_offdiagonal(state, params, mask):
            rows.append(state_rank(target))
            cols.append(j)
            vals.append(amp)
        # open chain: forward hops plus their conjugates, no phases
        for target, amp in _hop_forward(state, params, mask, ring=False):
            i = state_rank(target)
            rows.extend((i, j))
            cols.extend((j, i))
            vals.extend((amp, amp))
    return _to_csr(rows, cols, vals, dim)


def build_single_particle_transformed(
    params: ModelParams,
    site_window: int,
    bessel_cutoff: int = DEFAULT_BESSEL_CUTOFF,
) -> np.ndarray:
    """Dressed-site single-particle model on sites -M..M of both bands.

    After the gauge transformation that absorbs the hopping, the two bands
    couple directly between any two sites, with strength
    c0 * F * J_{l-n}(delta_x) between lower site l and upper site n; the
    diagonal is the bare ladder +-delta/2 + l*F.  Orders beyond
    `bessel_cutoff` are dropped.  Returns a dense real symmetric matrix of
    dimension 2*(2M+1), ordered [lower -M..M, upper -M..M].

    Eigenpairs of states within ~bessel_cutoff sites of the window edge are
    boundary-affected; analyses should use the central region.
    """
    m = int(site_window)
    if m < 1:
        raise ValueError(f"site window half-width must be >= 1, got {site_window}")
    dx = params.delta_x

    tail = np.abs(jv(np.arange(bessel_cutoff + 1, bessel_cutoff + 5), dx)).max()
    if tail >= 1e-12:
        warnings.warn(
            f"bessel_cutoff={bessel_cutoff} drops couplings of size {tail:.2e} at delta_x={dx:.3g}",
            stacklevel=2,
        )
    if m < bessel_cutoff:
        lost = np.abs(jv(np.arange(m + 1, bessel_cutoff + 1), dx)).max()
        if lost >= 1e-12:
            warnings.warn(
                f"site window {m} is smaller than the coupling range; "
                f"edge couplings of size {lost:.2e} are cut",
                stacklevel=2,
            )

    sites = np.arange(-m, m + 1)
    ladder = sites * params.force
    offset = sites[:, None] - sites[None, :]  # l - n for lower site l, upper site n
    near = np.abs(offset) <= bessel_cutoff
    coupling = np.zeros(offset.shape)
    coupling[near] = params.c0 * params.force * jv(offset[near], dx)
    return np.block([
        [np.diag(-0.5 * params.delta + ladder), coupling],
        [coupling.T, np.diag(+0.5 * params.delta + ladder)],
    ])
