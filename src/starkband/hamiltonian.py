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

The model is data (`_model`), the entries of one-body matrices and a
two-body tensor over the 2L modes, and `SymmetrySector.operator` turns each
into a sector matrix, one `fock.ladder` per nonzero entry, for all
representatives at once.

The blocks are numpy `Csr` arrays, and `HamiltonianParts.apply` runs
scipy's compiled CSR product on them, loaded straight from its extension
file: importing scipy.sparse costs a run about 0.25 s (its array API shim
loads numpy.f2py, numpy.testing, numpy.ma and numpy.random), and a run uses
nothing else of it.  Only `_scipy_csr` imports it, to build the cached
scipy.sparse views h_static, h_hop and h_hop_dag.  No run reads them: the
benchmark's child process (perfbench/child.py) and the tests do.  The dense
lab-frame H(t) that the tests integrate as an oracle is built from the `Csr`
blocks in tests/oracles.py.
"""

import importlib.machinery
import importlib.util
import math
import os
import sys
import warnings
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .fock import Csr, SymmetrySector
from .model import ModelParams, bessel_j

__all__ = [
    "TermMask",
    "HamiltonianParts",
    "build_interaction_picture",
    "build_single_particle_transformed",
    "hermiticity_defect",
]

_MASK_ALIASES = {"c0": "coupling_c0"}


@dataclass(frozen=True)
class TermMask:
    """Per-term toggles for Hamiltonian assembly.

    The interaction picture removes the tilt by construction, so it is not a
    term.  The band-gap diagonal +-delta/2 is not a term of its own either
    and is always present.
    """

    hop_a: bool = True
    hop_b: bool = True
    coupling_c0: bool = True
    int_a: bool = True
    int_b: bool = True
    int_x_density: bool = True
    int_x_pair: bool = True

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

    def any(self) -> bool:
        return any(getattr(self, f.name) for f in fields(self))

    def names(self) -> tuple:
        return tuple(f.name for f in fields(self) if getattr(self, f.name))


def _load_sparsetools():
    """scipy.sparse._sparsetools, scipy's compiled sparse loops, loaded from
    its file in scipy's sparse/ directory without running scipy.sparse's
    __init__, and registered under its name, so that a later
    `import scipy.sparse` reuses it."""
    name = "scipy.sparse._sparsetools"
    if name in sys.modules:
        return sys.modules[name]
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError(f"{name} not found: scipy is not installed")
    directory = os.path.join(scipy_spec.submodule_search_locations[0], "sparse")
    loader = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    spec = importlib.machinery.FileFinder(directory, loader).find_spec(name)
    if spec is None:
        raise ImportError(f"{name} not found: no compiled module _sparsetools in {directory}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


_sparsetools = _load_sparsetools()


class _FusedBlocks:
    """One CSR matrix holding the stored entries of blocks with time factors
    exp(i s F t), in the frame of a diagonal D: entry (i, j) turns at
    omega = D_i - D_j + s F.  Entries sharing a position are kept apart, so
    a call costs one exp per distinct omega, a rephasing of the data and
    one CSR product, scipy's compiled csr_matvec (one column) or
    csr_matvecs (several) on these arrays, the loop that
    scipy.sparse.csr_matrix((data, indices, indptr)) @ y runs.
    """

    def __init__(self, blocks, force: float, d: np.ndarray):
        """`blocks` holds the (rows, cols, values, s) of each block."""
        rows = np.concatenate([b[0] for b in blocks])
        cols = np.concatenate([b[1] for b in blocks])
        omega = np.concatenate([d[r] - d[c] + s * force for r, c, _, s in blocks])
        order = np.lexsort((cols, rows))
        self.values = np.concatenate([b[2] for b in blocks]).astype(complex)[order]
        omega, self.which = np.unique(omega[order], return_inverse=True)
        self.rates = 1j * omega
        self.data = np.empty_like(self.values)
        self.indices = cols[order]
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=len(d)))))
        self.indptr = indptr.astype(self.indices.dtype)
        self.dim = len(d)

    def apply(self, t: float, y):
        np.multiply(self.values, np.exp(t * self.rates)[self.which], out=self.data)
        dim = self.dim
        if y.ndim not in (1, 2) or y.shape[0] != dim:
            raise ValueError(f"operand of shape {y.shape} does not match dimension {dim}")
        out = np.zeros(y.shape, dtype=complex)
        if y.ndim == 1 or y.shape[1] == 1:  # how scipy dispatches `matrix @ y`
            _sparsetools.csr_matvec(dim, dim, self.indptr, self.indices, self.data,
                                    y.ravel(), out.ravel())
        else:
            _sparsetools.csr_matvecs(dim, dim, y.shape[1], self.indptr, self.indices, self.data,
                                     y.ravel(), out.ravel())
        return out


def _scipy_csr(block: Csr):
    """`block` as a scipy.sparse.csr_matrix, for callers that want scipy's
    arithmetic: the one place the package imports scipy.sparse."""
    import scipy.sparse

    return scipy.sparse.csr_matrix(block, shape=(block.dim,) * 2)


@dataclass(frozen=True, eq=False)
class HamiltonianParts:
    """Time-independent blocks of the interaction-picture Hamiltonian, and
    `frame`, the real D = diag(h_static) that both integrators remove.

    `static_csr` and `hop_csr` are h_static and h_hop as `Csr`, which is all
    a run reads; `basis_dim` is their dimension.  h_hop^dag is derived from
    `hop_csr`, so `replace(parts, hop_csr=...)` keeps H(t) Hermitian.  The
    properties h_static, h_hop and h_hop_dag are the blocks as
    scipy.sparse.csr_matrix, built (and scipy.sparse imported) on first
    access and kept; only perfbench/child.py and the tests read them.

    `boost_order` is d = gcd(N, L), `boost_charge` each basis state's S mod d
    with S = sum_l l (n^a_l + n^b_l), sites l = 0..L-1.  The boost B^(L/d),
    B = exp(2 pi i S / L), is diag(exp(2 pi i boost_charge / d)) on the sector
    and shifts H(t) by T_B/d.  The defaults d = 1, charge 0 claim no symmetry.
    Blocks of different dimensions, or a charge per state of another length,
    raise ValueError.

    Parts compare by identity: `==` is `is`, and a `replace` is a new object.
    """

    static_csr: Csr = field(repr=False)
    hop_csr: Csr = field(repr=False)
    force: float
    boost_order: int = 1
    boost_charge: np.ndarray | None = field(default=None, repr=False)
    frame: np.ndarray = field(init=False, repr=False)
    _fused: _FusedBlocks = field(init=False, repr=False)

    def __post_init__(self):
        static, hop, dim = self.static_csr, self.hop_csr, self.basis_dim
        if hop.dim != dim:
            raise ValueError(f"h_hop has dimension {hop.dim}, h_static {dim}")
        if self.boost_charge is None:
            object.__setattr__(self, "boost_charge", np.zeros(dim, dtype=np.int64))
        elif np.shape(self.boost_charge) != (dim,):
            raise ValueError(f"boost_charge has shape {np.shape(self.boost_charge)}, not ({dim},)")
        rows, cols = static.rows(), static.indices
        on = rows == cols
        d = np.zeros(dim)
        d[rows[on]] += static.data[on].real  # 0 + a, as scipy's diagonal() sums it
        off = static.data - np.where(on, d[rows], 0.0)  # scipy's h_static - diags(d)
        kept = off != 0
        hop_rows = hop.rows()
        fused = _FusedBlocks(((rows[kept], cols[kept], off[kept], 0),
                              (hop_rows, hop.indices, hop.data, 1),
                              (hop.indices, hop_rows, hop.data.conj(), -1)), self.force, d)
        object.__setattr__(self, "frame", d)
        object.__setattr__(self, "_fused", fused)

    @property
    def basis_dim(self) -> int:
        return self.static_csr.dim

    @cached_property
    def h_static(self):
        return _scipy_csr(self.static_csr)

    @cached_property
    def h_hop(self):
        return _scipy_csr(self.hop_csr)

    @cached_property
    def h_hop_dag(self):
        hop = self.hop_csr
        return _scipy_csr(Csr.from_entries(hop.indices, hop.rows(), hop.data.conj(), hop.dim))

    @property
    def t_bloch(self) -> float:
        return 2.0 * math.pi / self.force

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays the parts hold, the fused blocks included."""
        arrays = (*self.static_csr, *self.hop_csr, self.boost_charge, self.frame,
                  *vars(self._fused).values())
        return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))

    def apply(self, t: float, y):
        """e^{iDt} (H(t) - D) e^{-iDt} @ y, D = `frame`, for a vector or a
        matrix of columns: W = e^{iDt} psi obeys i dW/dt = apply(t, W).

        Each call rephases shared data, so one instance must not be applied
        from two threads at once.  The tests check it against the dense
        lab-frame H(t) of tests/oracles.py.
        """
        return self._fused.apply(t, y)


def hermiticity_defect(matrix) -> float:
    """max |M - M^dag| over all entries (0 for an empty matrix) of a `Csr`
    or a scipy sparse matrix (perfbench/child.py passes one)."""
    if hasattr(matrix, "tocsr"):
        m = matrix.tocsr()
        matrix = Csr(m.data, m.indices, m.indptr)
    # M's entries, then those of -M^dag: each position sums m_ij + (-conj(m_ji))
    rows, cols = matrix.rows(), matrix.indices
    defect = Csr.from_entries(np.concatenate((rows, cols)), np.concatenate((cols, rows)),
                              np.concatenate((matrix.data, -matrix.data.conj())), matrix.dim)
    return float(np.abs(defect.data).max()) if defect.data.size else 0.0


def _model(params: ModelParams, mask: TermMask):
    """The entries of h_static's one-body matrix (the gap -+delta/2,
    c0 F b^dag_l a_l + h.c.) and two-body tensor (on each site 0.5 g W_a
    a^dag a^dag a a, 2 g W_x a^dag b^dag b a, 0.5 g W_b b^dag b^dag b b,
    0.5 g W_x b^dag b^dag a a + h.c.), and of h_hop's one-body matrix
    (l -> l+1 on the ring, -t_a/2 lower, +t_b/2 upper), each a mapping from
    modes to coefficients over the 2L modes, lower band first: 6L one-body
    and 5L two-body entries.  The entries of the terms `mask` turns off are
    zero."""
    L, g = params.n_sites, params.g
    static, two_body, hop = {}, {}, {}
    for a, b in zip(range(L), range(L, 2 * L)):
        static[a, a], static[b, b] = -0.5 * params.delta, 0.5 * params.delta
        static[a, b] = static[b, a] = params.c0 * params.force if mask.coupling_c0 else 0.0
        two_body[a, a, a, a] = 0.5 * g * params.w_a if mask.int_a else 0.0
        two_body[b, b, b, b] = 0.5 * g * params.w_b if mask.int_b else 0.0
        two_body[a, b, b, a] = 2.0 * g * params.w_x if mask.int_x_density else 0.0
        two_body[b, b, a, a] = two_body[a, a, b, b] = (
            0.5 * (g * params.w_x) if mask.int_x_pair else 0.0)
        if L > 1:  # a single site has no distinct neighbour
            hop[(a + 1) % L, a] = -0.5 * params.t_a if mask.hop_a else 0.0
            hop[(a + 1) % L + L, b] = +0.5 * params.t_b if mask.hop_b else 0.0
    return static, two_body, hop


def build_interaction_picture(
    params: ModelParams, sector: SymmetrySector, mask: TermMask = TermMask()
) -> HamiltonianParts:
    """Assemble h_static and h_hop in kappa = 0 sector coordinates from the
    model as data (`_model`), each one `SymmetrySector.operator`, whose rule
    `fock.ladder` applies c|n> = sqrt(n)|n-1> and c^dag|n> = sqrt(n+1)|n+1>
    to all representatives at once."""
    if (sector.n_particles, sector.n_sites) != (params.n_particles, params.n_sites):
        raise ValueError(
            f"sector built for (N={sector.n_particles}, L={sector.n_sites}) does not match "
            f"params (N={params.n_particles}, L={params.n_sites})"
        )
    static, two_body, hop = _model(params, mask)
    h_static = sector.operator(static, two_body)
    h_hop = sector.operator(hop)

    defect = hermiticity_defect(h_static)
    scale = float(np.abs(h_static.data).max()) if h_static.data.size else 1.0
    if defect > 1e-12 * scale:
        raise AssertionError(f"h_static lost hermiticity: defect {defect:.3e} vs scale {scale:.3e}")

    order, L = math.gcd(params.n_particles, params.n_sites), params.n_sites
    sites = sector.occupations[:, :L].astype(np.int64) + sector.occupations[:, L:]
    charge = (sites @ np.arange(L)) % order
    return HamiltonianParts(
        static_csr=h_static,
        hop_csr=h_hop,
        force=params.force,
        boost_order=order,
        boost_charge=charge,
    )


def _bessel_cutoff(x: float) -> int:
    """The smallest order m whose next four couplings |J_(m+1..m+4)(x)| are
    all below 1e-12: 8 at preset_v0_4's delta_x, 11 at F = 0.7, 15 at 0.3."""
    m = 0
    while np.abs(bessel_j(np.arange(m + 1, m + 5), x)).max() >= 1e-12:
        m += 1
    return m


def build_single_particle_transformed(params: ModelParams, site_window: int) -> np.ndarray:
    """Dressed-site single-particle model on sites -M..M of both bands.

    After the gauge transformation that absorbs the hopping, the two bands
    couple directly between any two sites, with strength
    c0 * F * J_{l-n}(delta_x) between lower site l and upper site n; the
    diagonal is the bare ladder +-delta/2 + l*F.  Orders beyond
    `_bessel_cutoff(delta_x)`, whose couplings are below 1e-12, are dropped.
    Returns a dense real symmetric matrix of dimension 2*(2M+1), ordered
    [lower -M..M, upper -M..M].

    Eigenpairs of states within ~cutoff sites of the window edge are
    boundary-affected; analyses should use the central region.
    """
    m = int(site_window)
    if m < 1:
        raise ValueError(f"site window half-width must be >= 1, got {site_window}")
    dx = params.delta_x
    cutoff = _bessel_cutoff(dx)
    if m < cutoff:
        lost = np.abs(bessel_j(np.arange(m + 1, cutoff + 1), dx)).max()
        if lost >= 1e-12:
            warnings.warn(
                f"site window {m} is smaller than the coupling range; "
                f"edge couplings of size {lost:.2e} are cut",
                stacklevel=2,
            )

    sites = np.arange(-m, m + 1)
    ladder = sites * params.force
    offset = sites[:, None] - sites[None, :]  # l - n for lower site l, upper site n
    near = np.abs(offset) <= cutoff
    coupling = np.zeros(offset.shape)
    coupling[near] = params.c0 * params.force * bessel_j(offset[near], dx)
    return np.block([
        [np.diag(-0.5 * params.delta + ladder), coupling],
        [coupling.T, np.diag(+0.5 * params.delta + ladder)],
    ])
